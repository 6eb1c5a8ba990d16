package query

// A tiny textual plan language so the CLI (cmd/ccfquery) and tests can
// express operator trees without Go code:
//
//	plan     := expr
//	expr     := scan | join | aggregate | distinct | rekey
//	scan     := IDENT | scan(IDENT)
//	join     := join(expr, expr)
//	aggregate:= aggregate(expr) | aggregate(expr, partial)
//	distinct := distinct(expr)
//	rekey    := rekeydiv(expr, N) | rekeymod(expr, N)
//
// rekeydiv maps Key → Key / N (coarsens groups); rekeymod maps Key →
// Key mod N. Both are MapOp instances, the only pure functions the textual
// form needs. Identifiers are table names; whitespace is free.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ParsePlan parses the textual plan language into an operator tree.
func ParsePlan(src string) (Node, error) {
	p := &planParser{src: src}
	node, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("query: trailing input at offset %d: %q", p.pos, p.src[p.pos:])
	}
	return node, nil
}

type planParser struct {
	src string
	pos int
}

func (p *planParser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *planParser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *planParser) expect(c byte) error {
	p.skipSpace()
	if p.peek() != c {
		return fmt.Errorf("query: expected %q at offset %d, found %q", string(c), p.pos, rest(p.src, p.pos))
	}
	p.pos++
	return nil
}

func rest(s string, pos int) string {
	if pos >= len(s) {
		return "<end of input>"
	}
	r := s[pos:]
	if len(r) > 12 {
		r = r[:12] + "…"
	}
	return r
}

func (p *planParser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return "", fmt.Errorf("query: expected identifier at offset %d, found %q", start, rest(p.src, start))
	}
	return p.src[start:p.pos], nil
}

func (p *planParser) integer() (int64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, fmt.Errorf("query: expected integer at offset %d, found %q", start, rest(p.src, start))
	}
	v, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("query: integer at offset %d: %w", start, err)
	}
	return v, nil
}

func (p *planParser) parseExpr() (Node, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.peek() != '(' {
		// Bare identifier = table scan.
		return &Scan{Table: name}, nil
	}
	switch strings.ToLower(name) {
	case "scan":
		p.pos++ // consume '('
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &Scan{Table: table}, nil
	case "join":
		p.pos++
		left, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		right, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &JoinOp{Left: left, Right: right}, nil
	case "aggregate", "agg":
		p.pos++
		in, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		partial := false
		p.skipSpace()
		if p.peek() == ',' {
			p.pos++
			flag, err := p.ident()
			if err != nil {
				return nil, err
			}
			if strings.ToLower(flag) != "partial" {
				return nil, fmt.Errorf("query: aggregate option %q; only \"partial\" is known", flag)
			}
			partial = true
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &AggOp{Input: in, Partial: partial}, nil
	case "distinct":
		p.pos++
		in, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &DistinctOp{Input: in}, nil
	case "rekeydiv", "rekeymod":
		p.pos++
		in, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		nval, err := p.integer()
		if err != nil {
			return nil, err
		}
		if nval <= 0 {
			return nil, fmt.Errorf("query: %s needs a positive modulus/divisor, got %d", name, nval)
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		if strings.ToLower(name) == "rekeydiv" {
			return &MapOp{Input: in, F: func(r Row) Row { return Row{Key: r.Key / nval, Value: r.Value} }}, nil
		}
		return &MapOp{Input: in, F: func(r Row) Row {
			k := r.Key % nval
			if k < 0 {
				k += nval
			}
			return Row{Key: k, Value: r.Value}
		}}, nil
	default:
		return nil, fmt.Errorf("query: unknown operator %q at offset %d", name, p.pos)
	}
}

// FormatPlan renders an operator tree back into the plan language (MapOps
// print as map(...) since their functions are opaque).
func FormatPlan(n Node) string {
	switch op := n.(type) {
	case *Scan:
		return op.Table
	case *JoinOp:
		return "join(" + FormatPlan(op.Left) + ", " + FormatPlan(op.Right) + ")"
	case *AggOp:
		if op.Partial {
			return "aggregate(" + FormatPlan(op.Input) + ", partial)"
		}
		return "aggregate(" + FormatPlan(op.Input) + ")"
	case *DistinctOp:
		return "distinct(" + FormatPlan(op.Input) + ")"
	case *MapOp:
		return "map(" + FormatPlan(op.Input) + ")"
	default:
		return fmt.Sprintf("<%T>", n)
	}
}
