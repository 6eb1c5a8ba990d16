// Package tpch builds TPC-H-flavoured multi-table workloads for the query
// layer — the "more complex workloads (e.g., analytical queries)" of the
// paper's future work (§VI). It generates the three-relation chain
//
//	CUSTOMER (custkey)  ⋈  ORDERS (custkey → orderkey)  ⋈  LINEITEM (orderkey, price)
//
// and expresses canonical analytics over it as plans for query.Executor:
// revenue per customer, revenue per nation, and order counts. Because the
// query engine's rows are (Key, Value) pairs and its join emits Key plus
// the SUM of the two values, chain joins carry composite state by encoding
// (custkey, price) into a single value with a fixed radix — the same trick
// value-tagged columnar engines use, here made explicit and tested.
package tpch

import (
	"fmt"

	"ccf/internal/query"
	"ccf/internal/rng"
)

// Radix separates the two halves of an encoded value: value = hi×Radix + lo
// with 0 ≤ lo < Radix. Prices are generated strictly below Radix.
const Radix = 1 << 20

// Nations is the TPC-H nation count; nationkey = custkey mod Nations.
const Nations = 25

// Config sizes the generated tables.
type Config struct {
	Nodes     int
	Customers int64 // orders = 10×customers, lineitems ≈ 4×orders
	// PayloadBytes per row on the wire; 0 = 100.
	PayloadBytes int64
	// Seed draws the tables. Generate seeds its generator with Seed|1, so
	// seeds 2k and 2k+1 yield identical tables.
	Seed uint64
}

// Tables bundles the generated relations.
type Tables struct {
	Customer *query.Table // Key=custkey, Value=0
	Orders   *query.Table // Key=custkey, Value=orderkey
	Lineitem *query.Table // Key=orderkey, Value=price (< Radix)
}

// Generate materialises the three relations, spread round-robin with a
// deterministic per-row node choice.
func Generate(cfg Config) (*Tables, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("tpch: Nodes must be positive, got %d", cfg.Nodes)
	}
	if cfg.Customers <= 0 {
		return nil, fmt.Errorf("tpch: Customers must be positive, got %d", cfg.Customers)
	}
	if cfg.PayloadBytes == 0 {
		cfg.PayloadBytes = 100
	}
	g := rng.New(cfg.Seed | 1)
	t := &Tables{
		Customer: query.NewTable("CUSTOMER", cfg.Nodes, cfg.PayloadBytes),
		Orders:   query.NewTable("ORDERS", cfg.Nodes, cfg.PayloadBytes),
		Lineitem: query.NewTable("LINEITEM", cfg.Nodes, cfg.PayloadBytes),
	}
	for ck := int64(1); ck <= cfg.Customers; ck++ {
		node := g.Intn(cfg.Nodes)
		t.Customer.Frags[node] = append(t.Customer.Frags[node], query.Row{Key: ck, Value: 0})
	}
	orderKey := int64(0)
	for ck := int64(1); ck <= cfg.Customers; ck++ {
		for o := 0; o < 10; o++ {
			orderKey++
			node := g.Intn(cfg.Nodes)
			t.Orders.Frags[node] = append(t.Orders.Frags[node], query.Row{Key: ck, Value: orderKey})
			items := 1 + g.Intn(7) // TPC-H: 1..7 lineitems per order
			for li := 0; li < items; li++ {
				price := int64(1 + g.Intn(10_000)) // < Radix
				lnode := g.Intn(cfg.Nodes)
				t.Lineitem.Frags[lnode] = append(t.Lineitem.Frags[lnode], query.Row{Key: orderKey, Value: price})
			}
		}
	}
	return t, nil
}

// NewExecutor wires the generated tables into a query executor.
func (t *Tables) NewExecutor(cfg query.Config) (*query.Executor, error) {
	return query.NewExecutor(cfg, t.Customer, t.Orders, t.Lineitem)
}

// RevenuePerCustomer is the three-table chain join aggregated by customer:
//
//	SELECT o.custkey, SUM(l.price)
//	FROM ORDERS o JOIN LINEITEM l ON o.orderkey = l.orderkey
//	GROUP BY o.custkey
//
// (CUSTOMER is keyless here — every order has its customer — so the chain
// starts at ORDERS; see RevenuePerNation for the customer-side join.)
// Encoding: after re-keying ORDERS by orderkey with value custkey×Radix,
// the join with LINEITEM adds the price into the low bits; a final map
// decodes (custkey, price) and the aggregate sums per customer.
func RevenuePerCustomer() query.Node {
	ordersByOrder := &query.MapOp{
		Input: &query.Scan{Table: "ORDERS"},
		F: func(r query.Row) query.Row {
			return query.Row{Key: r.Value, Value: r.Key * Radix} // (orderkey, custkey<<20)
		},
	}
	joined := &query.JoinOp{Left: ordersByOrder, Right: &query.Scan{Table: "LINEITEM"}}
	decoded := &query.MapOp{
		Input: joined,
		F: func(r query.Row) query.Row {
			return query.Row{Key: r.Value / Radix, Value: r.Value % Radix} // (custkey, price)
		},
	}
	return &query.AggOp{Input: decoded, Partial: true}
}

// RevenuePerNation rolls customer revenue up to nations
// (nationkey = custkey mod Nations) and additionally verifies each paying
// customer exists by joining CUSTOMER back in.
func RevenuePerNation() query.Node {
	perCustomer := RevenuePerCustomer() // (custkey, revenue)
	// Join with CUSTOMER (value 0) keeps revenue intact and drops any
	// revenue rows without a customer (none, but the join is the point).
	withCustomer := &query.JoinOp{Left: &query.Scan{Table: "CUSTOMER"}, Right: perCustomer}
	byNation := &query.MapOp{
		Input: withCustomer,
		F: func(r query.Row) query.Row {
			return query.Row{Key: r.Key % Nations, Value: r.Value}
		},
	}
	return &query.AggOp{Input: byNation, Partial: true}
}

// OrdersPerCustomer counts orders per customer:
//
//	SELECT custkey, COUNT(*) FROM ORDERS GROUP BY custkey
func OrdersPerCustomer() query.Node {
	ones := &query.MapOp{
		Input: &query.Scan{Table: "ORDERS"},
		F:     func(r query.Row) query.Row { return query.Row{Key: r.Key, Value: 1} },
	}
	return &query.AggOp{Input: ones, Partial: true}
}

// DistinctNations lists the nations that have at least one customer:
//
//	SELECT DISTINCT custkey % 25 FROM CUSTOMER
func DistinctNations() query.Node {
	return &query.DistinctOp{Input: &query.MapOp{
		Input: &query.Scan{Table: "CUSTOMER"},
		F:     func(r query.Row) query.Row { return query.Row{Key: r.Key % Nations, Value: 0} },
	}}
}

// Reference evaluates a plan single-node over the generated tables.
func (t *Tables) Reference(plan query.Node) ([]query.Row, error) {
	return query.Reference(plan, map[string][]query.Row{
		"CUSTOMER": t.Customer.Gather(),
		"ORDERS":   t.Orders.Gather(),
		"LINEITEM": t.Lineitem.Gather(),
	})
}
