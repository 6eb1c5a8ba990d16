package service

import (
	"encoding/json"
	"math"
	"strconv"
)

// ChunkRows is an explicit chunk matrix as a submission body and a WAL record
// carry it: rows[i][k] = bytes of partition k on node i. It is a [][]int64
// with its own JSON decoder; its encoding is encoding/json's for [][]int64.
//
// UnmarshalJSON parses an array of rows of plain JSON integers straight into
// one backing array, without reflection. Anything else — a null row or cell,
// a fraction, an exponent, an integer outside int64, a string — is handed to
// encoding/json as a plain [][]int64, so every body decodes to the value and
// fails with the error a [][]int64 field gives.
type ChunkRows [][]int64

// UnmarshalJSON implements json.Unmarshaler.
func (c *ChunkRows) UnmarshalJSON(data []byte) error {
	nrows, ncells, ok := walkRows(data, nil, nil)
	if !ok {
		return json.Unmarshal(data, (*[][]int64)(c))
	}
	rows := make(ChunkRows, nrows)
	walkRows(data, rows, make([]int64, ncells))
	*c = rows
	return nil
}

// walkRows walks data as an array of arrays of plain JSON integers, with JSON
// whitespace between any two tokens, and reports false on anything else.
// With rows nil it only counts the rows and cells; otherwise rows has one
// element per row and flat one per cell, and row r becomes a full-capacity
// slice of flat.
func walkRows(data []byte, rows ChunkRows, flat []int64) (nrows, ncells int, ok bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '[' {
		return 0, 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return 0, 0, skipSpace(data, i+1) == len(data)
	}
	for {
		if i == len(data) || data[i] != '[' {
			return 0, 0, false
		}
		start := ncells
		i = skipSpace(data, i+1)
		if i < len(data) && data[i] == ']' {
			i++
		} else {
			for {
				v, next, ok := parseInt(data, i)
				if !ok {
					return 0, 0, false
				}
				if rows != nil {
					flat[ncells] = v
				}
				ncells++
				if i = skipSpace(data, next); i == len(data) {
					return 0, 0, false
				}
				if data[i] == ']' {
					i++
					break
				}
				if data[i] != ',' {
					return 0, 0, false
				}
				i = skipSpace(data, i+1)
			}
		}
		if rows != nil {
			rows[nrows] = flat[start:ncells:ncells]
		}
		nrows++
		if i = skipSpace(data, i); i == len(data) {
			return 0, 0, false
		}
		if data[i] == ']' {
			return nrows, ncells, skipSpace(data, i+1) == len(data)
		}
		if data[i] != ',' {
			return 0, 0, false
		}
		i = skipSpace(data, i+1)
	}
}

// parseInt parses the JSON integer -?(0|[1-9][0-9]*) at data[i:] and returns
// its value and the index past it; false if there is none or it does not fit
// in int64. A fraction or exponent after it is left to the caller, which
// refuses any byte but whitespace, ',' or ']' there.
func parseInt(data []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var mag uint64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		mag = mag*10 + uint64(data[i]-'0')
	}
	// 19 digits cannot overflow mag; a twentieth is out of range anyway.
	if digits := i - start; digits == 0 || digits > 19 || digits > 1 && data[start] == '0' {
		return 0, 0, false
	}
	if neg {
		if mag > -math.MinInt64 {
			return 0, 0, false
		}
		return int64(-mag), i, true
	}
	if mag > math.MaxInt64 {
		return 0, 0, false
	}
	return int64(mag), i, true
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\r' || data[i] == '\t') {
		i++
	}
	return i
}

// appendJSON appends what json.Marshal writes for c as a [][]int64 (c
// non-nil): a nil row is null, an empty one [].
func (c ChunkRows) appendJSON(buf []byte) []byte {
	buf = append(buf, '[')
	for i, row := range c {
		if i > 0 {
			buf = append(buf, ',')
		}
		if row == nil {
			buf = append(buf, "null"...)
			continue
		}
		buf = append(buf, '[')
		for k, v := range row {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
	}
	return append(buf, ']')
}
