package service

// ChunkRows decodes what a plain [][]int64 decodes, to the same value, and
// refuses what it refuses with the same error — the direct parser only takes
// the bodies it can decode exactly and hands the rest to encoding/json.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ccf/internal/workload"
)

// decodeBody decodes a submission body the way the handler does.
func decodeBody(body []byte) (JobSpec, error) {
	var spec JobSpec
	err := decodeStrict(bytes.NewReader(body), &spec)
	return spec, err
}

// newPlainSpec returns a new JobSpec as it was before ChunkRows, its chunks
// a plain [][]int64. The struct is named JobSpec, so encoding/json's errors
// name the same struct field.
func newPlainSpec() any {
	type JobSpec struct {
		Key           string           `json:"key,omitempty"`
		Name          string           `json:"name"`
		Arrival       *float64         `json:"arrival,omitempty"`
		Placer        string           `json:"placer,omitempty"`
		HandleSkew    bool             `json:"handle_skew,omitempty"`
		PlacementOnly bool             `json:"placement_only,omitempty"`
		Gen           *workload.Config `json:"gen,omitempty"`
		Chunks        [][]int64        `json:"chunks,omitempty"`
	}
	return new(JobSpec)
}

// decodePlain decodes a body the way the handler did before ChunkRows, and
// converts the result field by field.
func decodePlain(body []byte) (spec JobSpec, err error) {
	p := newPlainSpec()
	err = decodeStrict(bytes.NewReader(body), p)
	from, to := reflect.ValueOf(p).Elem(), reflect.ValueOf(&spec).Elem()
	for i := 0; i < to.NumField(); i++ {
		to.Field(i).Set(from.Field(i).Convert(to.Field(i).Type()))
	}
	return spec, err
}

// severalFaults reports whether two differing decode errors are the one
// documented difference: ChunkRows returns a fault in the chunks at once,
// while encoding/json keeps the first fault it saw — here one elsewhere in
// the body (an unknown field or a mistyped value), so the body has two.
func severalFaults(got, want error) bool {
	var te *json.UnmarshalTypeError
	return errors.As(got, &te) && te.Field == "chunks" && !strings.Contains(want.Error(), "JobSpec.chunks")
}

// checkSameDecode decodes body both ways and requires the same outcome.
func checkSameDecode(t *testing.T, body []byte) {
	t.Helper()
	got, gotErr := decodeBody(body)
	want, wantErr := decodePlain(body)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("body %q: ChunkRows err %v, [][]int64 err %v", body, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("body %q: ChunkRows decoded %#v, [][]int64 decoded %#v", body, got.Chunks, want.Chunks)
	case gotErr != nil && gotErr.Error() != wantErr.Error() && !severalFaults(gotErr, wantErr):
		t.Fatalf("body %q: ChunkRows err %q, [][]int64 err %q", body, gotErr, wantErr)
	}
}

// TestDecodePlainMirrorsJobSpec keeps the oracle in step with JobSpec: the
// same fields and tags in the same order, the types the same but for the
// chunks'; and Chunks last, where appendRecord writes it.
func TestDecodePlainMirrorsJobSpec(t *testing.T) {
	spec, plain := reflect.TypeOf(JobSpec{}), reflect.TypeOf(newPlainSpec()).Elem()
	if plain.NumField() != spec.NumField() {
		t.Fatalf("oracle has %d fields, JobSpec %d", plain.NumField(), spec.NumField())
	}
	for i := 0; i < spec.NumField(); i++ {
		f, g := spec.Field(i), plain.Field(i)
		if f.Name != g.Name || f.Tag != g.Tag || f.Type != g.Type && f.Name != "Chunks" {
			t.Errorf("field %d: JobSpec %s %v %q, oracle %s %v %q", i, f.Name, f.Type, f.Tag, g.Name, g.Type, g.Tag)
		}
	}
	if last := spec.Field(spec.NumField() - 1); last.Name != "Chunks" {
		t.Errorf("JobSpec's last field is %s, want Chunks", last.Name)
	}
}

// chunkValues are chunks values at the edges of the direct parser: direct
// says whether it takes them (the rest go to encoding/json), ok whether a
// [][]int64 decodes them at all.
var chunkValues = []struct {
	value      string
	direct, ok bool
	want       [][]int64
}{
	{`[]`, true, true, [][]int64{}},
	{`[[]]`, true, true, [][]int64{{}}},
	{`[[],[1]]`, true, true, [][]int64{{}, {1}}},
	{`null`, false, true, nil},
	{`[null]`, false, true, [][]int64{nil}},
	{`[[1,null]]`, false, true, [][]int64{{1, 0}}},
	{`[[-0]]`, true, true, [][]int64{{0}}},
	{`[[0,-1,10]]`, true, true, [][]int64{{0, -1, 10}}},
	{`[[9223372036854775807]]`, true, true, [][]int64{{9223372036854775807}}},
	{`[[-9223372036854775807]]`, true, true, [][]int64{{-9223372036854775807}}},
	{`[[-9223372036854775808]]`, true, true, [][]int64{{-9223372036854775808}}},
	{`[[9223372036854775808]]`, false, false, nil},
	{`[[-9223372036854775809]]`, false, false, nil},
	{`[[10000000000000000000]]`, false, false, nil},
	{`[[18446744073709551616]]`, false, false, nil}, // 2^64: wraps to 0 in a uint64
	{`[[99999999999999999999]]`, false, false, nil}, // wraps to 7766279631452241919
	{`[[01]]`, false, false, nil},                   // not JSON: a decoder refuses it first
	{`[[1.0]]`, false, false, nil},
	{`[[1e3]]`, false, false, nil},
	{`[[1E3]]`, false, false, nil},
	{`[["1"]]`, false, false, nil},
	{`"1"`, false, false, nil},
	{`1`, false, false, nil},
	{`true`, false, false, nil},
	{`{}`, false, false, nil},
	{`[1]`, false, false, nil},
	{`[[[1]]]`, false, false, nil},
	{`[[1],2]`, false, false, nil},
	{`[{}]`, false, false, nil},
	{" \t\n\r[ \t\n\r[ \t\n\r1 \t\n\r, \t\n\r-2 \t\n\r] \t\n\r, \t\n\r[ \t\n\r] \t\n\r] \t\n\r", true, true, [][]int64{{1, -2}, {}}},
}

// TestChunkRowsEdgeBodies runs every chunkValues entry through the direct
// parser, the handler's decoder and the [][]int64 oracle, then a few whole
// bodies: unknown fields before and after the chunks, a repeated key.
func TestChunkRowsEdgeBodies(t *testing.T) {
	for _, c := range chunkValues {
		if _, _, direct := walkRows([]byte(c.value), nil, nil); direct != c.direct {
			t.Errorf("%q: direct parser takes it = %v, want %v", c.value, direct, c.direct)
		}
		body := []byte(`{"name":"x","chunks":` + c.value + `}`)
		checkSameDecode(t, body)
		spec, err := decodeBody(body)
		if (err == nil) != c.ok {
			t.Errorf("%q: decode error %v, want ok = %v", c.value, err, c.ok)
			continue
		}
		if err == nil && !reflect.DeepEqual([][]int64(spec.Chunks), c.want) {
			t.Errorf("%q: decoded %#v, want %#v", c.value, spec.Chunks, c.want)
		}
		for i, row := range spec.Chunks {
			if c.direct && cap(row) != len(row) {
				t.Errorf("%q: row %d has capacity %d past its %d cells: an append would overwrite the next row",
					c.value, i, cap(row), len(row))
			}
		}
	}
	for _, body := range []string{
		`{"bogus":1,"name":"x","chunks":[[1,2]]}`,
		`{"name":"x","chunks":[[1,2]],"bogus":1}`,
		`{"name":"x","chunks":[[1.5]],"bogus":1}`,
		`{"name":"x","Chunks":[[7]]}`,
		`{"name":"x","chunks":[[1,2],[3,4]],"chunks":[[5,null]]}`,
		`{"name":"x","chunks":[[1,2]],"chunks":null}`,
		`{"name":"x","chunks":[[1,2]]} {}`,
		`{"name":"x","chunks":[[01]]}`,
		`{"name":"x","chunks":[[1,]]}`,
	} {
		checkSameDecode(t, []byte(body))
	}

	// The one difference: with a fault before the chunks and one in them,
	// encoding/json reports the first, ChunkRows the one in the chunks.
	body := []byte(`{"bogus":1,"name":"x","chunks":[[1.5]]}`)
	_, gotErr := decodeBody(body)
	_, wantErr := decodePlain(body)
	const inChunks = "json: cannot unmarshal number 1.5 into Go struct field JobSpec.chunks of type int64"
	if gotErr == nil || gotErr.Error() != inChunks || wantErr == nil || wantErr.Error() != `json: unknown field "bogus"` {
		t.Errorf("two faults: ChunkRows err %v, [][]int64 err %v", gotErr, wantErr)
	}
}

// FuzzChunkRows decodes each body through JobSpec and through the [][]int64
// oracle: the same bodies are accepted, to deeply equal specs (nil and empty
// rows kept apart), and refused with the same error unless the body has a
// fault in the chunks and an earlier one elsewhere.
func FuzzChunkRows(f *testing.F) {
	for _, c := range chunkValues {
		f.Add([]byte(`{"name":"x","chunks":` + c.value + `}`))
	}
	f.Add(edgeBody(f))
	f.Add([]byte(`{"bogus":1,"name":"x","chunks":[[1.5]]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSameDecode(t, body)
	})
}

// edgeBody is a serve_edge job's body: explicit 8 × 8 chunks of 1–65 MB.
func edgeBody(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int64, 8)
	for r := range rows {
		rows[r] = make([]int64, 8)
		for k := range rows[r] {
			rows[r][k] = 1e6 + rng.Int63n(64e6)
		}
	}
	arrival := 1000.0
	body, err := json.Marshal(&JobSpec{Key: "k0", Name: "s0-j00000", Arrival: &arrival, Chunks: rows})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkSubmitBody is the intake of one serve_edge job outside the engine:
// decode its body (an 8 × 8 chunk matrix) as the handler does, then append
// its WAL record.
func BenchmarkSubmitBody(b *testing.B) {
	body := edgeBody(b)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := decodeBody(body)
		if err != nil {
			b.Fatal(err)
		}
		if buf, err = appendRecord(buf[:0], uint64(i)+1, &spec); err != nil {
			b.Fatal(err)
		}
	}
}
