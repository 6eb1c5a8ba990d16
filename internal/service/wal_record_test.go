package service

// appendRecord writes its chunk rows by hand; the WAL line must stay the one
// two json.Marshal calls wrote, byte for byte, so journals written before and
// after replay alike.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"testing"

	"ccf/internal/workload"
)

// appendRecordTwoMarshal is appendRecord as it was before the rows were
// written by hand: the spec marshalled, then the envelope marshalled around
// it as a json.RawMessage, which Marshal compacts once more.
func appendRecordTwoMarshal(buf []byte, seq uint64, spec *JobSpec) ([]byte, error) {
	job, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	rec := walRecord{Seq: seq, CRC: crc32.ChecksumIEEE(job), Job: job}
	line, err := json.Marshal(&rec)
	if err != nil {
		return nil, err
	}
	buf = append(buf, line...)
	return append(buf, '\n'), nil
}

// randomRecordSpec draws a spec from the corners of the record format: names
// and keys that JSON escapes (HTML characters, U+2028, invalid UTF-8),
// arrivals with and without exponents, every placer, both flags, generator
// configs, and chunk matrices with nil, empty and extreme rows — or both a
// generator and chunks, or neither, which validate refuses but the encoder
// must still write as Marshal does.
func randomRecordSpec(rng *rand.Rand) JobSpec {
	names := []string{"", "job-1", "<script>&amp;</script>", "a\u2028b\u2029c", "é\xff\"\\\n\t", "s0-j00042"}
	arrivals := []float64{0, 1e-7, 0.1, 1234.000001, 1e20, 1e21, 3.5e300, math.SmallestNonzeroFloat64}
	placers := []string{"", "ccf", "hash", "mini"}
	spec := JobSpec{
		Name:          names[rng.Intn(len(names))],
		Key:           names[rng.Intn(len(names))],
		Placer:        placers[rng.Intn(len(placers))],
		HandleSkew:    rng.Intn(2) == 0,
		PlacementOnly: rng.Intn(2) == 0,
	}
	if rng.Intn(4) != 0 {
		a := arrivals[rng.Intn(len(arrivals))]
		if rng.Intn(2) == 0 {
			a = rng.Float64() * 1e4 // a lifted arrival: some shard clock
		}
		spec.Arrival = &a
	}
	form := rng.Intn(8)
	if form < 3 || form == 7 {
		spec.Gen = &workload.Config{
			Nodes: 1 + rng.Intn(64), Partitions: rng.Intn(1000), CustomerTuples: rng.Int63n(1e6),
			OrderTuples: rng.Int63n(1e7), PayloadBytes: rng.Int63n(2000), Zipf: rng.Float64(),
			Skew: rng.Float64(), Seed: rng.Uint64(), JitterFrac: rng.Float64(), ShuffleRanks: rng.Intn(2) == 0,
		}
	}
	if form >= 3 && form != 6 {
		cells := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1e6}
		rows := make(ChunkRows, rng.Intn(6))
		if form == 5 && rng.Intn(2) == 0 {
			rows = ChunkRows{} // omitted, like nil
		}
		for i := range rows {
			switch rng.Intn(6) {
			case 0: // nil: null
			case 1:
				rows[i] = []int64{}
			default:
				rows[i] = make([]int64, 1+rng.Intn(9))
				for k := range rows[i] {
					if rng.Intn(3) == 0 {
						rows[i][k] = cells[rng.Intn(len(cells))]
					} else {
						rows[i][k] = 1e6 + rng.Int63n(64e6)
					}
				}
			}
		}
		spec.Chunks = rows
	}
	return spec
}

// TestAppendRecordMatchesTwoMarshal requires appendRecord's lines to equal
// the two-Marshal oracle's, record by record and appended after one another
// into one buffer (so the head is slid in front of a job that does not start
// at the buffer's beginning, and across reallocations).
func TestAppendRecordMatchesTwoMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var got, want []byte
	for i := 0; i < 4000; i++ {
		spec := randomRecordSpec(rng)
		seq := uint64(i) + 1
		if i%97 == 0 {
			seq = math.MaxUint64 - uint64(i)
		}
		line, err := appendRecord(nil, seq, &spec)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := appendRecordTwoMarshal(nil, seq, &spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, oracle) {
			t.Fatalf("record %d:\n got %s\nwant %s", i, line, oracle)
		}
		if got, err = appendRecord(got, seq, &spec); err != nil {
			t.Fatal(err)
		}
		want = append(want, oracle...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("records appended into one buffer differ from the oracle's")
	}

	// A spec Marshal refuses is refused, as before.
	nan := math.NaN()
	if _, err := appendRecord(nil, 1, &JobSpec{Name: "x", Arrival: &nan}); err == nil {
		t.Fatal("NaN arrival: appendRecord wrote a record")
	}
}

// TestTwoMarshalWALRestores writes each shard's journal of a live run again
// with the two-Marshal oracle: the live journal must be those very bytes, and
// a daemon restarted on the oracle's journal must reach the live run's
// StateDigest on every shard.
func TestTwoMarshalWALRestores(t *testing.T) {
	jobs := detJobs(51, 4)
	for i := range jobs {
		if i%6 == 1 {
			jobs[i].Name = fmt.Sprintf("<job & %d>\u2028", i)
		}
	}
	live := t.TempDir()
	cfg := detConfig(live)
	cfg.SnapshotEvery = -1 // keep every record in the WAL
	p := startPool(t, cfg)
	runStream(t, p, jobs)
	want := poolStates(t, p)
	p.Kill() // no final snapshot: restart replays the whole journal

	restored := t.TempDir()
	records := 0
	for s := 0; s < cfg.Shards; s++ {
		journal, err := os.ReadFile(walPath(live, s))
		if err != nil {
			t.Fatal(err)
		}
		var oracle []byte
		if _, _, err := replayWAL(walPath(live, s), 0, func(seq uint64, spec *JobSpec) error {
			records++
			oracle, err = appendRecordTwoMarshal(oracle, seq, spec)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(journal, oracle) {
			t.Fatalf("shard %d: live journal differs from the two-Marshal encoding of its records", s)
		}
		if err := os.WriteFile(walPath(restored, s), oracle, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if records != len(jobs) {
		t.Fatalf("journals hold %d records, %d jobs were admitted", records, len(jobs))
	}

	cfg.Dir = restored
	p2 := startPool(t, cfg)
	got := poolStates(t, p2)
	if err := p2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if got[s] != want[s] {
			t.Errorf("shard %d: restored from the oracle's journal %+v, live %+v", s, got[s], want[s])
		}
	}
}
