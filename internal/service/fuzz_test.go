package service

// FuzzSnapshotRestore pins the robustness half of the crash-safety contract:
// whatever bytes a crash, a bad disk or an attacker leaves in the state
// directory, the restore path — frame, payload header, engine image — reports
// a typed error. It never panics, never sizes an allocation from a count the
// bytes cannot back, and a snapshot that restores must re-encode to one that
// restores to the same state. The same bytes are also offered as a submission
// body: a spec intake accepts must materialize without a panic.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func FuzzSnapshotRestore(f *testing.F) {
	// Seed corpus: one valid image plus every damage class the unit tests
	// cover, so the fuzzer starts at the interesting boundaries.
	base := testSnapshot(f)
	valid, err := EncodeSnapshot(base)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:7])
	f.Add(valid[:17])
	f.Add(append(append([]byte(nil), valid...), 0x00))
	wrongMagic := append([]byte(nil), valid...)
	wrongMagic[0] = 'Z'
	f.Add(wrongMagic)
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[7] = 0xFF
	f.Add(wrongVersion)
	flipped := append([]byte(nil), valid...)
	flipped[20] ^= 0x01
	f.Add(flipped)
	huge := append([]byte(nil), valid...)
	binary.BigEndian.PutUint64(huge[8:16], 1<<62)
	f.Add(huge)
	// The bare payload and the bare engine image: the fuzz body frames them
	// itself, so mutations of these reach the decoders behind the checksum.
	f.Add(valid[16 : len(valid)-4])
	f.Add(base.Image)
	// Submission bodies intake must refuse (TestHTTPBadJobIs400).
	for _, gen := range badGenConfigs {
		body, err := json.Marshal(JobSpec{Name: "x", Gen: &gen})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	typed := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrSnapshotFormat) && !errors.Is(err, ErrSnapshotVersion) &&
			!errors.Is(err, ErrSnapshotChecksum) && !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("%s: untyped error: %v", what, err)
		}
	}
	// restore runs a file image through decode and engine restore.
	restore := func(t *testing.T, what string, file []byte) {
		t.Helper()
		s, err := DecodeSnapshot(file)
		if err != nil {
			if s != nil {
				t.Fatalf("%s: error %v returned alongside a snapshot", what, err)
			}
			typed(t, what, err)
			return
		}
		eng, err := s.restoreEngine(base.Shard, base.Nodes, base.Engine)
		if err != nil {
			typed(t, what, err)
			return
		}
		// Anything that restores must round-trip to the same state.
		img, err := eng.AppendImage(nil)
		if err != nil {
			t.Fatalf("%s: re-image of restored engine: %v", what, err)
		}
		re, err := EncodeSnapshot(&Snapshot{Shard: s.Shard, Nodes: s.Nodes, Engine: s.Engine, Seq: s.Seq, Digest: s.Digest, Image: img})
		if err != nil {
			t.Fatalf("%s: re-encode: %v", what, err)
		}
		s2, err := DecodeSnapshot(re)
		if err != nil {
			t.Fatalf("%s: re-decode: %v", what, err)
		}
		eng2, err := s2.restoreEngine(base.Shard, base.Nodes, base.Engine)
		if err != nil {
			t.Fatalf("%s: re-restore: %v", what, err)
		}
		if eng2.StateDigest() != eng.StateDigest() || eng2.JobCount() != eng.JobCount() {
			t.Fatalf("%s: round-trip drift: digest %016x vs %016x", what, eng2.StateDigest(), eng.StateDigest())
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		restore(t, "file", data)
		restore(t, "payload", reframe(data))
		asImage := *base
		asImage.Image = data
		if file, err := EncodeSnapshot(&asImage); err != nil {
			t.Fatal(err)
		} else {
			restore(t, "image", file)
		}

		// The same bytes interpreted as a WAL must also fail closed: replay
		// returns records, a torn-tail report, or a typed error — no panic.
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, werr := replayWAL(path, 0, func(seq uint64, spec *JobSpec) error { return nil })
		if werr != nil && !errors.Is(werr, ErrWALCorrupt) {
			t.Fatalf("untyped wal error: %v", werr)
		}

		// And as a submission body: whatever intake validation lets through,
		// the shard goroutine must be able to materialize — an ErrBadJob at
		// worst, never a panic or an allocation the body could not have paid
		// for itself.
		var spec JobSpec
		if json.Unmarshal(data, &spec) == nil && spec.validate(base.Nodes) == nil {
			if spec.Arrival == nil {
				spec.Arrival = new(float64)
			}
			if _, err := materialize(&spec, base.Nodes, new(jobStore)); err != nil && !errors.Is(err, ErrBadJob) {
				t.Fatalf("materialize of a validated spec: untyped error: %v", err)
			}
		}
	})
}
