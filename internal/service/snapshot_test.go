package service

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"ccf/internal/workload"
)

// testSnapshot images a real engine that has decided three jobs: one long
// gone (a tombstone in the image), one in flight, one still queued behind
// the session clock.
func testSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	cfg := EngineConfig{CoOptimize: true, NetworkScheduler: "varys"}
	eng, err := cfg.newEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []float64{0, 100, 100.25}
	for i, a := range arrivals {
		spec := &JobSpec{Name: string(rune('a' + i)), Arrival: &arrivals[i], PlacementOnly: i == 2, Gen: &workload.Config{
			Nodes:          4,
			CustomerTuples: 50,
			OrderTuples:    500,
			PayloadBytes:   1000,
			Zipf:           0.8,
			Seed:           uint64(7 + i),
		}}
		job, err := materialize(spec, 4, new(workload.Generator))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Submit(job); err != nil {
			t.Fatalf("submit at %g: %v", a, err)
		}
	}
	img, err := eng.AppendImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{Shard: 2, Nodes: 4, Engine: cfg, Seq: 3, Digest: eng.StateDigest(), Image: img}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := testSnapshot(t)
	b, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Shard != s.Shard || got.Nodes != s.Nodes || got.Seq != s.Seq ||
		got.Digest != s.Digest || got.Engine != s.Engine || !bytes.Equal(got.Image, s.Image) {
		t.Fatalf("roundtrip mismatch: got %+v want %+v", got, s)
	}
	eng, err := got.restoreEngine(2, 4, s.Engine)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if eng.JobCount() != 3 || eng.Clock() != 100.25 || eng.StateDigest() != s.Digest {
		t.Fatalf("restored engine: jobs=%d clock=%g digest=%016x, want 3 / 100.25 / %016x",
			eng.JobCount(), eng.Clock(), eng.StateDigest(), s.Digest)
	}
}

func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	s := testSnapshot(t)
	good, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrSnapshotFormat},
		{"header only", func(b []byte) []byte { return b[:16] }, ErrSnapshotFormat},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-10] }, ErrSnapshotFormat},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xAA) }, ErrSnapshotFormat},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrSnapshotFormat},
		{"future version", func(b []byte) []byte { b[7] = 0x7F; return b }, ErrSnapshotVersion},
		// The spec-history format: refused, not migrated.
		{"version 1", func(b []byte) []byte { b[7] = 0x01; return b }, ErrSnapshotVersion},
		{"flipped payload byte", func(b []byte) []byte { b[20] ^= 0x40; return b }, ErrSnapshotChecksum},
		{"flipped crc byte", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrSnapshotChecksum},
		{"huge length header", func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[8:16], 1<<40)
			return b
		}, ErrSnapshotFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			got, err := DecodeSnapshot(b)
			if got != nil {
				t.Fatalf("damaged snapshot decoded to %+v", got)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want errors.Is(…, %v)", err, tc.want)
			}
		})
	}
}

// snapshotV2 is a version-2 file as that encoder wrote it: shard 0 of a
// 2-node varys engine, one job admitted and still queued. Its engine image
// has the weight section (W = 0) and resident records of seven words before
// the name — rank, slot, id, arrival, a reserved 0, weight 0, sent bytes.
const snapshotV2 = "434346534e41500200000000000000f200000000000000020000000000000001" +
	"8087d14627a00993000000000000000001057661727973000000000000000000" +
	"0000000000000100000000000000000000000000000000000000000000000000" +
	"0000000000000000000000000000000000000000000000000000000000000100" +
	"0000000000000000000000000000000000000000000000000000000000000000" +
	"0000000000000000000000000000000000000000000000000000000000000000" +
	"000000000000016100000000000000020000000000000001403e000000000000" +
	"403e000000000000000000000100000000403e000000000000403e0000000000" +
	"0000f243598d"

// TestSnapshotVersion2Refused: a version-2 file with an intact checksum is
// refused as a version mismatch, not decoded under the current layout.
func TestSnapshotVersion2Refused(t *testing.T) {
	b, err := hex.DecodeString(snapshotV2)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(b) - 4; crc32.ChecksumIEEE(b[16:n]) != binary.BigEndian.Uint32(b[n:]) || b[7] != 2 {
		t.Fatal("fixture is not an intact version-2 frame")
	}
	if s, err := DecodeSnapshot(b); s != nil || !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("got %+v, %v; want ErrSnapshotVersion", s, err)
	}
}

// reframe wraps a payload in a valid frame, so damage inside it gets past
// the checksum to the decoders behind it.
func reframe(payload []byte) []byte {
	b := append([]byte(snapMagic), snapVersion)
	b = binary.BigEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

func TestSnapshotDecodeRejectsInconsistentPayload(t *testing.T) {
	good, err := EncodeSnapshot(testSnapshot(t))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	payload := func() []byte { return append([]byte(nil), good[16:len(good)-4]...) }

	// Header-level inconsistencies fail in DecodeSnapshot.
	header := map[string]func(p []byte) []byte{
		"short payload":       func(p []byte) []byte { return p[:snapHeaderBytes-1] },
		"zero nodes":          func(p []byte) []byte { binary.BigEndian.PutUint32(p[4:], 0); return p },
		"co-optimize flag 7":  func(p []byte) []byte { p[32] = 7; return p },
		"scheduler name long": func(p []byte) []byte { return append(p[:33], 200) },
	}
	for name, mutate := range header {
		if s, err := DecodeSnapshot(reframe(mutate(payload()))); s != nil || !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("%s: got %+v, %v; want ErrSnapshotFormat", name, s, err)
		}
	}

	// Image-level ones decode and fail the restore, typed.
	image := map[string]struct {
		mutate func(s *Snapshot)
		want   error
	}{
		"seq beyond the image's jobs": {func(s *Snapshot) { s.Seq = 5 }, ErrSnapshotFormat},
		"image cut short":             {func(s *Snapshot) { s.Image = s.Image[:len(s.Image)-9] }, ErrSnapshotFormat},
		"image with a tail":           {func(s *Snapshot) { s.Image = append(s.Image[:len(s.Image):len(s.Image)], 0) }, ErrSnapshotFormat},
		"image without engine header": {func(s *Snapshot) { s.Image = s.Image[:5] }, ErrSnapshotFormat},
		"another state's digest":      {func(s *Snapshot) { s.Digest++ }, ErrSnapshotMismatch},
		"another scheduler's":         {func(s *Snapshot) { s.Engine.NetworkScheduler = "aalo" }, ErrSnapshotMismatch},
		"another fabric's":            {func(s *Snapshot) { s.Nodes = 3 }, ErrSnapshotMismatch},
		"another shard's":             {func(s *Snapshot) { s.Shard = 0 }, ErrSnapshotMismatch},
	}
	for name, tc := range image {
		s, err := DecodeSnapshot(reframe(payload()))
		if err != nil {
			t.Fatal(err)
		}
		want := *s
		tc.mutate(s)
		if eng, err := s.restoreEngine(want.Shard, want.Nodes, want.Engine); eng != nil || !errors.Is(err, tc.want) {
			t.Errorf("%s: got engine %v, error %v; want %v", name, eng != nil, err, tc.want)
		}
	}
}

func TestSnapshotFileAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-000.snap")
	s := testSnapshot(t)
	if err := writeSnapshotFile(path, s, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Overwrite with different state: the rename must replace, and no temp
	// files may linger. The second write also fsyncs the directory.
	s.Seq = 1
	if err := writeSnapshotFile(path, s, true); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	got, err := readSnapshotFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Seq != 1 {
		t.Fatalf("rewrite not visible: seq=%d", got.Seq)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
	// Missing file reads as a fresh shard, not an error.
	if got, err := readSnapshotFile(filepath.Join(dir, "absent.snap")); got != nil || err != nil {
		t.Fatalf("missing snapshot: got %v, %v; want nil, nil", got, err)
	}
}

// walAppendN journals n records with seqs start..start+n-1.
func walAppendN(t *testing.T, path string, start uint64, n int) {
	t.Helper()
	w, err := openWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < n; i++ {
		a := float64(i)
		spec := JobSpec{Name: "j", Arrival: &a, Chunks: [][]int64{{1}, {2}}}
		if err := w.AppendBatch(start+uint64(i), []JobSpec{spec}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func replayAll(t *testing.T, path string, afterSeq uint64) (seqs []uint64, torn bool, err error) {
	t.Helper()
	_, torn, err = replayWAL(path, afterSeq, func(seq uint64, spec *JobSpec) error {
		seqs = append(seqs, seq)
		return nil
	})
	return seqs, torn, err
}

func TestWALReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.wal")
	walAppendN(t, path, 1, 5)

	seqs, torn, err := replayAll(t, path, 0)
	if err != nil || torn {
		t.Fatalf("replay: torn=%v err=%v", torn, err)
	}
	if len(seqs) != 5 || seqs[0] != 1 || seqs[4] != 5 {
		t.Fatalf("replayed seqs %v", seqs)
	}

	// Records at or below afterSeq were compacted into the snapshot; skip.
	seqs, _, err = replayAll(t, path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 4 {
		t.Fatalf("suffix replay seqs %v", seqs)
	}

	// Missing WAL is a fresh shard.
	seqs, torn, err = replayAll(t, filepath.Join(dir, "absent.wal"), 0)
	if len(seqs) != 0 || torn || err != nil {
		t.Fatalf("missing wal: %v %v %v", seqs, torn, err)
	}
}

func TestWALTornTailIsDropped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.wal")
	walAppendN(t, path, 1, 3)
	// Simulate a crash mid-append: half a record at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"crc":123,"job":{"name":"tr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	seqs, torn, err := replayAll(t, path, 0)
	if err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if !torn {
		t.Fatal("torn tail not reported")
	}
	if len(seqs) != 3 {
		t.Fatalf("replayed %v, want the 3 intact records", seqs)
	}
}

func TestWALMidFileCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.wal")
	walAppendN(t, path, 1, 3)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the first record's job payload (not the tail): still valid JSON,
	// but the record CRC no longer matches.
	b = bytes.Replace(b, []byte(`"name":"j"`), []byte(`"name":"x"`), 1)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayAll(t, path, 0); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("mid-file corruption: error = %v, want ErrWALCorrupt", err)
	}
}

func TestWALSequenceGapIsFatal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.wal")
	walAppendN(t, path, 1, 2)
	walAppendN(t, path, 5, 1) // 3 and 4 went missing
	if _, _, err := replayAll(t, path, 0); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("sequence gap: error = %v, want ErrWALCorrupt", err)
	}
}

func TestWALTruncateAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.wal")
	w, err := openWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	a := 0.0
	if err := w.AppendBatch(1, []JobSpec{{Name: "j", Arrival: &a, Chunks: [][]int64{{1}, {2}}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	// New appends land at the start of the emptied file and replay cleanly.
	if err := w.AppendBatch(2, []JobSpec{{Name: "k", Arrival: &a, Chunks: [][]int64{{3}, {4}}}}); err != nil {
		t.Fatal(err)
	}
	seqs, torn, err := replayAll(t, path, 1)
	if err != nil || torn {
		t.Fatalf("replay after truncate: torn=%v err=%v", torn, err)
	}
	if len(seqs) != 1 || seqs[0] != 2 {
		t.Fatalf("seqs after truncate: %v", seqs)
	}
}
