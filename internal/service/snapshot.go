package service

// Crash-safe persistence: a per-shard write-ahead log of admitted jobs plus
// periodic snapshots that replace the log prefix with an image of the
// engine's state.
//
// Snapshot file layout (binary frame around a binary payload):
//
//	offset  size  field
//	0       7     magic "CCFSNAP"
//	7       1     version (0x03)
//	8       8     payload length, big-endian
//	16      n     payload
//	16+n    4     CRC-32 (IEEE) of the payload, big-endian
//
// Payload, big-endian: u32 shard, u32 nodes, u64 seq, u64 engine state
// digest, u64 bandwidth bits, u8 co-optimize, u8 scheduler-name length and
// the name, then the engine's state image to the end of the payload
// (core.OnlineEngine.AppendImage: engine clock, job count, and the session
// image documented in netsim/image.go). The image holds the coflows in
// flight plus a 32-byte tombstone per finished job, so a snapshot is written
// and restored in time proportional to live work; restore loads it, checks
// the job count and the recorded digest, and replays only the WAL suffix.
// Version 1 files (a JSON history of every job spec, restored by replaying
// all of them) and version 2 files (an image that also carried per-coflow
// weights) are refused with ErrSnapshotVersion.
//
// Writes are atomic: temp file in the same directory, fsync, rename — and,
// when the WAL is synchronous, an fsync of the directory so the rename is on
// disk before the WAL it supersedes is cut. The decoder rejects truncation,
// trailing garbage, checksum mismatches and unknown versions with typed
// errors — never a panic, never a partial load (FuzzSnapshotRestore pins
// this). A crash mid-write leaves a shard-NNN.snap.tmp-* file; restore
// sweeps them.
//
// WAL layout: one JSON object per line, {"seq":N,"crc":C,"job":{...}} with
// the CRC taken over the raw job bytes. A torn final line (the crash wrote
// half a record) is discarded — the client never saw that job's decision,
// because the decision is only sent after the append returns — but
// corruption anywhere before the tail is an error: the log can no longer
// prove what the dead daemon decided.
//
// Recovery ordering: the snapshot rename is the commit point of compaction,
// and the WAL is truncated only after it (and, with a synchronous WAL, only
// after the directory entry is durable: otherwise a power loss could keep
// the truncate and lose the rename). A crash between the two leaves WAL
// entries with seq <= Snapshot.Seq, which replay skips; a crash during the
// snapshot write leaves the previous snapshot plus the full WAL. Both paths
// rebuild the same engine.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"ccf/internal/core"
	"ccf/internal/netsim"
)

// Typed snapshot decode failures, matchable with errors.Is.
var (
	// ErrSnapshotFormat covers structural damage: bad magic, truncation,
	// trailing bytes, undecodable payload.
	ErrSnapshotFormat = errors.New("service: snapshot malformed")
	// ErrSnapshotVersion reports a header from a different format version.
	ErrSnapshotVersion = errors.New("service: snapshot version unsupported")
	// ErrSnapshotChecksum reports payload corruption under an intact header.
	ErrSnapshotChecksum = errors.New("service: snapshot checksum mismatch")
	// ErrSnapshotMismatch reports a well-formed snapshot that belongs to a
	// different daemon configuration (shard, fabric size, engine identity).
	ErrSnapshotMismatch = errors.New("service: snapshot does not match configuration")
	// ErrWALCorrupt reports damage before the final WAL record.
	ErrWALCorrupt = errors.New("service: write-ahead log corrupt")
)

const (
	snapMagic   = "CCFSNAP"
	snapVersion = 0x03
	// snapMaxPayload bounds the decoded payload (a length-prefix of a
	// corrupted header must not drive a giant allocation).
	snapMaxPayload = 1 << 30
)

// EngineConfig pins the engine identity a snapshot belongs to: replaying a
// WAL into a differently-scheduled engine would silently produce different
// decisions, so restore refuses mismatches.
type EngineConfig struct {
	// Bandwidth is the per-port bandwidth in bytes/sec (0 = simulator
	// default).
	Bandwidth float64 `json:"bandwidth"`
	// CoOptimize feeds arrivals the in-flight backlog (the paper's mode).
	CoOptimize bool `json:"co_optimize"`
	// NetworkScheduler names the coflow scheduler ("" = varys).
	NetworkScheduler string `json:"network_scheduler"`
}

// options resolves the pinned identity into engine options.
func (c EngineConfig) options() (core.OnlineOptions, error) {
	sched, err := networkScheduler(c.NetworkScheduler)
	if err != nil {
		return core.OnlineOptions{}, err
	}
	return core.OnlineOptions{
		Bandwidth:        c.Bandwidth,
		CoOptimize:       c.CoOptimize,
		NetworkScheduler: sched,
	}, nil
}

// newEngine constructs a fresh shard engine from the pinned identity.
func (c EngineConfig) newEngine(nodes int) (*core.OnlineEngine, error) {
	opts, err := c.options()
	if err != nil {
		return nil, err
	}
	return core.NewOnlineEngine(nodes, opts)
}

// Snapshot is one shard's durable state: the engine identity, how many jobs
// were admitted, an image of the engine after the last of them and the
// digest of that engine's state. Restore loads the image, verifies the
// digest, then replays the WAL suffix (seq > Seq).
type Snapshot struct {
	Shard  int
	Nodes  int
	Engine EngineConfig
	Seq    uint64
	Digest uint64
	Image  []byte
}

// snapHeaderBytes is the fixed part of the payload, before the scheduler
// name: shard, nodes, seq, digest, bandwidth, co-optimize, name length.
const snapHeaderBytes = 4 + 4 + 8 + 8 + 8 + 1 + 1

// EncodeSnapshot serialises a snapshot into the versioned, checksummed file
// format.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	name := s.Engine.NetworkScheduler
	if uint64(s.Shard) > math.MaxUint32 || s.Nodes <= 0 || uint64(s.Nodes) > math.MaxUint32 || len(name) > math.MaxUint8 {
		return nil, fmt.Errorf("service: snapshot of shard %d, %d nodes, scheduler %q does not fit the format", s.Shard, s.Nodes, name)
	}
	n := snapHeaderBytes + len(name) + len(s.Image)
	be := binary.BigEndian
	buf := make([]byte, 0, 16+n+4)
	buf = append(buf, snapMagic...)
	buf = append(buf, snapVersion)
	buf = be.AppendUint64(buf, uint64(n))
	buf = be.AppendUint32(buf, uint32(s.Shard))
	buf = be.AppendUint32(buf, uint32(s.Nodes))
	buf = be.AppendUint64(buf, s.Seq)
	buf = be.AppendUint64(buf, s.Digest)
	buf = be.AppendUint64(buf, math.Float64bits(s.Engine.Bandwidth))
	if s.Engine.CoOptimize {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = append(buf, byte(len(name)))
	buf = append(buf, name...)
	buf = append(buf, s.Image...)
	return be.AppendUint32(buf, crc32.ChecksumIEEE(buf[16:])), nil
}

// DecodeSnapshot parses and verifies a snapshot file image. Every failure
// is a typed error; no partially-decoded state ever escapes. The returned
// Image aliases b.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < 16+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed header", ErrSnapshotFormat, len(b))
	}
	if string(b[:7]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotFormat, b[:7])
	}
	if b[7] != snapVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrSnapshotVersion, b[7], snapVersion)
	}
	be := binary.BigEndian
	n := be.Uint64(b[8:16])
	if n > snapMaxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrSnapshotFormat, n)
	}
	if uint64(len(b)) != 16+n+4 {
		return nil, fmt.Errorf("%w: %d bytes for a %d-byte payload (truncated or trailing garbage)",
			ErrSnapshotFormat, len(b), n)
	}
	payload := b[16 : 16+n]
	want := be.Uint32(b[16+n:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: crc %08x, header says %08x", ErrSnapshotChecksum, got, want)
	}
	if len(payload) < snapHeaderBytes {
		return nil, fmt.Errorf("%w: %d-byte payload is shorter than its header", ErrSnapshotFormat, len(payload))
	}
	s := &Snapshot{
		Shard:  int(be.Uint32(payload)),
		Nodes:  int(be.Uint32(payload[4:])),
		Seq:    be.Uint64(payload[8:]),
		Digest: be.Uint64(payload[16:]),
		Engine: EngineConfig{Bandwidth: math.Float64frombits(be.Uint64(payload[24:])), CoOptimize: payload[32] == 1},
	}
	nameLen := int(payload[33])
	if s.Nodes <= 0 || payload[32] > 1 || len(payload) < snapHeaderBytes+nameLen {
		return nil, fmt.Errorf("%w: inconsistent payload (nodes=%d co-optimize=%d scheduler name %d bytes of %d left)",
			ErrSnapshotFormat, s.Nodes, payload[32], nameLen, len(payload)-snapHeaderBytes)
	}
	s.Engine.NetworkScheduler = string(payload[snapHeaderBytes : snapHeaderBytes+nameLen])
	s.Image = payload[snapHeaderBytes+nameLen:]
	return s, nil
}

// restoreEngine rebuilds the engine the snapshot images, for a shard of the
// given identity, and proves it is the one that was imaged: it has admitted
// Seq jobs and digests as recorded. A snapshot of another identity is
// refused before anything is sized from its fields.
func (s *Snapshot) restoreEngine(shard, nodes int, engine EngineConfig) (*core.OnlineEngine, error) {
	if s.Shard != shard || s.Nodes != nodes || s.Engine != engine {
		return nil, fmt.Errorf("%w: shard %d: snapshot is for shard=%d nodes=%d engine=%+v",
			ErrSnapshotMismatch, shard, s.Shard, s.Nodes, s.Engine)
	}
	opts, err := engine.options()
	if err != nil {
		return nil, err
	}
	eng, err := core.RestoreOnlineEngine(s.Nodes, opts, s.Image)
	if errors.Is(err, netsim.ErrImage) {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	if err != nil {
		return nil, err
	}
	if uint64(eng.JobCount()) != s.Seq {
		return nil, fmt.Errorf("%w: image holds %d jobs, snapshot is at seq %d", ErrSnapshotFormat, eng.JobCount(), s.Seq)
	}
	if got := eng.StateDigest(); got != s.Digest {
		return nil, fmt.Errorf("%w: restored digest %016x, snapshot recorded %016x", ErrSnapshotMismatch, got, s.Digest)
	}
	return eng, nil
}

// snapshotPath / walPath name a shard's files inside the state directory.
func snapshotPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.snap", shard))
}

func walPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", shard))
}

// writeSnapshotFile writes atomically: temp file in the same directory,
// fsync, rename over the target. With syncDir the directory is fsynced too,
// so the rename itself survives a power loss.
func writeSnapshotFile(path string, s *Snapshot, syncDir bool) error {
	b, err := EncodeSnapshot(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+snapTempInfix)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil || !syncDir {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// snapTempInfix separates a snapshot's name from the random suffix of its
// in-progress temp files.
const snapTempInfix = ".tmp-"

// sweepSnapshotTemps removes the temp files of snapshot writes a crash
// interrupted; nothing ever reads them.
func sweepSnapshotTemps(path string) error {
	stale, err := filepath.Glob(path + snapTempInfix + "*")
	if err != nil {
		return err
	}
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	return nil
}

// readSnapshotFile loads and verifies a snapshot; a missing file returns
// (nil, nil) — a fresh shard.
func readSnapshotFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(b)
}

// walRecord is one WAL line.
type walRecord struct {
	Seq uint64          `json:"seq"`
	CRC uint32          `json:"crc"`
	Job json.RawMessage `json:"job"`
}

// walWriter appends admitted-job records; not safe for concurrent use (each
// shard goroutine owns its writer).
type walWriter struct {
	f    *os.File
	sync bool
	buf  []byte // reusable group-commit buffer

	// syncErr, when non-nil, replaces the fsync call — the fault-injection
	// seam the group-commit failure-mode tests use to make the fsync of a
	// full batch fail without touching the filesystem.
	syncErr func() error
}

func openWAL(path string, sync bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &walWriter{f: f, sync: sync}, nil
}

// appendRecord marshals one WAL line into buf.
func appendRecord(buf []byte, seq uint64, spec *JobSpec) ([]byte, error) {
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

// AppendBatch group-commits a batch under firstSeq, firstSeq+1, …: every
// record is marshalled into one buffer, written with a single Write, and
// covered by a single fsync when the journal is synchronous. Records are one
// line each, so replay is oblivious to batching; a torn tail of the group
// (the crash cut the write short) replays its intact prefix, and none of
// those decisions were acknowledged — replies are only sent after
// AppendBatch returns, batch-wide, so "acknowledged" implies "journaled".
func (w *walWriter) AppendBatch(firstSeq uint64, specs []JobSpec) error {
	if len(specs) == 0 {
		return nil
	}
	buf := w.buf[:0]
	for i := range specs {
		var err error
		if buf, err = appendRecord(buf, firstSeq+uint64(i), &specs[i]); err != nil {
			return err
		}
	}
	w.buf = buf
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	if w.sync {
		if w.syncErr != nil {
			return w.syncErr()
		}
		return w.f.Sync()
	}
	return nil
}

// Truncate discards the journal after a snapshot committed (snapshot rename
// happens first; see the recovery-ordering note above).
func (w *walWriter) Truncate() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	_, err := w.f.Seek(0, 0)
	return err
}

func (w *walWriter) Close() error { return w.f.Close() }

// replayWAL streams every intact record with seq > afterSeq to fn, in file
// order. A torn final record — the crash interrupted the append, so no
// client ever saw its decision — is tolerated and reported; any damage
// before the tail is ErrWALCorrupt. Sequence numbers must be contiguous
// above afterSeq: a gap means a lost record, corruption rather than tearing.
func replayWAL(path string, afterSeq uint64, fn func(seq uint64, spec *JobSpec) error) (replayed int, torn bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	lineNo := 0
	lastSeq := afterSeq
	// tail reports whether the damaged line just read is the file's last;
	// only then is the damage a torn append rather than corruption.
	tail := func() bool { return !sc.Scan() }
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if tail() {
				return replayed, true, nil
			}
			return replayed, false, fmt.Errorf("%w: line %d: %v", ErrWALCorrupt, lineNo, err)
		}
		if crc32.ChecksumIEEE(rec.Job) != rec.CRC {
			if tail() {
				return replayed, true, nil
			}
			return replayed, false, fmt.Errorf("%w: line %d: crc mismatch", ErrWALCorrupt, lineNo)
		}
		if rec.Seq <= afterSeq {
			continue // compacted into the snapshot already
		}
		if rec.Seq != lastSeq+1 {
			return replayed, false, fmt.Errorf("%w: line %d: seq %d after %d (lost record)",
				ErrWALCorrupt, lineNo, rec.Seq, lastSeq)
		}
		var spec JobSpec
		if err := json.Unmarshal(rec.Job, &spec); err != nil || spec.Arrival == nil {
			if err == nil {
				err = errors.New("record has no resolved arrival")
			}
			return replayed, false, fmt.Errorf("%w: line %d: job: %v", ErrWALCorrupt, lineNo, err)
		}
		lastSeq = rec.Seq
		if err := fn(rec.Seq, &spec); err != nil {
			return replayed, false, err
		}
		replayed++
	}
	if err := sc.Err(); err != nil {
		return replayed, false, fmt.Errorf("%w: %v", ErrWALCorrupt, err)
	}
	return replayed, false, nil
}
