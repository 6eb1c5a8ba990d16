// Package service turns the streaming co-optimizer (core.OnlineEngine) into
// a crash-safe long-lived daemon: a pool of single-goroutine shards, each
// wrapping one engine behind a bounded queue, with admission control,
// graceful degradation under load, and write-ahead logging plus periodic
// atomic snapshots so a killed daemon restarts mid-trace and resumes
// byte-identical decisions.
//
// Robustness model (the "degradation ladder", DESIGN.md §13):
//
//	normal    → full co-optimized decision: advance the live simulation to
//	            the arrival, read the in-flight backlog, place against it.
//	degraded  → queue wait crossed Config.DegradeAfter: the job is placed
//	            against an idle network (the backlog probe — the expensive
//	            step — is skipped) and the response says so. A degraded
//	            answer in 1 ms beats an exact one after the client gave up.
//	shed      → queue full: the submission is rejected immediately with
//	            ErrOverloaded (HTTP 429 + Retry-After); nothing enters the
//	            engine, so the daemon's memory stays bounded by queue depth.
//	deadline  → the request's context expired before its turn: it is
//	            dropped un-admitted with context.DeadlineExceeded, so a
//	            slow simulation step can never wedge a client.
//
// Determinism contract: every admitted job's *effective* record — arrival
// after any lifting, degraded flag after any shedding decision — is appended
// to the shard's write-ahead log before the client sees the decision, and a
// snapshot replaces a prefix of that log with an image of the engine state
// it produced, plus that state's digest. Because the engine is
// deterministic, loading the image and replaying the WAL behind it rebuilds
// bit-identical engine state, which the digest verifies at restore and
// TestKillRestartDeterminism and TestImageRestoreEquivalence pin end to end.
package service

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"ccf/internal/coflow"
	"ccf/internal/core"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/workload"
)

// JobSpec is the wire format of one job submission, and — with Arrival
// resolved and PlacementOnly reflecting the shedding decision actually
// taken — the record format of the write-ahead log. Exactly
// one of Gen or Chunks describes the data to redistribute.
type JobSpec struct {
	// Key routes the job to a shard (hashed); empty means Name.
	Key string `json:"key,omitempty"`
	// Name labels the job in decisions and telemetry.
	Name string `json:"name"`
	// Arrival is the job's arrival time on its shard's simulation clock,
	// in seconds. Omitted (null) means "now": the daemon assigns the
	// shard's current clock. An arrival behind the shard clock — concurrent
	// intake reorders submissions — is lifted to the clock and the decision
	// reports Lifted.
	Arrival *float64 `json:"arrival,omitempty"`
	// Placer selects the placement scheduler: "" or "ccf" (co-optimizing),
	// "hash", "mini".
	Placer string `json:"placer,omitempty"`
	// HandleSkew applies partial duplication before placement (only
	// meaningful for generated workloads, which carry skew metadata).
	HandleSkew bool `json:"handle_skew,omitempty"`
	// PlacementOnly requests the degraded path explicitly: place against an
	// idle network, skip the backlog probe. The daemon also sets this on
	// jobs it sheds under load, and the effective value is journaled.
	PlacementOnly bool `json:"placement_only,omitempty"`
	// Gen generates a synthetic workload server-side (deterministic in the
	// config, so it is journal-friendly: the WAL stores the spec, not the
	// expanded matrix).
	Gen *workload.Config `json:"gen,omitempty"`
	// Chunks is an explicit chunk matrix: Chunks[i][k] = bytes of partition
	// k on node i. len(Chunks) must equal the pool's node count. It is the
	// last field: appendRecord writes it after the rest of the spec.
	Chunks ChunkRows `json:"chunks,omitempty"`
}

// RouteKey returns the shard-routing key (Key, falling back to Name).
func (s *JobSpec) RouteKey() string {
	if s.Key != "" {
		return s.Key
	}
	return s.Name
}

// ErrBadJob wraps every job validation failure (HTTP 400).
var ErrBadJob = errors.New("service: invalid job")

// validate checks a spec against the pool's fabric size and normalises the
// generator config (fills Nodes) so the journaled record is self-contained.
// It runs at intake only: a journaled record is replayed as it was accepted.
func (s *JobSpec) validate(nodes int) error {
	if s.Name == "" {
		return fmt.Errorf("%w: missing name", ErrBadJob)
	}
	if s.Arrival != nil && *s.Arrival < 0 {
		return fmt.Errorf("%w: negative arrival %g", ErrBadJob, *s.Arrival)
	}
	if (s.Gen == nil) == (s.Chunks == nil) {
		return fmt.Errorf("%w: exactly one of gen/chunks required", ErrBadJob)
	}
	if _, err := jobPlacer(s.Placer); err != nil {
		return err
	}
	if s.Gen != nil {
		if s.Gen.Nodes == 0 {
			s.Gen.Nodes = nodes
		}
		if s.Gen.Nodes != nodes {
			return fmt.Errorf("%w: gen spans %d nodes, pool spans %d", ErrBadJob, s.Gen.Nodes, nodes)
		}
		if err := s.Gen.Validate(); err != nil {
			return fmt.Errorf("%w: gen: %v", ErrBadJob, err)
		}
		// A generated matrix may be no larger than one a client could have
		// sent as chunks: a cell costs at least two body bytes ("0,").
		p := s.Gen.Partitions
		if p == 0 {
			p = workload.DefaultPartitionMultiplier * nodes
		}
		if p > maxJobBody/2/nodes {
			return fmt.Errorf("%w: gen asks for %d×%d chunks, more than the %d a request body can carry",
				ErrBadJob, nodes, p, maxJobBody/2)
		}
		return nil
	}
	if len(s.Chunks) != nodes {
		return fmt.Errorf("%w: chunk matrix has %d rows, pool spans %d nodes", ErrBadJob, len(s.Chunks), nodes)
	}
	p := len(s.Chunks[0])
	if p == 0 {
		return fmt.Errorf("%w: chunk matrix has no partitions", ErrBadJob)
	}
	for i, row := range s.Chunks {
		if len(row) != p {
			return fmt.Errorf("%w: chunk row %d has %d partitions, row 0 has %d", ErrBadJob, i, len(row), p)
		}
		for k, v := range row {
			if v < 0 {
				return fmt.Errorf("%w: negative chunk (%d,%d) = %d", ErrBadJob, i, k, v)
			}
		}
	}
	return nil
}

// The daemon's subsets of the placer and coflow-scheduler tables. Only
// deterministic placers are admitted — the WAL replays them.
var (
	jobPlacers        = []string{"ccf", "hash", "mini"}
	networkSchedulers = []string{"varys", "aalo", "fifo", "scf", "ncf"}
)

// jobPlacer resolves a job's placer ("" is ccf) through the placer table.
func jobPlacer(name string) (placement.Scheduler, error) {
	name = cmp.Or(name, "ccf")
	if !slices.Contains(jobPlacers, name) {
		return nil, fmt.Errorf("%w: unknown placer %q (want ccf, hash or mini)", ErrBadJob, name)
	}
	p, err := placement.ByName(name)
	return p.Scheduler, err
}

// networkScheduler resolves a pool's coflow scheduler ("" is varys) through
// the coflow table. Each call constructs a fresh instance: schedulers carry
// per-simulation state and must never be shared across shard engines.
func networkScheduler(name string) (coflow.Scheduler, error) {
	name = cmp.Or(name, "varys")
	if !slices.Contains(networkSchedulers, name) {
		return nil, fmt.Errorf("service: unknown network scheduler %q (want varys, aalo, fifo, scf or ncf)", name)
	}
	return coflow.ByName(name)
}

// jobStore is the storage a shard builds its jobs in: a generator for
// generated workloads, a chunk matrix and a workload for explicit ones. A
// materialized job lives in it until the shard's next one, which is all the
// engine needs — Submit keeps nothing of a job's workload.
type jobStore struct {
	gen workload.Generator
	m   partition.ChunkMatrix
	w   workload.Workload
}

// materialize expands a resolved spec (Arrival non-nil) into the engine's
// job form, built in st. Generation is deterministic in the spec, so journal
// replay reproduces the exact job the live path admitted.
func materialize(spec *JobSpec, nodes int, st *jobStore) (core.OnlineJob, error) {
	if spec.Arrival == nil {
		return core.OnlineJob{}, fmt.Errorf("service: internal: materialize before arrival resolution")
	}
	placer, err := jobPlacer(spec.Placer)
	if err != nil {
		return core.OnlineJob{}, err
	}
	var w *workload.Workload
	if spec.Gen != nil {
		w, err = st.gen.Generate(*spec.Gen)
		if err != nil {
			return core.OnlineJob{}, fmt.Errorf("%w: gen: %v", ErrBadJob, err)
		}
	} else {
		p := len(spec.Chunks[0])
		if nodes <= 0 || p <= 0 {
			return core.OnlineJob{}, fmt.Errorf("%w: chunk matrix is %d×%d", ErrBadJob, nodes, p)
		}
		st.m = partition.ChunkMatrix{N: nodes, P: p, H: slices.Grow(st.m.H[:0], nodes*p)[:nodes*p]}
		clear(st.m.H)
		for i, row := range spec.Chunks {
			copy(st.m.Row(i), row)
		}
		st.w = workload.Workload{Chunks: &st.m, SkewPartition: -1}
		w = &st.w
	}
	return core.OnlineJob{
		Name:          spec.Name,
		Arrival:       *spec.Arrival,
		Workload:      w,
		Scheduler:     placer,
		HandleSkew:    spec.HandleSkew,
		PlacementOnly: spec.PlacementOnly,
	}, nil
}

// Decision is the daemon's response to one admitted job.
type Decision struct {
	Name  string `json:"name"`
	Key   string `json:"key"`
	Shard int    `json:"shard"`
	// Seq is the shard-local admission sequence number (1-based); it is the
	// job's position in the shard's WAL.
	Seq uint64 `json:"seq"`
	// Arrival is the effective arrival on the shard clock (after lifting).
	Arrival float64 `json:"arrival"`
	// Lifted reports that the submitted arrival was behind the shard clock
	// (or omitted) and was raised to it.
	Lifted bool `json:"lifted,omitempty"`
	// Degraded reports the placement-only path: the decision did not see
	// the in-flight backlog, either because the client asked or because the
	// shard was shedding load.
	Degraded bool `json:"degraded,omitempty"`
	// Placement assigns each partition its destination node.
	Placement []int `json:"placement"`
	// BacklogEgress/BacklogIngress are the per-port in-flight bytes the
	// placement saw (co-optimized, non-degraded decisions only).
	BacklogEgress  []int64 `json:"backlog_egress,omitempty"`
	BacklogIngress []int64 `json:"backlog_ingress,omitempty"`
	// Completed counts jobs already finished on this shard's fabric when
	// this one arrived.
	Completed int `json:"completed"`
	// Clock is the shard's simulation clock after this admission.
	Clock float64 `json:"clock"`
}

// hashKey is 32-bit FNV-1a, the shard routing hash. Fixed here (not
// hash/maphash) because routing must be stable across restarts: the WAL of
// shard i must replay into shard i.
func hashKey(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
