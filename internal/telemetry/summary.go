package telemetry

import (
	"fmt"
	"io"
	"sort"

	"ccf/internal/stats"
)

// CoflowMetrics is one coflow's derived timeline metrics.
type CoflowMetrics struct {
	ID        int
	Name      string
	Bytes     float64
	Arrival   float64
	FirstByte float64 // -1 if the coflow never received rate
	// Completion is the absolute completion time, -1 if incomplete at the
	// end of the run (horizon-limited runs).
	Completion float64
	CCT        float64 // Completion - Arrival, -1 if incomplete
	// LowerBound is the coflow's isolated bandwidth-model CCT (max port
	// load over port capacity) — the floor no scheduler can beat.
	LowerBound float64
	// Stretch is CCT / LowerBound, the paper-style slowdown from sharing
	// the fabric (and from failures). 0 when incomplete or unbounded.
	Stretch float64
	// QueueDelay is FirstByte - Arrival: how long the scheduler kept the
	// coflow waiting before its first byte moved.
	QueueDelay  float64
	Preemptions int
	Restarts    int
}

// PortMetrics aggregates one port's utilization series.
type PortMetrics struct {
	Port        int
	MeanEgress  float64 // time-weighted mean utilization in [0,1]
	PeakEgress  float64 // peak per-window utilization
	MeanIngress float64
	PeakIngress float64
}

// Summary is the reduction of a recorded run.
type Summary struct {
	Makespan float64
	Epochs   int
	// Coflows is sorted by coflow ID; Ports by port index.
	Coflows []CoflowMetrics
	Ports   []PortMetrics
	// MeanUtilization averages the per-port time-weighted means (egress
	// and ingress pooled); PeakUtilization is the highest per-window
	// utilization any port reached.
	MeanUtilization float64
	PeakUtilization float64
	// JainFairness is Jain's index over completed coflows' CCTs: 1 is
	// perfectly even, 1/n maximally skewed.
	JainFairness float64
	MeanStretch  float64
	MaxStretch   float64
	// StretchHist buckets the per-coflow stretch (completed coflows only).
	StretchHist *stats.Histogram
	// TruncatedEvents/TruncatedAudits count recordings dropped at the
	// configured caps — non-zero means the log is a prefix, not the run.
	TruncatedEvents int
	TruncatedAudits int
}

// Summary reduces the recording. It may be called repeatedly; each call
// recomputes from the raw series.
func (r *Recorder) Summary() *Summary {
	s := &Summary{
		Makespan:        r.end,
		Epochs:          r.epochs,
		TruncatedEvents: r.truncEvents,
		TruncatedAudits: r.truncAudits,
	}

	// Port utilization aggregates from the ring's integrals.
	var meanSum float64
	var meanCnt int
	for p := 0; p < r.ports; p++ {
		pm := PortMetrics{Port: p}
		var egRate, egCap, inRate, inCap float64
		for i := range r.samples {
			sm := &r.samples[i]
			egRate += sm.egRate[p]
			egCap += sm.egCap[p]
			inRate += sm.inRate[p]
			inCap += sm.inCap[p]
			if u := sm.EgressUtil(p); u > pm.PeakEgress {
				pm.PeakEgress = u
			}
			if u := sm.IngressUtil(p); u > pm.PeakIngress {
				pm.PeakIngress = u
			}
		}
		if egCap > 0 {
			pm.MeanEgress = egRate / egCap
		}
		if inCap > 0 {
			pm.MeanIngress = inRate / inCap
		}
		s.Ports = append(s.Ports, pm)
		meanSum += pm.MeanEgress + pm.MeanIngress
		meanCnt += 2
		if pm.PeakEgress > s.PeakUtilization {
			s.PeakUtilization = pm.PeakEgress
		}
		if pm.PeakIngress > s.PeakUtilization {
			s.PeakUtilization = pm.PeakIngress
		}
	}
	if meanCnt > 0 {
		s.MeanUtilization = meanSum / float64(meanCnt)
	}

	// Per-coflow metrics, sorted by ID for deterministic output.
	hist, _ := stats.NewHistogram(1, 1.25, 1.5, 2, 3, 5, 10)
	var cctSum, cctSqSum float64
	var completed int
	var stretchSum float64
	var stretched int
	for _, tr := range r.ordered {
		cm := CoflowMetrics{
			ID: tr.id, Name: tr.name, Bytes: tr.bytes,
			Arrival: tr.arrival, FirstByte: tr.firstByte,
			Completion: tr.completion, CCT: -1,
			LowerBound:  tr.lower,
			QueueDelay:  -1,
			Preemptions: tr.preempts,
			Restarts:    tr.restarts,
		}
		if tr.firstByte >= 0 {
			cm.QueueDelay = tr.firstByte - tr.arrival
		}
		if tr.completion >= 0 {
			cm.CCT = tr.completion - tr.arrival
			completed++
			cctSum += cm.CCT
			cctSqSum += float64(cm.CCT * cm.CCT) // rounded: never a fused multiply-add
			if cm.LowerBound > 0 {
				cm.Stretch = cm.CCT / cm.LowerBound
				// The lower bound is exact arithmetic over the same
				// capacities the simulator integrates, so a sub-1 ratio
				// within rounding distance is float noise, not a scheduler
				// beating physics. (Genuinely sub-1 values stay: capacity
				// events can raise a port above its configured rate.)
				if cm.Stretch < 1 && cm.Stretch > 1-1e-9 {
					cm.Stretch = 1
				}
				hist.Observe(cm.Stretch)
				stretchSum += cm.Stretch
				stretched++
				if cm.Stretch > s.MaxStretch {
					s.MaxStretch = cm.Stretch
				}
			}
		}
		s.Coflows = append(s.Coflows, cm)
	}
	sort.Slice(s.Coflows, func(i, j int) bool { return s.Coflows[i].ID < s.Coflows[j].ID })
	if stretched > 0 {
		s.MeanStretch = stretchSum / float64(stretched)
	}
	if completed > 0 && cctSqSum > 0 {
		s.JainFairness = cctSum * cctSum / (float64(completed) * cctSqSum)
	}
	s.StretchHist = hist
	return s
}

// RenderSummary writes the human-readable summary tables: the run header,
// the per-coflow stretch table (sorted by ID), and the stretch histogram.
func RenderSummary(w io.Writer, s *Summary) error {
	if _, err := fmt.Fprintf(w,
		"telemetry: makespan %.4f s over %d epochs, util mean %.1f%% peak %.1f%%, Jain fairness %.3f\n",
		s.Makespan, s.Epochs, 100*s.MeanUtilization, 100*s.PeakUtilization, s.JainFairness); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %6s %12s %10s %10s %10s %8s %6s %6s\n",
		"coflow", "bytes", "cct (s)", "lower (s)", "stretch", "queued", "preem", "rest"); err != nil {
		return err
	}
	for _, c := range s.Coflows {
		cct, stretch, queued := "-", "-", "-"
		if c.CCT >= 0 {
			cct = fmt.Sprintf("%.4f", c.CCT)
		}
		if c.Stretch > 0 {
			stretch = fmt.Sprintf("%.3f", c.Stretch)
		}
		if c.QueueDelay >= 0 {
			queued = fmt.Sprintf("%.4f", c.QueueDelay)
		}
		if _, err := fmt.Fprintf(w, "  %6d %12.0f %10s %10.4f %10s %8s %6d %6d\n",
			c.ID, c.Bytes, cct, c.LowerBound, stretch, queued, c.Preemptions, c.Restarts); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "  stretch distribution (CCT / isolated lower bound):"); err != nil {
		return err
	}
	if err := s.StretchHist.Render(w, 32); err != nil {
		return err
	}
	if s.TruncatedEvents > 0 || s.TruncatedAudits > 0 {
		if _, err := fmt.Fprintf(w, "  WARNING: truncated %d events, %d audits at the configured caps\n",
			s.TruncatedEvents, s.TruncatedAudits); err != nil {
			return err
		}
	}
	return nil
}
