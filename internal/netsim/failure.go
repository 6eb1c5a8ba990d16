package netsim

// Port failures — the fault model of the robustness layer. A PortFailure
// takes one machine's ingress+egress ports to zero capacity at Down and
// restores them at Up (or never, when Up <= Down: a permanent loss). Unlike
// a CapacityEvent — which only rescales future service — a failure can also
// destroy work already performed, governed by the retransmission policy:
// in-flight progress may be voided (senders restart from byte zero) and,
// under the strictest policy, even fully-delivered flows into the failed
// port are re-sent, modelling loss of the receiver's un-replicated storage.
//
// Failures never change fault-free behavior: the failure machinery runs only
// on a failure's edge in the fabric schedule (session.go) or on its outcome,
// keeping the fault-free event loop bit-identical to internal/refsim and
// allocation-free.

// RetransmitPolicy selects what happens to the bytes a failed port has
// already carried.
type RetransmitPolicy int

const (
	// RetransmitRestart voids the in-flight progress of every live flow
	// touching the failed port: senders restart those transfers from byte
	// zero once capacity returns. Delivered (Done) flows keep their data.
	// This is the default and models sender-side retransmission without
	// checkpointing.
	RetransmitRestart RetransmitPolicy = iota
	// RetransmitResume keeps all progress — flows simply wait out the
	// outage and resume from their checkpoint. No bytes are wasted.
	RetransmitResume
	// RetransmitRestartDelivered is RetransmitRestart plus receiver
	// storage loss: flows of in-flight coflows already delivered INTO the
	// failed port are voided too and re-enter the live set (the receiving
	// machine lost the data). Flows sent FROM the failed port keep their
	// delivery — the data lives at the destination. Coflows that fully
	// completed before the failure are not resurrected.
	RetransmitRestartDelivered
)

// String names the policy for reports and CLI flags.
func (p RetransmitPolicy) String() string {
	switch p {
	case RetransmitRestart:
		return "restart"
	case RetransmitResume:
		return "resume"
	case RetransmitRestartDelivered:
		return "restart-delivered"
	}
	return "unknown"
}

// PortFailure schedules one port outage: both the egress and ingress port
// of machine Port lose all capacity at time Down and regain their
// configured capacity at Up. Up <= Down means the port never recovers
// (permanent node loss); a Down that is negative, NaN or +Inf is an error.
// Overlapping failures of the same port compose: the
// port is up only when no scheduled outage covers the current time.
type PortFailure struct {
	Port int
	Down float64
	Up   float64
}

// Permanent reports whether the failure never recovers.
func (pf PortFailure) Permanent() bool { return pf.Up <= pf.Down }

// FailureOutcome records what one PortFailure did to the run. Report.Failures
// holds one outcome per configured failure, in input order.
type FailureOutcome struct {
	Port      int
	Down, Up  float64
	Permanent bool
	// FlowsHit counts the flows affected when the port went down: live
	// flows touching the port, plus (under RetransmitRestartDelivered)
	// delivered flows voided by receiver loss.
	FlowsHit int
	// WastedBytes is the progress this failure voided — bytes that were
	// carried across the fabric and then had to be re-sent.
	WastedBytes float64
	// Recovered reports that every sized flow touching the port finished
	// by the end of the run (always false if the run stopped at a horizon
	// with such flows in flight).
	Recovered bool
	// TimeToRecovery is the interval from Down until the last flow
	// touching the port completed, 0 when the failure affected no
	// unfinished flow. Only meaningful when Recovered.
	TimeToRecovery float64
}

// bumpRestart counts one forced flow restart against a coflow. The map is
// lazily allocated so fault-free runs stay allocation-free.
func bumpRestart(rep *Report, id int) {
	if rep.Restarts == nil {
		rep.Restarts = make(map[int]int)
	}
	rep.Restarts[id]++
}
