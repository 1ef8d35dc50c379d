package interconnect

import "repro/internal/sim"

// Fabric is the interface between the coherence system and the on-chip
// network model. Two implementations exist: the original full Crossbar
// (the default topology, byte-identical to every pre-Fabric build) and
// the 2D Mesh (XY dimension-order routing with per-hop latency and
// per-link occupancy). Both deliver messages through the owning engine's
// (cycle, seq) order, so a simulation is deterministic regardless of
// topology.
type Fabric interface {
	// Send schedules deliver after the message traverses src -> dst.
	Send(src, dst int, deliver func())

	// SendEvent is Send for a (handler, payload) event — the
	// zero-allocation delivery path coherence messages ride.
	SendEvent(src, dst int, h sim.Handler, p sim.Payload)

	// MinLatency returns the unloaded traversal latency for a (src, dst)
	// pair: the base latency plus any topology distance, with no queueing.
	MinLatency(src, dst int) sim.Cycle

	// MessageCount returns the number of messages admitted so far.
	MessageCount() uint64

	// AvgQueueing returns the mean queueing delay per message beyond the
	// unloaded latency.
	AvgQueueing() float64
}

var (
	_ Fabric = (*Crossbar)(nil)
	_ Fabric = (*Mesh)(nil)
)
