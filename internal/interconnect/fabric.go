// Package interconnect models the on-chip network between private caches,
// LLC banks and cluster hubs: a W x H 2D mesh of routers with XY
// dimension-order routing. The paper's Table V crossbar is the 1x1 mesh,
// every endpoint on one router, so a message contends only for its source
// and destination ports. With zero occupancy and no fault hook the network
// is pure-latency (the default configuration, which keeps protocol timing
// exactly analyzable); with occupancy, bursts queue and latency becomes
// load-dependent — the spread around the 17-cycle center of the paper's
// Figure 6 CDF.
package interconnect

import "repro/internal/sim"

// Fabric is the statistics view of the network that System.Network
// returns. Mesh is its one implementation. Delivery goes through the
// owning engine's (cycle, seq) order, so a simulation is deterministic
// regardless of topology.
type Fabric interface {
	// SendEvent schedules the (handler, payload) event h.Handle(p) for
	// when the message has traversed src -> dst — the zero-allocation
	// delivery path coherence messages ride.
	SendEvent(src, dst int, h sim.Handler, p sim.Payload)

	// MessageCount returns the number of messages admitted so far.
	MessageCount() uint64

	// AvgQueueing returns the mean queueing delay per message beyond the
	// unloaded latency.
	AvgQueueing() float64
}

var _ Fabric = (*Mesh)(nil)
