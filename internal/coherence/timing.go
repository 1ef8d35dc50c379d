package coherence

import "repro/internal/sim"

// Timing holds the latency parameters of the cache hierarchy, calibrated
// so that the round-trip numbers match the measurements the paper builds
// on: an L1 hit costs 1 cycle and an LLC-served load costs
// L1Tag + Hop + LLCTag + Hop = 17 cycles (Table V's 1-cycle L1 / 16-cycle
// L2 round trip, and the ~17-cycle center of Figure 6), while a three-hop
// load additionally pays Hop + RemoteL1Service, reproducing the ~26-cycle
// E/S gap measured on Intel Xeon by Yao et al.
type Timing struct {
	L1Tag           sim.Cycle // L1 tag+data access
	Hop             sim.Cycle // one interconnect traversal (L1<->LLC or L1<->L1)
	LLCTag          sim.Cycle // LLC tag+data+directory access
	RemoteL1Service sim.Cycle // owner L1's servicing of a forwarded request
	RecallPenalty   sim.Cycle // LLC eviction recall of L1 copies (approximate)

	// LinkOccupancy enables finite interconnect bandwidth: each message
	// occupies its endpoint ports (and, on a mesh, each directed link it
	// crosses) for this many cycles, so bursts queue and latencies acquire
	// load-dependent jitter. Zero (the default) models an ideal network
	// with exactly Hop cycles per traversal, plus the mesh's per-hop
	// latency.
	LinkOccupancy sim.Cycle
}

// DefaultTiming returns the calibrated configuration.
func DefaultTiming() Timing {
	return Timing{
		L1Tag:           1,
		Hop:             3,
		LLCTag:          10,
		RemoteL1Service: 23,
		RecallPenalty:   40,
	}
}

// LLCLoadLatency is the two-hop load service time: the constant latency
// SwiftDir serves all write-protected data with.
func (t Timing) LLCLoadLatency() sim.Cycle {
	return t.L1Tag + t.Hop + t.LLCTag + t.Hop
}

// RemoteLoadLatency is the three-hop load service time via a forwarded
// GETS.
func (t Timing) RemoteLoadLatency() sim.Cycle {
	return t.LLCLoadLatency() + t.Hop + t.RemoteL1Service
}
