// Package interconnect models the on-chip network between private caches
// and LLC banks: a crossbar of point-to-point links with finite bandwidth.
// Each message occupies its source and destination ports for a
// configurable number of cycles, so bursts queue and latency becomes
// load-dependent — the realistic jitter that spreads the paper's Figure 6
// CDF around its 17-cycle center. With zero occupancy the crossbar
// degenerates to a pure-latency network (the default configuration, which
// keeps protocol timing exactly analyzable).
package interconnect

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes the crossbar.
type Config struct {
	Ports     int       // number of endpoints
	Latency   sim.Cycle // base traversal latency per message
	Occupancy sim.Cycle // port occupancy per message (0 = infinite bandwidth)

	// JitterMax adds a deterministic pseudo-random occupancy in
	// [0, JitterMax] to every message (seeded by JitterSeed), perturbing
	// relative message timing while preserving per-port-pair ordering.
	// It exists to fuzz the coherence protocol for timing races.
	JitterMax  sim.Cycle
	JitterSeed uint64

	// Distance, if non-nil, returns extra traversal latency for a
	// (src, dst) port pair — the hook NUMA topologies use to make
	// cross-socket hops slower than local ones.
	Distance func(src, dst int) sim.Cycle

	// Extra, if non-nil, returns extra occupancy for a message admitted at
	// now — the fault-injection hook. Like jitter, the extra cycles flow
	// through the per-port bookkeeping, so injected latency spikes preserve
	// per-port-pair delivery order: a perturbed network is still a legal
	// network.
	Extra func(src, dst int, now sim.Cycle) sim.Cycle
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Ports <= 0 {
		return fmt.Errorf("interconnect: non-positive port count %d", c.Ports)
	}
	return nil
}

// Crossbar is a full crossbar switch: any source can reach any
// destination, but each port admits one message per Occupancy window in
// each direction.
type Crossbar struct {
	eng *sim.Engine
	cfg Config
	rng *sim.RNG // jitter source (nil when JitterMax == 0)

	txFreeAt []sim.Cycle // per-source egress availability
	rxFreeAt []sim.Cycle // per-destination ingress availability

	// Stats
	Messages     uint64
	QueuedCycles sim.Cycle // total cycles messages spent waiting for ports
	MaxQueue     sim.Cycle // worst single-message queueing delay
}

// New builds a crossbar over the engine. An invalid configuration — which
// can now arrive from user-supplied JSON, not just code — returns an
// error instead of panicking.
func New(eng *sim.Engine, cfg Config) (*Crossbar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	x := &Crossbar{
		eng:      eng,
		cfg:      cfg,
		txFreeAt: make([]sim.Cycle, cfg.Ports),
		rxFreeAt: make([]sim.Cycle, cfg.Ports),
	}
	if cfg.JitterMax > 0 {
		x.rng = sim.NewRNG(cfg.JitterSeed | 1)
	}
	return x, nil
}

// Config returns the crossbar configuration.
func (x *Crossbar) Config() Config { return x.cfg }

// admit computes the absolute delivery cycle of a message entering the
// crossbar now at src bound for dst, updating port occupancy and queueing
// statistics. Both Send paths share it so the jitter RNG stream and the
// port bookkeeping advance identically regardless of how the delivery is
// scheduled.
func (x *Crossbar) admit(src, dst int) sim.Cycle {
	x.Messages++
	now := x.eng.Now()
	lat := x.cfg.Latency
	if x.cfg.Distance != nil {
		lat += x.cfg.Distance(src, dst)
	}
	occ := x.cfg.Occupancy
	if x.rng != nil {
		occ += sim.Cycle(x.rng.Uint64n(uint64(x.cfg.JitterMax) + 1))
	}
	if x.cfg.Extra != nil {
		occ += x.cfg.Extra(src, dst, now)
	}
	if x.rng == nil && x.cfg.Extra == nil && occ == 0 {
		return now + lat
	}
	// With jitter or fault injection enabled every message flows through
	// the port-time bookkeeping (even a zero-extra roll), which keeps
	// per-port-pair delivery order monotone.
	start := now
	if x.txFreeAt[src] > start {
		start = x.txFreeAt[src]
	}
	if x.rxFreeAt[dst] > start {
		start = x.rxFreeAt[dst]
	}
	queued := start - now
	x.QueuedCycles += queued
	if queued > x.MaxQueue {
		x.MaxQueue = queued
	}
	x.txFreeAt[src] = start + occ
	x.rxFreeAt[dst] = start + occ
	return start + lat
}

// Send schedules deliver after the message traverses src -> dst: base
// latency plus any queueing at the two ports.
func (x *Crossbar) Send(src, dst int, deliver func()) {
	x.eng.ScheduleAt(x.admit(src, dst), deliver)
}

// SendEvent is Send for a (handler, payload) event: the zero-allocation
// delivery path coherence messages ride.
func (x *Crossbar) SendEvent(src, dst int, h sim.Handler, p sim.Payload) {
	x.eng.ScheduleEventAt(x.admit(src, dst), h, p)
}

// AvgQueueing returns mean queueing delay per message.
func (x *Crossbar) AvgQueueing() float64 {
	if x.Messages == 0 {
		return 0
	}
	return float64(x.QueuedCycles) / float64(x.Messages)
}

// MessageCount returns the number of messages admitted so far.
func (x *Crossbar) MessageCount() uint64 { return x.Messages }

// MinLatency returns the unloaded src -> dst traversal latency: the base
// latency plus the NUMA distance, with no port queueing.
func (x *Crossbar) MinLatency(src, dst int) sim.Cycle {
	lat := x.cfg.Latency
	if x.cfg.Distance != nil {
		lat += x.cfg.Distance(src, dst)
	}
	return lat
}
