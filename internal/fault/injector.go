package fault

import (
	"repro/internal/sim"
)

// InjectorStats counts injected faults for reporting.
type InjectorStats struct {
	LinkFaults  uint64
	BankFaults  uint64
	DRAMFaults  uint64
	MeshFaults  uint64 // per-directed-link mesh spikes/storms
	HubFaults   uint64 // cluster-hub busy windows
	ExtraCycles uint64 // total injected delay across all classes
}

// Injector applies a Plan to the timing layers. Each fault class draws
// from its own forked RNG stream, so the delays injected into (say) the
// network are a deterministic function of the plan alone — independent
// of whether the DRAM hook happened to be consulted in between — and a
// replay with the same plan reproduces the same perturbation exactly.
//
// An Injector is single-simulation state: build one per machine, never
// share across concurrent campaign jobs.
type Injector struct {
	plan Plan
	eng  *sim.Engine

	link *sim.RNG
	bank *sim.RNG
	dram *sim.RNG
	mesh *sim.RNG
	hub  *sim.RNG

	failed    bool // FailAt already fired
	hangArmed bool // HangAt wedge already scheduled

	// Diagnose, if non-nil, renders the owning system's structured state
	// dump; the forced-violation path calls it so a synthetic failure
	// carries the same diagnostic a real one would. The coherence system
	// wires it at attach time.
	Diagnose func() string

	Stats InjectorStats
}

// NewInjector validates the plan and builds an injector for it.
func NewInjector(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	base := sim.NewRNG(plan.Seed ^ 0xFA17)
	// Fork order is load-bearing: link, bank, dram predate the mesh and
	// hub streams, which are appended after so plans written before the
	// scaled classes existed replay with the exact same perturbation.
	return &Injector{
		plan: plan,
		link: base.Fork(),
		bank: base.Fork(),
		dram: base.Fork(),
		mesh: base.Fork(),
		hub:  base.Fork(),
	}, nil
}

// MustNewInjector is NewInjector for static plans.
func MustNewInjector(plan Plan) *Injector {
	in, err := NewInjector(plan)
	if err != nil {
		panic(err)
	}
	return in
}

// Plan returns the plan the injector was built from.
func (in *Injector) Plan() Plan { return in.plan }

// Attach binds the injector to the engine it perturbs. Required only for
// the HangAt trigger, which schedules its wedge event on the engine.
func (in *Injector) Attach(eng *sim.Engine) { in.eng = eng }

// force fires the plan's FailAt/HangAt triggers. It runs at every hook
// consultation, so the forced failure lands at the first timing decision
// at or after the trigger cycle — a deterministic point of the run.
func (in *Injector) force(now sim.Cycle) {
	if in.plan.FailAt > 0 && !in.failed && uint64(now) >= in.plan.FailAt {
		in.failed = true
		v := &Violation{
			Kind:      KindForced,
			Cycle:     uint64(now),
			Component: "injector",
			Msg:       "forced violation (plan fail_at trigger)",
		}
		if in.Diagnose != nil {
			v.Dump = in.Diagnose()
		}
		panic(v)
	}
	if in.plan.HangAt > 0 && !in.hangArmed && uint64(now) >= in.plan.HangAt && in.eng != nil {
		in.hangArmed = true
		in.eng.ScheduleEvent(0, in, sim.Payload{})
	}
}

// Handle implements sim.Handler: the HangAt wedge. It reschedules itself
// every cycle without ever marking progress, so the event queue never
// drains and no quiesce completes — the liveness failure mode the
// watchdog exists to catch.
func (in *Injector) Handle(p sim.Payload) {
	in.eng.ScheduleEvent(1, in, p)
}

// draw rolls one fault class: the storm windows force the maximum delay,
// otherwise prob gates a uniform draw in [1, max].
func (in *Injector) draw(rng *sim.RNG, now sim.Cycle, prob float64, max uint64, storms []Window, count *uint64) sim.Cycle {
	for _, w := range storms {
		if w.Contains(uint64(now)) {
			*count++
			in.Stats.ExtraCycles += max
			return sim.Cycle(max)
		}
	}
	if prob > 0 && rng.Bool(prob) {
		d := 1 + rng.Uint64n(max)
		*count++
		in.Stats.ExtraCycles += d
		return sim.Cycle(d)
	}
	return 0
}

// LinkDelay is the crossbar hook: extra endpoint-port occupancy for a
// message admitted at now. It is shaped to match
// interconnect.MeshConfig.PortExtra.
func (in *Injector) LinkDelay(src, dst int, now sim.Cycle) sim.Cycle {
	in.force(now)
	return in.draw(in.link, now, in.plan.LinkSpikeProb, in.plan.LinkSpikeMax, in.plan.LinkStorms, &in.Stats.LinkFaults)
}

// BankDelay is the directory-bank hook: extra local service latency
// before a bank response enters the network (a transient busy window).
func (in *Injector) BankDelay(now sim.Cycle) sim.Cycle {
	in.force(now)
	return in.draw(in.bank, now, in.plan.BankBusyProb, in.plan.BankBusyMax, in.plan.BankStorms, &in.Stats.BankFaults)
}

// DRAMDelay is the memory-controller hook: extra queueing delay before a
// request starts (a refresh or row-conflict storm). It is shaped to match
// dram.Memory.Extra.
func (in *Injector) DRAMDelay(now sim.Cycle, addr uint64, write bool) sim.Cycle {
	in.force(now)
	return in.draw(in.dram, now, in.plan.DRAMStallProb, in.plan.DRAMStallMax, in.plan.DRAMStorms, &in.Stats.DRAMFaults)
}

// MeshDelay is the mesh hook: extra occupancy on one directed link (the
// mesh's router*4+dir id) as a message traverses it. It is shaped to
// match interconnect.MeshConfig.LinkExtra. Storms may be pinned to a
// link subset, so the storm path checks the link id before forcing the
// maximum; the probabilistic path draws per traversal from the mesh
// stream.
func (in *Injector) MeshDelay(link int, now sim.Cycle) sim.Cycle {
	in.force(now)
	for _, s := range in.plan.MeshStorms {
		if s.Contains(uint64(now)) && s.appliesTo(link) {
			in.Stats.MeshFaults++
			in.Stats.ExtraCycles += in.plan.MeshSpikeMax
			return sim.Cycle(in.plan.MeshSpikeMax)
		}
	}
	if p := in.plan.MeshSpikeProb; p > 0 && in.mesh.Bool(p) {
		d := 1 + in.mesh.Uint64n(in.plan.MeshSpikeMax)
		in.Stats.MeshFaults++
		in.Stats.ExtraCycles += d
		return sim.Cycle(d)
	}
	return 0
}

// HubDelay is the cluster-hub hook: extra local service latency before
// the hub forwards a message (a transient busy window at the two-level
// directory's aggregation point).
func (in *Injector) HubDelay(hub int, now sim.Cycle) sim.Cycle {
	in.force(now)
	return in.draw(in.hub, now, in.plan.HubBusyProb, in.plan.HubBusyMax, in.plan.HubStorms, &in.Stats.HubFaults)
}
