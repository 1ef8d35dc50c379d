package fault

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/sim"
)

// Window is a half-open cycle interval [Start, End) during which a fault
// storm is active. End == 0 means the window never closes.
type Window struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end,omitempty"`
}

// Contains reports whether cycle c falls inside the window.
func (w Window) Contains(c uint64) bool {
	return c >= w.Start && (w.End == 0 || c < w.End)
}

// MeshStorm is a storm window optionally pinned to specific directed
// mesh links (router*4 + direction indexes, the mesh's own link ids).
// An empty Links slice storms every link — the mesh analogue of a plain
// Window.
type MeshStorm struct {
	Window
	Links []int `json:"links,omitempty"`
}

// appliesTo reports whether the storm covers directed link li.
func (s MeshStorm) appliesTo(li int) bool {
	if len(s.Links) == 0 {
		return true
	}
	for _, l := range s.Links {
		if l == li {
			return true
		}
	}
	return false
}

// maxExtra bounds any single injected delay. Keeping spikes far below the
// watchdog's cycle budget guarantees a fault plan can slow the simulation
// but never wedge it — an injected delay is always finite, so every
// message still arrives and the blocking protocol still unblocks.
const maxExtra = 1 << 20

// Plan is a JSON-serializable fault schedule. All faults are timing-only
// and protocol-legal:
//
//   - Link faults add extra occupancy to a crossbar message's source and
//     destination ports (spikes with probability LinkSpikeProb, or
//     unconditionally during LinkStorms). Occupancy flows through the
//     network's per-port bookkeeping, so per-port-pair delivery order is
//     preserved; LinkSpikeProb 1 is timing jitter on every message.
//     Ignored on mesh topologies, whose links take the mesh class.
//   - Bank faults extend the directory bank's local service latency
//     before a response enters the network (a transient busy window).
//   - DRAM faults push a memory request's start time (an extra
//     refresh/row-conflict stall at the controller).
//
// FailAt and HangAt are forcing triggers for exercising the containment
// pipeline itself: FailAt raises a synthetic KindForced Violation at the
// first injector consultation at or after that cycle; HangAt wedges the
// event engine with a self-rescheduling no-progress handler, which an
// armed watchdog must catch.
type Plan struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`

	LinkSpikeProb float64  `json:"link_spike_prob,omitempty"`
	LinkSpikeMax  uint64   `json:"link_spike_max,omitempty"`
	LinkStorms    []Window `json:"link_storms,omitempty"`

	BankBusyProb float64  `json:"bank_busy_prob,omitempty"`
	BankBusyMax  uint64   `json:"bank_busy_max,omitempty"`
	BankStorms   []Window `json:"bank_storms,omitempty"`

	DRAMStallProb float64  `json:"dram_stall_prob,omitempty"`
	DRAMStallMax  uint64   `json:"dram_stall_max,omitempty"`
	DRAMStorms    []Window `json:"dram_storms,omitempty"`

	// Mesh faults add extra occupancy on individual directed mesh links
	// (spikes per link traversal, or unconditionally during MeshStorms,
	// each of which may be pinned to a set of directed links). They flow
	// through the mesh's per-link bookkeeping, so XY-route FIFO order is
	// preserved. Ignored on crossbar topologies.
	MeshSpikeProb float64     `json:"mesh_spike_prob,omitempty"`
	MeshSpikeMax  uint64      `json:"mesh_spike_max,omitempty"`
	MeshStorms    []MeshStorm `json:"mesh_storms,omitempty"`

	// Hub faults extend a cluster hub's local service latency before it
	// forwards a message (a transient busy window at the two-level
	// directory's aggregation point). Ignored on flat-directory configs.
	HubBusyProb float64  `json:"hub_busy_prob,omitempty"`
	HubBusyMax  uint64   `json:"hub_busy_max,omitempty"`
	HubStorms   []Window `json:"hub_storms,omitempty"`

	FailAt uint64 `json:"fail_at,omitempty"`
	HangAt uint64 `json:"hang_at,omitempty"`
}

// Zero reports whether the plan injects nothing at all.
func (p Plan) Zero() bool {
	return p.LinkSpikeProb == 0 && len(p.LinkStorms) == 0 &&
		p.BankBusyProb == 0 && len(p.BankStorms) == 0 &&
		p.DRAMStallProb == 0 && len(p.DRAMStorms) == 0 &&
		p.MeshSpikeProb == 0 && len(p.MeshStorms) == 0 &&
		p.HubBusyProb == 0 && len(p.HubStorms) == 0 &&
		p.FailAt == 0 && p.HangAt == 0
}

// Validate checks the plan.
func (p Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"link_spike_prob", p.LinkSpikeProb},
		{"bank_busy_prob", p.BankBusyProb},
		{"dram_stall_prob", p.DRAMStallProb},
		{"mesh_spike_prob", p.MeshSpikeProb},
		{"hub_busy_prob", p.HubBusyProb},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("fault: plan %q: %s = %v out of [0,1]", p.Name, f.name, f.v)
		}
	}
	for _, m := range []struct {
		name string
		v    uint64
	}{
		{"link_spike_max", p.LinkSpikeMax},
		{"bank_busy_max", p.BankBusyMax},
		{"dram_stall_max", p.DRAMStallMax},
		{"mesh_spike_max", p.MeshSpikeMax},
		{"hub_busy_max", p.HubBusyMax},
	} {
		if m.v > maxExtra {
			return fmt.Errorf("fault: plan %q: %s = %d exceeds bound %d", p.Name, m.name, m.v, maxExtra)
		}
	}
	if p.LinkSpikeProb > 0 && p.LinkSpikeMax == 0 {
		return fmt.Errorf("fault: plan %q: link_spike_prob without link_spike_max", p.Name)
	}
	if p.BankBusyProb > 0 && p.BankBusyMax == 0 {
		return fmt.Errorf("fault: plan %q: bank_busy_prob without bank_busy_max", p.Name)
	}
	if p.DRAMStallProb > 0 && p.DRAMStallMax == 0 {
		return fmt.Errorf("fault: plan %q: dram_stall_prob without dram_stall_max", p.Name)
	}
	if len(p.LinkStorms) > 0 && p.LinkSpikeMax == 0 {
		return fmt.Errorf("fault: plan %q: link_storms without link_spike_max", p.Name)
	}
	if len(p.BankStorms) > 0 && p.BankBusyMax == 0 {
		return fmt.Errorf("fault: plan %q: bank_storms without bank_busy_max", p.Name)
	}
	if len(p.DRAMStorms) > 0 && p.DRAMStallMax == 0 {
		return fmt.Errorf("fault: plan %q: dram_storms without dram_stall_max", p.Name)
	}
	if p.MeshSpikeProb > 0 && p.MeshSpikeMax == 0 {
		return fmt.Errorf("fault: plan %q: mesh_spike_prob without mesh_spike_max", p.Name)
	}
	if len(p.MeshStorms) > 0 && p.MeshSpikeMax == 0 {
		return fmt.Errorf("fault: plan %q: mesh_storms without mesh_spike_max", p.Name)
	}
	if p.HubBusyProb > 0 && p.HubBusyMax == 0 {
		return fmt.Errorf("fault: plan %q: hub_busy_prob without hub_busy_max", p.Name)
	}
	if len(p.HubStorms) > 0 && p.HubBusyMax == 0 {
		return fmt.Errorf("fault: plan %q: hub_storms without hub_busy_max", p.Name)
	}
	for _, ws := range [][]Window{p.LinkStorms, p.BankStorms, p.DRAMStorms, p.HubStorms} {
		for _, w := range ws {
			if w.End != 0 && w.End <= w.Start {
				return fmt.Errorf("fault: plan %q: empty storm window [%d,%d)", p.Name, w.Start, w.End)
			}
		}
	}
	for _, s := range p.MeshStorms {
		if s.End != 0 && s.End <= s.Start {
			return fmt.Errorf("fault: plan %q: empty storm window [%d,%d)", p.Name, s.Start, s.End)
		}
		for _, l := range s.Links {
			if l < 0 {
				return fmt.Errorf("fault: plan %q: negative mesh storm link %d", p.Name, l)
			}
		}
	}
	return nil
}

// LoadPlan reads and validates a JSON fault plan.
func LoadPlan(path string) (Plan, error) {
	var p Plan
	data, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("fault: plan %s: %w", path, err)
	}
	return p, p.Validate()
}

// SavePlan writes a plan as indented JSON. The write is atomic (temp
// file + rename) so a crash mid-save never leaves a torn plan.json that
// a later replay chokes on.
func SavePlan(path string, p Plan) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

// RandomPlans derives n distinct fault plans from a seed for a soak
// sweep. Plan 0 is always the no-fault control; the rest mix spike
// probabilities, storm windows, and fault classes pseudo-randomly but
// reproducibly — the same (n, seed) always yields the same plans.
func RandomPlans(n int, seed uint64) []Plan {
	plans := make([]Plan, 0, n)
	plans = append(plans, Plan{Name: "no-fault", Seed: seed})
	rng := sim.NewRNG(seed | 1)
	for i := 1; i < n; i++ {
		p := Plan{
			Name: fmt.Sprintf("plan-%02d", i),
			Seed: rng.Uint64(),
		}
		// Each class joins the plan independently; a plan with no class at
		// all is re-rolled into a link-spike plan so every non-control plan
		// injects something.
		if rng.Bool(0.7) {
			p.LinkSpikeProb = 0.01 + rng.Float64()*0.15
			p.LinkSpikeMax = 1 + rng.Uint64n(48)
		}
		if rng.Bool(0.5) {
			p.BankBusyProb = 0.01 + rng.Float64()*0.10
			p.BankBusyMax = 1 + rng.Uint64n(32)
		}
		if rng.Bool(0.5) {
			p.DRAMStallProb = 0.02 + rng.Float64()*0.20
			p.DRAMStallMax = 1 + rng.Uint64n(200)
		}
		if rng.Bool(0.4) {
			start := rng.Uint64n(200_000)
			p.LinkStorms = append(p.LinkStorms, Window{
				Start: start, End: start + 1_000 + rng.Uint64n(20_000),
			})
			if p.LinkSpikeMax == 0 {
				p.LinkSpikeMax = 1 + rng.Uint64n(48)
			}
		}
		if rng.Bool(0.3) {
			start := rng.Uint64n(200_000)
			p.DRAMStorms = append(p.DRAMStorms, Window{
				Start: start, End: start + 1_000 + rng.Uint64n(50_000),
			})
			if p.DRAMStallMax == 0 {
				p.DRAMStallMax = 1 + rng.Uint64n(200)
			}
		}
		if p.Zero() {
			p.LinkSpikeProb = 0.05
			p.LinkSpikeMax = 1 + rng.Uint64n(16)
		}
		plans = append(plans, p)
	}
	return plans
}

// RandomScaledPlans derives n fault plans targeting the scaled machine's
// layers — directed mesh links and cluster hubs — plus a DRAM class so
// the sweep still crosses the memory boundary. meshLinks is the number
// of directed links in the target mesh (W*H*4); storms pinned to a link
// subset draw their ids from it, and 0 disables pinning. Plan 0 is the
// no-fault control, and the same (n, seed, meshLinks) always yields the
// same plans. Kept separate from RandomPlans so existing sweeps remain
// byte-compatible.
func RandomScaledPlans(n int, seed uint64, meshLinks int) []Plan {
	plans := make([]Plan, 0, n)
	plans = append(plans, Plan{Name: "no-fault", Seed: seed})
	rng := sim.NewRNG(seed | 1)
	for i := 1; i < n; i++ {
		p := Plan{
			Name: fmt.Sprintf("scaled-%02d", i),
			Seed: rng.Uint64(),
		}
		if rng.Bool(0.7) {
			p.MeshSpikeProb = 0.01 + rng.Float64()*0.15
			p.MeshSpikeMax = 1 + rng.Uint64n(32)
		}
		if rng.Bool(0.6) {
			p.HubBusyProb = 0.01 + rng.Float64()*0.10
			p.HubBusyMax = 1 + rng.Uint64n(24)
		}
		if rng.Bool(0.4) {
			start := rng.Uint64n(200_000)
			s := MeshStorm{Window: Window{
				Start: start, End: start + 1_000 + rng.Uint64n(20_000),
			}}
			if meshLinks > 0 && rng.Bool(0.5) {
				// Pin the storm to a handful of directed links: the
				// asymmetric case a whole-fabric storm cannot exercise.
				k := int(1 + rng.Uint64n(4))
				for j := 0; j < k; j++ {
					s.Links = append(s.Links, int(rng.Uint64n(uint64(meshLinks))))
				}
			}
			p.MeshStorms = append(p.MeshStorms, s)
			if p.MeshSpikeMax == 0 {
				p.MeshSpikeMax = 1 + rng.Uint64n(32)
			}
		}
		if rng.Bool(0.3) {
			start := rng.Uint64n(200_000)
			p.HubStorms = append(p.HubStorms, Window{
				Start: start, End: start + 1_000 + rng.Uint64n(30_000),
			})
			if p.HubBusyMax == 0 {
				p.HubBusyMax = 1 + rng.Uint64n(24)
			}
		}
		if rng.Bool(0.3) {
			p.DRAMStallProb = 0.02 + rng.Float64()*0.20
			p.DRAMStallMax = 1 + rng.Uint64n(200)
		}
		if p.Zero() {
			p.MeshSpikeProb = 0.05
			p.MeshSpikeMax = 1 + rng.Uint64n(16)
		}
		plans = append(plans, p)
	}
	return plans
}
