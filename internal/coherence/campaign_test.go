package coherence

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/sim"
)

// The validation campaign: every protocol crossed with every hierarchy
// feature (prefetch modes, NUMA distances, link contention, timing
// jitter), under sustained random conflicting traffic, with the full
// invariant suite at quiescence. NUMA distance is a 2x1 mesh, one router
// per socket; jitter is a fault plan that spikes every message (on the
// crossbar, its endpoint ports; on the mesh, each link it crosses).
// Skipped in -short mode.

type campaignAxis struct {
	name string
	mut  func(*SystemConfig)
}

func campaignAxes() []campaignAxis {
	return []campaignAxis{
		{"plain", func(c *SystemConfig) {}},
		{"prefetch-naive", func(c *SystemConfig) { c.Prefetch = PrefetchNaive }},
		{"prefetch-aware", func(c *SystemConfig) { c.Prefetch = PrefetchWPAware }},
		{"numa", func(c *SystemConfig) { twoSockets(c, 30) }},
		{"contended", func(c *SystemConfig) { c.Timing.LinkOccupancy = 2 }},
		{"jitter", func(c *SystemConfig) { c.Faults = jitter(fault.Plan{Seed: 7, LinkSpikeProb: 1, LinkSpikeMax: 5}) }},
		{"everything", func(c *SystemConfig) {
			c.Prefetch = PrefetchWPAware
			twoSockets(c, 30)
			c.Timing.LinkOccupancy = 1
			c.Faults = jitter(fault.Plan{Seed: 11, MeshSpikeProb: 1, MeshSpikeMax: 3})
		}},
	}
}

func TestValidationCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is long; run without -short")
	}
	for _, p := range AllPolicies {
		for _, ax := range campaignAxes() {
			p, ax := p, ax
			t.Run(fmt.Sprintf("%s/%s", p.Name(), ax.name), func(t *testing.T) {
				cfg := testConfig(p, 4)
				cfg.LLCParams = cache.Params{Name: "LLC", SizeBytes: 8 << 10, Ways: 4, BlockSize: 64}
				ax.mut(&cfg)
				s := MustNewSystem(cfg)
				rng := sim.NewRNG(uint64(len(ax.name))*1000 + 17)
				completed := 0
				const n = 2500
				for i := 0; i < n; i++ {
					write := rng.Bool(0.3)
					s.Submit(rng.Intn(4), Access{
						Addr:  cache.Addr(0x100000 + uint64(rng.Intn(48))*64),
						Write: write,
						WP:    !write && rng.Bool(0.4),
						Value: rng.Uint64(),
						Done:  func(AccessResult) { completed++ },
					})
				}
				s.Eng.RunBounded(200_000_000)
				if completed != n {
					t.Fatalf("completed %d/%d", completed, n)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// Sequential-consistency campaign: values must be exact under every axis
// for the three paper protocols.
func TestValueCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is long; run without -short")
	}
	for _, p := range Policies {
		for _, ax := range campaignAxes() {
			p, ax := p, ax
			t.Run(fmt.Sprintf("%s/%s", p.Name(), ax.name), func(t *testing.T) {
				cfg := testConfig(p, 4)
				cfg.LLCParams = cache.Params{Name: "LLC", SizeBytes: 8 << 10, Ways: 4, BlockSize: 64}
				ax.mut(&cfg)
				s := MustNewSystem(cfg)
				rng := sim.NewRNG(0xCA4)
				shadow := map[cache.Addr]uint64{}
				v := uint64(1)
				for i := 0; i < 1200; i++ {
					core := rng.Intn(4)
					block := cache.Addr(0x200000 + uint64(rng.Intn(40))*64)
					if rng.Bool(0.35) {
						v++
						s.AccessSync(core, block, true, false, v)
						shadow[block] = v
					} else {
						r := s.AccessSync(core, block, false, rng.Bool(0.3), 0)
						want, ok := shadow[block]
						if !ok {
							want = initialToken(block)
						}
						if r.Value != want {
							t.Fatalf("op %d: got %#x want %#x", i, r.Value, want)
						}
					}
				}
				s.Quiesce()
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
