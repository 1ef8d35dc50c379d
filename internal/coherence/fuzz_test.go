package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Timing-race fuzzing: randomize interconnect occupancy per message
// (preserving per-port-pair ordering, as real networks do) and hammer
// every protocol with concurrent conflicting traffic across many seeds.
// Any protocol state machine that silently relies on exact message timing
// surfaces here as an invariant violation, a value error, or a panic.

// jitter builds a timing-fuzz injector for plan. A spike probability of 1
// perturbs every message: LinkSpikeProb holds the crossbar's endpoint
// ports 1..LinkSpikeMax cycles longer, MeshSpikeProb each mesh link the
// message crosses. The port and link bookkeeping keeps FIFO order, so
// each port pair's deliveries stay in send order.
func jitter(plan fault.Plan) *fault.Injector {
	plan.Name = "jitter"
	return fault.MustNewInjector(plan)
}

func fuzzTimingConfig(p Policy, seed uint64) SystemConfig {
	cfg := testConfig(p, 4)
	cfg.LLCParams = cache.Params{Name: "LLC", SizeBytes: 4 << 10, Ways: 4, BlockSize: 64}
	cfg.Faults = jitter(fault.Plan{Seed: seed, LinkSpikeProb: 1, LinkSpikeMax: 7})
	return cfg
}

func TestTimingFuzzAllProtocols(t *testing.T) {
	for _, p := range AllPolicies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				s := MustNewSystem(fuzzTimingConfig(p, seed))
				rng := sim.NewRNG(seed * 977)
				completed := 0
				const n = 600
				for i := 0; i < n; i++ {
					write := rng.Bool(0.35)
					s.Submit(rng.Intn(4), Access{
						Addr:  cache.Addr(0x100000 + uint64(rng.Intn(24))*64),
						Write: write,
						WP:    !write && rng.Bool(0.4),
						Value: rng.Uint64(),
						Done:  func(AccessResult) { completed++ },
					})
				}
				s.Eng.RunBounded(80_000_000)
				if completed != n {
					t.Fatalf("seed %d: completed %d/%d", seed, completed, n)
				}
				if s.faults.Stats.LinkFaults == 0 {
					t.Fatalf("seed %d: no message was jittered", seed)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// Sequential data-value check under jitter: even with perturbed message
// timing, a serialized request stream must stay sequentially consistent.
func TestTimingFuzzSequentialValues(t *testing.T) {
	for _, p := range []Policy{MESI, SwiftDir, SMESI, MOESI, MESIF} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				s := MustNewSystem(fuzzTimingConfig(p, seed))
				rng := sim.NewRNG(seed * 31)
				shadow := map[cache.Addr]uint64{}
				v := uint64(1)
				for i := 0; i < 400; i++ {
					core := rng.Intn(4)
					block := cache.Addr(0x200000 + uint64(rng.Intn(20))*64)
					if rng.Bool(0.4) {
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
							t.Fatalf("seed %d op %d: got %#x want %#x", seed, i, r.Value, want)
						}
					}
				}
				s.Quiesce()
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// Jitter must not break the security property: SwiftDir's WP loads stay
// non-exclusive and LLC-served regardless of timing.
func TestTimingFuzzSecurityInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		s := MustNewSystem(fuzzTimingConfig(SwiftDir, seed))
		rng := sim.NewRNG(seed)
		for i := 0; i < 500; i++ {
			s.Submit(rng.Intn(4), Access{
				Addr: cache.Addr(0x300000 + uint64(rng.Intn(16))*64),
				WP:   true,
			})
		}
		s.Quiesce()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fw := s.BankStatsTotal().Forwards; fw != 0 {
			t.Fatalf("seed %d: %d forwards on a WP-only workload", seed, fw)
		}
	}
}
