package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// plannedAccess is one pre-generated workload access. The whole workload
// is planned up front, per core, so each core's stream is independent of
// how the cores' completions interleave.
type plannedAccess struct {
	block     cache.Addr
	write, wp bool
	value     uint64
}

func planWorkload(cores, perCore int, seed uint64) [][]plannedAccess {
	plans := make([][]plannedAccess, cores)
	for c := range plans {
		rng := sim.NewRNG(seed + uint64(c)*1000003)
		for i := 0; i < perCore; i++ {
			write := rng.Bool(0.3)
			plans[c] = append(plans[c], plannedAccess{
				block: cache.Addr(0x100000 + uint64(rng.Intn(32))*64),
				write: write,
				wp:    !write && rng.Bool(0.4),
				value: rng.Uint64(),
			})
		}
	}
	return plans
}

// runConcurrentWorkload drives overlapping per-core access chains (the
// stress pattern) over a pre-planned workload and checks that every
// access completes and the invariants hold after a full drain.
func runConcurrentWorkload(t *testing.T, cfg SystemConfig, seed uint64, perCore int) {
	t.Helper()
	s := MustNewSystem(cfg)
	plans := planWorkload(cfg.NumL1, perCore, seed)
	completed := make([]int, cfg.NumL1)
	next := make([]int, cfg.NumL1)
	for c := 0; c < cfg.NumL1; c++ {
		c := c
		var issue func()
		issue = func() {
			if next[c] >= len(plans[c]) {
				return
			}
			pa := plans[c][next[c]]
			next[c]++
			s.Submit(c, Access{
				Addr: pa.block, Write: pa.write, WP: pa.wp, Value: pa.value,
				Done: func(AccessResult) {
					completed[c]++
					issue()
				},
			})
		}
		// Three overlapping chains per core.
		issue()
		issue()
		issue()
	}
	s.Quiesce()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
	for c, n := range completed {
		if n != perCore {
			t.Fatalf("core %d completed %d/%d accesses", c, n, perCore)
		}
	}
}

// runSyncWorkload drives a serialized AccessSync stream — the probe
// interface — asserting the data-value invariant on the way and the
// invariants after a full drain.
func runSyncWorkload(t *testing.T, cfg SystemConfig, seed uint64, n int) {
	t.Helper()
	s := MustNewSystem(cfg)
	rng := sim.NewRNG(seed)
	shadow := map[cache.Addr]uint64{}
	val := seed
	for i := 0; i < n; i++ {
		core := rng.Intn(cfg.NumL1)
		block := cache.Addr(0x100000 + uint64(rng.Intn(24))*64)
		write := rng.Bool(0.3)
		wp := !write && rng.Bool(0.4)
		if write {
			val++
			s.AccessSync(core, block, true, false, val)
			shadow[block] = val
		} else {
			r := s.AccessSync(core, block, false, wp, 0)
			want, ok := shadow[block]
			if !ok {
				want = initialToken(block)
			}
			if r.Value != want {
				t.Fatalf("load %#x on core %d: got %#x want %#x", block, core, r.Value, want)
			}
		}
	}
	s.Quiesce()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
}
