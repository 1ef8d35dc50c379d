//go:build !race

// Allocation-regression tests for the coherence hot path: a steady-state
// L1 hit — the most frequent operation in every experiment — must not
// allocate. Excluded under -race because the race detector instruments
// allocations.

package coherence

import (
	"testing"

	"repro/internal/cache"
)

// TestSteadyStateL1HitZeroAlloc pins the full hit path — Submit, the
// tag-lookup event, process, complete, Done — at zero allocations.
func TestSteadyStateL1HitZeroAlloc(t *testing.T) {
	s := MustNewSystem(testConfig(MESI, 2))
	const addr = blockA
	done := func(AccessResult) {}

	// Warm: install the line (load) and drive it to M (store), then pump
	// hits until the clock has swept the engine's whole calendar ring, so
	// the engine's slab and every pool have reached steady state.
	s.AccessSync(0, addr, false, false, 0)
	s.AccessSync(0, addr, true, false, 1)
	start := s.Eng.Now()
	for i := 0; s.Eng.Now()-start < 4096 || i < 64; i++ {
		s.Submit(0, Access{Addr: addr, Write: i%2 == 0, Value: uint64(i), Done: done})
		s.Eng.Run()
	}

	allocs := testing.AllocsPerRun(500, func() {
		s.Submit(0, Access{Addr: addr, Done: done})
		s.Eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state L1 load hit allocates %.1f per access, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(500, func() {
		s.Submit(0, Access{Addr: addr, Write: true, Value: 42, Done: done})
		s.Eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state L1 store hit allocates %.1f per access, want 0", allocs)
	}
}

// TestSteadyStateMissZeroAlloc drives a working set larger than the L1
// through one controller until every pool (MSHRs, txns, directory entries,
// message events) reaches capacity, then asserts the whole miss path —
// request, directory grant, install, eviction, writeback — allocates
// nothing per access.
func TestSteadyStateMissZeroAlloc(t *testing.T) {
	s := MustNewSystem(testConfig(MESI, 2))
	done := func(AccessResult) {}
	// 64 blocks cycle through a 1 KB / 16-line L1: permanent miss+evict
	// traffic confined to a fixed footprint.
	addrOf := func(i int) cache.Addr { return blockA + cache.Addr((i%64)*64) }

	for i := 0; i < 2048; i++ {
		s.Submit(0, Access{Addr: addrOf(i), Write: i%4 == 0, Value: uint64(i), Done: done})
		s.Eng.Run()
	}

	i := 2048
	allocs := testing.AllocsPerRun(500, func() {
		s.Submit(0, Access{Addr: addrOf(i), Write: i%4 == 0, Value: uint64(i), Done: done})
		i++
		s.Eng.Run()
	})
	if allocs > 0.1 {
		t.Fatalf("steady-state L1 miss allocates %.2f per access, want 0", allocs)
	}
}

// TestAccessSyncZeroAlloc pins System.AccessSync, the synchronous probe
// interface, at zero allocations per access on a steady-state hit stream
// and on a miss stream.
func TestAccessSyncZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		addrOf func(i int) cache.Addr
		hits   bool
	}{
		{"hit", func(int) cache.Addr { return blockA }, true},
		// 64 blocks cycle through a 1 KB / 16-line L1: every access
		// misses and evicts.
		{"miss", func(i int) cache.Addr { return blockA + cache.Addr((i%64)*64) }, false},
	} {
		s := MustNewSystem(testConfig(MESI, 2))
		st := &s.L1s[0].Stats
		i := 0
		access := func() {
			s.AccessSync(0, tc.addrOf(i), i%4 == 0, false, uint64(i))
			i++
		}
		// Warm until the clock has swept the engine's calendar ring and
		// every pool has reached capacity.
		for start := s.Eng.Now(); s.Eng.Now()-start < 4096 || i < 2048; {
			access()
		}
		hits, n := st.LoadHits+st.StoreHits, i
		if allocs := testing.AllocsPerRun(500, access); allocs != 0 {
			t.Errorf("%s: AccessSync allocates %.1f per access, want 0", tc.name, allocs)
		}
		got, want := st.LoadHits+st.StoreHits-hits, uint64(0)
		if tc.hits {
			want = uint64(i - n)
		}
		if got != want {
			t.Errorf("%s stream: %d of %d accesses hit, want %d", tc.name, got, i-n, want)
		}
	}
}
