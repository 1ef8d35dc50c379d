//go:build !race

// Allocation pins for the array's carve-on-first-install storage.
// Excluded under -race, which instruments allocations.

package cache

import (
	"math/bits"
	"testing"
)

// The read paths treat an uncarved set as a set with zero ways: on a
// fresh array they find nothing and allocate nothing.
func TestFreshArrayReadsAllocateNothing(t *testing.T) {
	a := NewArray(Params{Name: "L2", SizeBytes: 2 << 20, Ways: 16, BlockSize: 64})
	ad := setAddr(a, 7)
	for name, f := range map[string]func(){
		"Lookup":     func() { a.Lookup(ad) },
		"Probe":      func() { a.Probe(ad) },
		"Touch":      func() { a.Touch(ad) },
		"Invalidate": func() { a.Invalidate(ad) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s on a fresh array allocates %.0f times, want 0", name, n)
		}
	}
	if n := a.CountValid(); n != 0 {
		t.Fatalf("fresh array CountValid = %d, want 0", n)
	}
}

// Filling every set of a fresh array carves it in O(log sets)
// allocations and never holds more lines than the geometry: each spare
// slab is the size of everything carved before it, so 2048 sets take
// slabs of 1, 1, 2, 4, ..., 1024 sets and leave no spare line.
func TestCarveAllocations(t *testing.T) {
	p := Params{Name: "L2", SizeBytes: 512 << 10, Ways: 4, BlockSize: 64}
	arrays := []*Array{NewArray(p), NewArray(p)} // AllocsPerRun warms up once
	next, held := 0, 0
	allocs := testing.AllocsPerRun(1, func() {
		a := arrays[next]
		next++
		for s := 0; s < a.Sets(); s++ {
			ad := setAddr(a, s)
			a.Install(a.Victim(ad), ad, Shared)
			held = max(held, a.carved*p.Ways+len(a.spare))
		}
	})
	a := arrays[1]
	limit := bits.Len(uint(a.Sets()-1)) + 1 // ⌈log2 sets⌉ + 1
	t.Logf("filling %d sets: %.0f allocations (limit %d)", a.Sets(), allocs, limit)
	if allocs > float64(limit) {
		t.Errorf("filling %d sets allocates %.0f times, want at most %d", a.Sets(), allocs, limit)
	}
	if held > a.Sets()*p.Ways || len(a.spare) != 0 {
		t.Errorf("array held up to %d lines and kept %d spare; geometry has %d",
			held, len(a.spare), a.Sets()*p.Ways)
	}
}
