//go:build !race

// Allocation-regression tests for the TLB. Excluded under -race because
// the race detector instruments allocations.

package mmu

import "testing"

// TestTLBMissEvictZeroAlloc pins the TLB's miss path: a 64-entry TLB
// cycling over 256 faulted-in pages misses, walks the page table and
// evicts its LRU entry on every access, and allocates nothing doing so.
func TestTLBMissEvictZeroAlloc(t *testing.T) {
	_, as := newAS()
	tlb := NewTLB(64)
	const pages = 256
	base, err := as.Mmap(pages*PageSize, ProtRead|ProtWrite, MapPrivate|MapAnonymous, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ { // fault every page in and fill the TLB
		if _, _, err := tlb.Translate(as, base+VAddr(i)*PageSize, false); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(4*pages, func() {
		tlb.Translate(as, base+VAddr(i%pages)*PageSize, i%2 == 0)
		i++
	})
	if allocs != 0 {
		t.Fatalf("TLB miss/evict allocates %.1f per access, want 0", allocs)
	}
	if tlb.Hits != 0 || tlb.Size() != 64 {
		t.Fatalf("hits=%d size=%d: want every access to miss and evict", tlb.Hits, tlb.Size())
	}
}
