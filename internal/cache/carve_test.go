package cache

import (
	"testing"
	"unsafe"
)

// setAddr is the first block address that maps to set s.
func setAddr(a *Array, s int) Addr { return Addr(s) << a.blockBits }

func TestLineIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 32 {
		t.Fatalf("cache.Line is %d bytes, want 32", n)
	}
}

// A line handed out by Victim must stay where it is while other sets are
// carved: callers hold the *Line across a writeback or recall before they
// Install into it. A spare slab grown with append would move it.
func TestCarveKeepsLinesInPlace(t *testing.T) {
	a := NewArray(Params{Name: "L2", SizeBytes: 64 << 10, Ways: 8, BlockSize: 64})
	x := setAddr(a, 5)
	ln := a.Victim(x)
	for s := 0; s < a.Sets(); s++ {
		if s == 5 {
			continue
		}
		ad := setAddr(a, s)
		a.Install(a.Victim(ad), ad, Shared)
	}
	a.Install(ln, x, Shared)
	if got := a.Lookup(x); got != ln {
		t.Fatalf("Lookup(%#x) = %p, want the line Victim returned (%p)", x, got, ln)
	}
	if got := a.CountValid(); got != a.Sets() {
		t.Fatalf("CountValid = %d, want %d", got, a.Sets())
	}
}
