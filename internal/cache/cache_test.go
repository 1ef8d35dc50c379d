package cache

import (
	"testing"
	"testing/quick"
)

func smallParams() Params {
	return Params{Name: "L1D", SizeBytes: 1024, Ways: 4, BlockSize: 64}
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"good", smallParams(), true},
		{"zero size", Params{SizeBytes: 0, Ways: 4, BlockSize: 64}, false},
		{"non-pow2 block", Params{SizeBytes: 1024, Ways: 4, BlockSize: 48}, false},
		{"indivisible", Params{SizeBytes: 1000, Ways: 4, BlockSize: 64}, false},
		{"non-pow2 sets", Params{SizeBytes: 64 * 4 * 3, Ways: 4, BlockSize: 64}, false},
		{"table5 L1", Params{Name: "L1", SizeBytes: 32 << 10, Ways: 4, BlockSize: 64}, true},
		{"table5 L2 bank", Params{Name: "L2", SizeBytes: 2 << 20, Ways: 16, BlockSize: 64}, true},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestLineStateString(t *testing.T) {
	for s, want := range map[LineState]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestArrayGeometry(t *testing.T) {
	a := NewArray(smallParams())
	if a.Sets() != 4 {
		t.Fatalf("sets = %d, want 4", a.Sets())
	}
	if a.BlockAddr(0x12345) != 0x12340 {
		t.Fatalf("BlockAddr(0x12345) = %#x", a.BlockAddr(0x12345))
	}
	// Consecutive blocks map to consecutive sets, wrapping at 4.
	for i := 0; i < 8; i++ {
		want := i % 4
		if got := a.SetIndex(Addr(i * 64)); got != want {
			t.Fatalf("SetIndex(block %d) = %d, want %d", i, got, want)
		}
	}
}

func TestInstallAndLookup(t *testing.T) {
	a := NewArray(smallParams())
	addr := Addr(0x4000)
	if a.Lookup(addr) != nil {
		t.Fatal("lookup in empty cache returned a line")
	}
	v := a.Victim(addr)
	a.Install(v, addr, Exclusive)
	ln := a.Lookup(addr)
	if ln == nil || ln.State != Exclusive {
		t.Fatalf("after install: line = %+v", ln)
	}
	// A different address in the same set should not alias.
	other := addr + Addr(a.Sets()*64)
	if a.Lookup(other) != nil {
		t.Fatal("tag aliasing: distinct address hit")
	}
}

func TestProbeStats(t *testing.T) {
	a := NewArray(smallParams())
	addr := Addr(0x100)
	if a.Probe(addr) != nil {
		t.Fatal("probe hit in empty cache")
	}
	a.Install(a.Victim(addr), addr, Shared)
	if a.Probe(addr) == nil {
		t.Fatal("probe miss after install")
	}
	if a.Hits != 1 || a.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", a.Hits, a.Misses)
	}
}

func TestLRUVictimSelection(t *testing.T) {
	a := NewArray(smallParams()) // 4 ways
	setStride := Addr(a.Sets() * 64)
	addrs := make([]Addr, 5)
	for i := range addrs {
		addrs[i] = Addr(i) * setStride // all map to set 0
	}
	for _, ad := range addrs[:4] {
		a.Install(a.Victim(ad), ad, Shared)
	}
	// Touch addrs[0] so addrs[1] becomes LRU.
	a.Touch(addrs[0])
	v := a.Victim(addrs[4])
	got := a.AddrOfLine(v, addrs[4])
	if got != addrs[1] {
		t.Fatalf("victim = %#x, want %#x (LRU)", got, addrs[1])
	}
	a.Install(v, addrs[4], Shared)
	if a.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", a.Evictions)
	}
	if a.Lookup(addrs[1]) != nil {
		t.Fatal("evicted line still resident")
	}
}

func TestVictimPrefersInvalidWay(t *testing.T) {
	a := NewArray(smallParams())
	base := Addr(0)
	stride := Addr(a.Sets() * 64)
	a.Install(a.Victim(base), base, Modified)
	v := a.Victim(base + stride)
	if v.State.Valid() {
		t.Fatal("victim chose a valid way while invalid ways exist")
	}
}

func TestInvalidate(t *testing.T) {
	a := NewArray(smallParams())
	addr := Addr(0x2000)
	a.Install(a.Victim(addr), addr, Modified)
	if !a.Invalidate(addr) {
		t.Fatal("invalidate of resident line returned false")
	}
	if a.Invalidate(addr) {
		t.Fatal("invalidate of absent line returned true")
	}
	if a.Lookup(addr) != nil {
		t.Fatal("line resident after invalidate")
	}
}

func TestAddrOfLineRoundTrip(t *testing.T) {
	a := NewArray(Params{Name: "L2", SizeBytes: 64 << 10, Ways: 8, BlockSize: 64})
	addrs := []Addr{0, 64, 0x1040, 0xFFC0, 0xABCD40}
	for _, ad := range addrs {
		ad = a.BlockAddr(ad)
		v := a.Victim(ad)
		a.Install(v, ad, Shared)
		if got := a.AddrOfLine(v, ad); got != ad {
			t.Fatalf("AddrOfLine round trip: got %#x want %#x", got, ad)
		}
	}
}

func TestForEachValidAndCount(t *testing.T) {
	a := NewArray(smallParams())
	want := map[Addr]bool{0x0: true, 0x40: true, 0x80: true}
	for ad := range want {
		a.Install(a.Victim(ad), ad, Shared)
	}
	seen := map[Addr]bool{}
	a.ForEachValid(func(ad Addr, ln *Line) { seen[ad] = true })
	if len(seen) != len(want) {
		t.Fatalf("seen %v, want %v", seen, want)
	}
	for ad := range want {
		if !seen[ad] {
			t.Fatalf("missing %#x", ad)
		}
	}
	if a.CountValid() != 3 {
		t.Fatalf("CountValid = %d, want 3", a.CountValid())
	}
}

// Property: installing any set of distinct block addresses that fit within
// associativity keeps them all resident and recoverable.
func TestArrayResidencyProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		a := NewArray(smallParams())
		installed := map[Addr]bool{}
		perSet := map[int]int{}
		for _, r := range raw {
			ad := a.BlockAddr(Addr(r))
			if installed[ad] {
				continue
			}
			s := a.SetIndex(ad)
			if perSet[s] >= a.Params().Ways {
				continue // would force an eviction
			}
			perSet[s]++
			installed[ad] = true
			a.Install(a.Victim(ad), ad, Shared)
		}
		for ad := range installed {
			if a.Lookup(ad) == nil {
				return false
			}
		}
		return a.CountValid() == len(installed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBankMapper(t *testing.T) {
	m := NewBankMapper(4, 64)
	if m.Banks() != 4 {
		t.Fatalf("banks = %d", m.Banks())
	}
	// Consecutive blocks round-robin across banks.
	for i := 0; i < 16; i++ {
		if got := m.Bank(Addr(i * 64)); got != i%4 {
			t.Fatalf("Bank(block %d) = %d, want %d", i, got, i%4)
		}
	}
	// Offsets within a block stay in the same bank.
	if m.Bank(0x47) != m.Bank(0x40) {
		t.Fatal("intra-block offset changed bank")
	}
}

func TestBankMapperPanics(t *testing.T) {
	for _, c := range []struct{ banks, block int }{{3, 64}, {0, 64}, {4, 48}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBankMapper(%d,%d) did not panic", c.banks, c.block)
				}
			}()
			NewBankMapper(c.banks, c.block)
		}()
	}
}

func TestReplPolicyStrings(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "Random" {
		t.Fatal("names wrong")
	}
}

func TestFIFOIgnoresReuse(t *testing.T) {
	p := smallParams()
	p.Replacement = FIFO
	a := NewArray(p)
	stride := Addr(a.Sets() * 64)
	// Fill set 0 in order 0,1,2,3; then touch 0 heavily.
	for i := 0; i < 4; i++ {
		ad := Addr(i) * stride
		a.Install(a.Victim(ad), ad, Shared)
	}
	for i := 0; i < 10; i++ {
		a.Probe(Addr(0))
	}
	// FIFO must still evict block 0 (oldest installed).
	v := a.Victim(4 * stride)
	if got := a.AddrOfLine(v, 4*stride); got != 0 {
		t.Fatalf("FIFO victim = %#x, want 0", got)
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	run := func() []Addr {
		p := smallParams()
		p.Replacement = Random
		a := NewArray(p)
		stride := Addr(a.Sets() * 64)
		var evictions []Addr
		for i := 0; i < 12; i++ {
			ad := Addr(i) * stride
			v := a.Victim(ad)
			if v.State.Valid() {
				evictions = append(evictions, a.AddrOfLine(v, ad))
			}
			a.Install(v, ad, Shared)
		}
		return evictions
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("eviction counts %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random replacement nondeterministic")
		}
	}
	// And it actually varies (not always the same way).
	distinct := map[Addr]bool{}
	for _, e := range a {
		distinct[e] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("random replacement degenerate: %v", a)
	}
}

// A Lookup or walk stops at a set's first invalid way only while no
// Invalidate has left a gap: after one, a line in a later way is still
// found and still walked.
func TestLookupAcrossInvalidatedWay(t *testing.T) {
	a := NewArray(Params{Name: "L1", SizeBytes: 4 * 64, Ways: 4, BlockSize: 64})
	addrs := []Addr{0, 64, 128, 192}
	for _, ad := range addrs {
		a.Install(a.Victim(ad), ad, Shared)
	}
	if a.Lookup(256) != nil {
		t.Fatal("absent block found in a full set")
	}
	a.Invalidate(addrs[0])
	for _, ad := range addrs[1:] {
		if a.Lookup(ad) == nil {
			t.Fatalf("block %#x lost behind the invalidated way", ad)
		}
	}
	if a.Lookup(addrs[0]) != nil {
		t.Fatal("invalidated block still found")
	}
	if n := a.CountValid(); n != len(addrs)-1 {
		t.Fatalf("CountValid = %d after the invalidation, want %d", n, len(addrs)-1)
	}
}
