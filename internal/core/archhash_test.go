package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mmu"
)

// refArchDump renders the architectural image from the physical image
// in a map, probed block by block for every mapped page, each line
// written with fmt.
func refArchDump(m *Machine) string {
	vals := map[cache.Addr]uint64{}
	for _, bv := range m.Sys.MemValues() {
		vals[bv.Addr] = bv.Value
	}
	var b strings.Builder
	block := uint64(m.Cfg.L1.BlockSize)
	for pi, p := range m.processes {
		for _, vpn := range p.AS.MappedVPNs() {
			va := mmu.VAddr(vpn * mmu.PageSize)
			pte := p.AS.PTEOf(va)
			if pte == nil || !pte.Present {
				continue
			}
			base := pte.PFN * mmu.PageSize
			for off := uint64(0); off < mmu.PageSize; off += block {
				if v, ok := vals[cache.Addr(base+off)]; ok {
					fmt.Fprintf(&b, "%d %x %x\n", pi, uint64(va+mmu.VAddr(off)), v)
				}
			}
		}
	}
	return b.String()
}

// ArchMemDump and ArchMemHash agree with the fmt reference on a
// two-process machine whose small caches leave values dirty in an L1,
// only in the LLC, and only in memory.
func TestArchMemDumpMatchesFmtReference(t *testing.T) {
	cfg := DefaultConfig(2, coherence.MESI)
	cfg.L1 = cache.Params{Name: "L1D", SizeBytes: 1 << 10, Ways: 4, BlockSize: 64}
	cfg.L2Bank = cache.Params{Name: "L2", SizeBytes: 2 << 10, Ways: 2, BlockSize: 64}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pi := 0; pi < 2; pi++ {
		p := m.NewProcess()
		c := p.AttachContext(pi)
		heap := p.MmapAnon(4 * mmu.PageSize)
		for i := 0; i < 3*64; i += 1 + pi {
			c.MustAccessSync(heap+mmu.VAddr(i*64), true, uint64(pi<<16|i))
		}
	}
	m.Sys.Quiesce()

	var dirtyL1, llcOnly, memOnly int
	for _, bv := range m.Sys.MemValues() {
		a := bv.Addr
		dirty := false
		for i := range m.Sys.L1s {
			if m.Sys.L1StateOf(i, a).Dirty() {
				dirty = true
			}
		}
		inLLC := false
		for i := 0; i < cfg.Cores; i++ {
			if m.Sys.BankArray(i).Lookup(a) != nil {
				inLLC = true
			}
		}
		switch {
		case dirty:
			dirtyL1++
		case inLLC:
			llcOnly++
		default:
			memOnly++
		}
	}
	if dirtyL1 == 0 || llcOnly == 0 || memOnly == 0 {
		t.Fatalf("image holds %d dirty-L1, %d LLC-only and %d memory-only values; want some of each", dirtyL1, llcOnly, memOnly)
	}

	want := refArchDump(m)
	if got := m.ArchMemDump(); got != want {
		t.Fatalf("ArchMemDump differs from the fmt reference:\n got %q\nwant %q", got, want)
	}
	sum := sha256.Sum256([]byte(want))
	if got := m.ArchMemHash(); got != hex.EncodeToString(sum[:]) {
		t.Fatalf("ArchMemHash %s, want the hash of the reference dump %x", got, sum)
	}
}
