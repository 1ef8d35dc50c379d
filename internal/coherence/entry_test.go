package coherence

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
)

// An LLC way handed to a new block after evictLLC starts with a fresh
// directory entry, whatever the evicted block's entry held: DirPresent,
// no owner, forwarder, sharers or pins, and neither flag. Each setup
// leaves the victim with a different entry: an owner, write-protected
// sharers (with a forwarder under MESIF), or LLC-dirty sharers.
func TestReusedLLCWayStartsFresh(t *testing.T) {
	for _, p := range ExtendedPolicies {
		for _, sc := range []struct {
			name  string
			drive func(s *System)
		}{
			{"owned", func(s *System) { s.AccessSync(1, blockA, true, false, 7) }},
			{"wp-shared", func(s *System) {
				s.AccessSync(0, blockA, false, true, 0)
				s.AccessSync(1, blockA, false, false, 0)
				s.AccessSync(2, blockA, false, true, 0)
			}},
			{"written-back", func(s *System) {
				s.AccessSync(0, blockA, true, false, 7)
				s.AccessSync(1, blockA, false, false, 0)
			}},
		} {
			t.Run(p.Name()+"/"+sc.name, func(t *testing.T) {
				cfg := testConfig(p, 4)
				cfg.LLCParams = cache.Params{Name: "LLC", SizeBytes: 4 << 10, Ways: 1, BlockSize: 64}
				s := MustNewSystem(cfg)
				sc.drive(s)
				s.Quiesce()
				b := s.bankFor(blockA)
				old := b.entry(blockA)
				if old == nil || old.state() == DirPresent {
					t.Fatalf("setup left entry %+v, want one an L1 holds", old)
				}
				// The next block of the same bank and set: its install
				// evicts blockA from the one-way set.
				next := blockA + cache.Addr(b.arr.Sets()*len(s.banks)*64)
				e, _ := b.install(next)
				if e != old {
					t.Fatalf("install of %#x took another way", next)
				}
				if e.state() != DirPresent || e.Owner != -1 || e.Fwd != -1 || e.Sharers != 0 || e.Pins != 0 || e.Dir&^dirStateMask != 0 {
					t.Fatalf("reused way's entry %+v, want a fresh DirPresent entry", *e)
				}
			})
		}
	}
}

// refMemImage builds the memory image in a map: filled from the memory
// shadow, then the LLC lines, then the dirty L1 copies, each later source
// overwriting the earlier, with the blocks still at their initial token
// dropped.
func refMemImage(s *System) map[cache.Addr]uint64 {
	vals := map[cache.Addr]uint64{}
	for _, b := range s.banks {
		b.image.ForEach(func(k, v uint64) { vals[cache.Addr(k)] = v })
	}
	for _, b := range s.banks {
		b.arr.ForEachValid(func(a cache.Addr, ln *cache.Line) { vals[a] = ln.Data })
	}
	for _, l1 := range s.L1s {
		l1.arr.ForEachValid(func(a cache.Addr, ln *cache.Line) {
			if ln.State.Dirty() {
				vals[a] = ln.Data
			}
		})
	}
	for a, v := range vals {
		if v == initialToken(a) {
			delete(vals, a)
		}
	}
	return vals
}

// MemValues and MemImageHash agree with a map-and-fmt reference on a
// system holding values in each place one can live: dirty in an L1,
// only in the LLC, and only in memory.
func TestMemImageMatchesFmtReference(t *testing.T) {
	cfg := testConfig(MESI, 2)
	cfg.LLCParams = cache.Params{Name: "LLC", SizeBytes: 2 << 10, Ways: 2, BlockSize: 64}
	s := MustNewSystem(cfg)
	for i := 0; i < 96; i++ {
		addr := blockA + cache.Addr(i)*64
		s.AccessSync(i%2, addr, true, false, uint64(1000+i))
		if i%3 == 0 {
			s.AccessSync(1-i%2, addr, false, false, 0) // written back into the LLC
		}
	}
	s.Quiesce()

	ref := refMemImage(s)
	var dirtyL1, llcOnly, memOnly int
	for a := range ref {
		inLLC := s.bankFor(a).entry(a) != nil
		dirty := false
		for _, l1 := range s.L1s {
			if ln := l1.arr.Lookup(a); ln != nil && ln.State.Dirty() {
				dirty = true
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

	vals := s.MemValues()
	if !slices.IsSortedFunc(vals, func(x, y BlockValue) int { return int(x.Addr>>6) - int(y.Addr>>6) }) {
		t.Fatal("MemValues is not in ascending address order")
	}
	if len(vals) != len(ref) {
		t.Fatalf("MemValues holds %d blocks, the reference %d", len(vals), len(ref))
	}
	for _, bv := range vals {
		if v, ok := ref[bv.Addr]; !ok || v != bv.Value {
			t.Fatalf("block %#x: MemValues %#x, reference %#x (present %v)", bv.Addr, bv.Value, v, ok)
		}
	}
	addrs := make([]cache.Addr, 0, len(ref))
	for a := range ref {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	h := sha256.New()
	for _, a := range addrs {
		fmt.Fprintf(h, "%x %x\n", uint64(a), ref[a])
	}
	if got, want := s.MemImageHash(), hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("MemImageHash %s, fmt reference %s", got, want)
	}
}
