package mmu

import "repro/internal/intmap"

// TLB is a fully associative translation lookaside buffer with LRU
// replacement, matching the paper's 64-entry ITB/DTB (Table V). Entries
// cache the translated frame and the R/W bit so the write-protection
// information reaches the cache hierarchy even on TLB hits without
// re-walking the page table (§IV-B).
//
// Resident entries live in a fixed array of slots, found through a table
// from virtual page number to slot; a miss that finds the array full overwrites
// the slot with the smallest LRU stamp. Stamps come from one counter bumped
// on every hit and fill, so that slot is unique and the eviction order is
// the same however the slots are arranged.
type TLB struct {
	capacity int
	slots    []tlbEntry
	index    intmap.Map[int32] // vpn -> position in slots
	clock    uint64

	Hits, Misses uint64
	Flushes      uint64
}

type tlbEntry struct {
	vpn      uint64
	pfn      uint64
	writable bool
	lru      uint64
}

// NewTLB builds a TLB with the given entry count.
func NewTLB(entries int) *TLB {
	if entries <= 0 {
		panic("mmu: TLB must have at least one entry")
	}
	return &TLB{
		capacity: entries,
		slots:    make([]tlbEntry, 0, entries),
	}
}

// Capacity returns the entry count.
func (t *TLB) Capacity() int { return t.capacity }

// Size returns the number of resident entries.
func (t *TLB) Size() int { return len(t.slots) }

func (t *TLB) lookup(vp uint64) *tlbEntry {
	i, ok := t.index.Get(vp)
	if !ok {
		return nil
	}
	e := &t.slots[i]
	t.clock++
	e.lru = t.clock
	return e
}

func (t *TLB) insert(vp uint64, pfn uint64, writable bool) {
	t.clock++
	ent := tlbEntry{vpn: vp, pfn: pfn, writable: writable, lru: t.clock}
	if len(t.slots) < t.capacity {
		t.index.Set(vp, int32(len(t.slots)))
		t.slots = append(t.slots, ent)
		return
	}
	victim := 0
	for i := 1; i < len(t.slots); i++ {
		if t.slots[i].lru < t.slots[victim].lru {
			victim = i
		}
	}
	t.index.Delete(t.slots[victim].vpn)
	t.slots[victim] = ent
	t.index.Set(vp, int32(victim))
}

// InvalidatePage drops the entry for the page containing v, if any.
func (t *TLB) InvalidatePage(v VAddr) {
	vp := vpn(v)
	i, ok := t.index.Get(vp)
	if !ok {
		return
	}
	t.index.Delete(vp)
	last := int32(len(t.slots) - 1)
	if i != last {
		t.slots[i] = t.slots[last]
		t.index.Set(t.slots[i].vpn, i)
	}
	t.slots = t.slots[:last]
}

// Flush empties the TLB.
func (t *TLB) Flush() {
	t.index.Clear()
	t.slots = t.slots[:0]
	t.Flushes++
}

// Translate performs the full MMU path for one access: TLB lookup, page
// walk on miss, protection handling, and TLB fill. The returned Result's
// WriteProtected field is the R/W bit the coherence controller consumes;
// TLBHit is reported separately for timing.
func (t *TLB) Translate(as *AddressSpace, v VAddr, isWrite bool) (Result, bool, error) {
	vp := vpn(v)
	if e := t.lookup(vp); e != nil {
		if !isWrite || e.writable {
			t.Hits++
			return Result{
				PAddr:          PAddr(e.pfn*PageSize) + PAddr(uint64(v)%PageSize),
				WriteProtected: !e.writable,
			}, true, nil
		}
		// Write to a write-protected cached translation: the hardware
		// raises a fault; the handler (Translate below) performs CoW or
		// rejects, and the stale entry must be shot down.
		t.InvalidatePage(v)
	}
	t.Misses++
	res, err := as.Translate(v, isWrite)
	if err != nil {
		return res, false, err
	}
	pte := as.PTEOf(v)
	t.insert(vp, pte.PFN, pte.Writable)
	return res, false, nil
}
