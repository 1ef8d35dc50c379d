package coherence

import (
	"cmp"
	"slices"

	"repro/internal/cache"
	"repro/internal/intmap"
	"repro/internal/sim"
)

// This file is the model checker's window on the hierarchy: a canonical
// state fingerprint and a few read-only probes. Nothing here mutates
// protocol state, and every table and array is walked in ascending
// address order so the output is independent of slot and way order.

// AppendFingerprint folds the hierarchy's state into emit as a canonical
// stream of words: everything that can change how the system behaves from
// here on, and nothing that cannot. In order: per L1, its array (see
// cache.Array.AppendFingerprint), MSHRs with their merged accesses, and
// writeback buffer; then the directory entries, in-flight transactions
// and pinned grants of every bank; the cluster hubs' records, ack
// aggregations and up-request counts; the LLC bank arrays; the memory
// image where it differs from the initial tokens; the DRAM timing state;
// and the pending events as (relative deadline, handler role, payload).
// Time enters only as deltas from now, so two states that differ only in
// how long their histories took fingerprint identically, provided DRAM
// refresh is off (see dram.Memory.AppendFingerprint).
//
// Left out: the L1s' storeSeqs, which only Seq-stamped stores fill, and
// the hubs' faultFree ledger, which only a fault injector moves; the
// access slots that tag-lookup events name by index (a caller that needs
// them, like the model checker, tracks its outstanding accesses itself);
// interconnect port and link state, which an ideal network (zero
// occupancy, no fault hook) does not have; and statistics, tracing, free
// lists and lookup caches, which never change behaviour.
func (s *System) AppendFingerprint(emit func(uint64)) {
	for _, l1 := range s.L1s {
		emit(0x4C310000 | uint64(l1.ID)) // per-L1 separator
		l1.arr.AppendFingerprint(emit)
		for _, k := range sortedKeys(&l1.mshrs) {
			ms, _ := l1.mshrs.Get(k)
			emit(k)
			emit((uint64(ms.state)<<1|b2u(ms.wp))<<8 | uint64(len(ms.pending)))
			for i := range ms.pending {
				a := &ms.pending[i]
				emit(b2u(a.Write)<<1 | b2u(a.WP))
				emit(a.Value)
			}
		}
		for _, k := range sortedKeys(&l1.wb) {
			e, _ := l1.wb.Get(k)
			emit(k)
			emit(e.data<<1 | b2u(e.dirty))
		}
	}

	for _, b := range s.banks {
		for _, r := range b.sortedEntries() {
			e := r.e
			emit(uint64(r.addr))
			emit(uint64(e.state())<<32 | uint64(uint8(int8(e.Owner)))<<16 |
				uint64(uint8(int8(e.Fwd)))<<8 | b2u(e.llcDirty())<<1 | b2u(e.wp()))
			emit(e.Sharers)
		}
	}
	for _, b := range s.banks {
		for _, k := range sortedKeys(&b.busy) {
			t, _ := b.busy.Get(k)
			emit(k)
			t.req.appendFingerprint(emit)
			emit(uint64(t.waitAcks)<<16 | uint64(t.pendKind)<<8 |
				b2u(t.waitUnblock)<<1 | b2u(t.waitWB))
			emit(t.pendData)
			emit(uint64(len(t.queued)))
			for _, m := range t.queued {
				m.appendFingerprint(emit)
			}
		}
	}
	for _, b := range s.banks {
		for _, addr := range b.pinnedAddrs() {
			emit(uint64(addr))
			emit(uint64(b.entry(addr).Pins))
		}
	}

	for _, h := range s.hubs {
		for _, k := range h.trackedKeys() {
			pending, _ := h.pending.Get(k)
			emit(0x4855420000000000 | uint64(h.id))
			emit(k)
			emit(h.recordOf(cache.Addr(k)))
			emit(uint64(pending)<<32 | uint64(h.upReqsOf(cache.Addr(k))))
		}
	}
	for _, b := range s.banks {
		b.arr.AppendFingerprint(emit)
	}

	// The image is partitioned by home bank, so the key sets are disjoint.
	var image []uint64
	for _, b := range s.banks {
		image = b.image.AppendKeys(image)
	}
	slices.Sort(image)
	for _, k := range image {
		emit(k)
		emit(s.memRead(cache.Addr(k)))
	}

	s.Mem.AppendFingerprint(s.Eng.Now(), emit)

	// The engine's tie order (insertion order for equal deadlines) decides
	// which of two same-cycle events runs first, and ForEachPending keeps
	// it, so iteration order is part of the fingerprint.
	s.Eng.ForEachPending(func(rel sim.Cycle, hd sim.Handler, p sim.Payload) {
		emit(uint64(rel))
		emit(uint64(uint8(int8(s.handlerID(hd)))))
		emit(p.A)
		emit(p.B)
		emit(uint64(uint32(p.X))<<32 | uint64(uint32(p.Y)))
		emit(uint64(uint32(p.Z))<<24 | uint64(p.K)<<16 | uint64(p.F)<<8 | uint64(p.Aux))
		emit(uint64(p.Op))
	})
}

// appendFingerprint folds every field of a message into emit.
func (m Msg) appendFingerprint(emit func(uint64)) {
	emit(uint64(m.Addr))
	emit(uint64(m.Kind)<<32 | uint64(uint8(int8(m.Src)))<<24 |
		uint64(uint8(int8(m.Requestor)))<<16 | uint64(m.Served)<<8 |
		b2u(m.ClusterLast)<<6 |
		b2u(m.WP)<<5 | b2u(m.Dirty)<<4 | b2u(m.FromWB)<<3 |
		b2u(m.Excl)<<2 | b2u(m.Owned)<<1 | b2u(m.MakeForward))
	emit(m.Data)
}

// handlerID maps an event handler of this system to a stable small
// integer by role: L1 i -> i, bank j -> numL1+j, hub c ->
// numL1+len(banks)+c. Handlers of other components map to -1.
func (s *System) handlerID(h sim.Handler) int {
	switch v := h.(type) {
	case *L1:
		if v.sys == s {
			return v.ID
		}
	case *bank:
		if v.sys == s {
			return s.numL1 + v.id
		}
	case *hub:
		if v.sys == s {
			return s.numL1 + len(s.banks) + v.id
		}
	}
	return -1
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// trackedKeys returns every block the hub's tables track, in ascending
// order, once each; an absent counter reads as zero.
func (h *hub) trackedKeys() []uint64 {
	keys := h.upReqs.AppendKeys(h.pending.AppendKeys(h.record.AppendKeys(nil)))
	slices.Sort(keys)
	return slices.Compact(keys)
}

// sortedKeys returns the keys of a block-keyed table in ascending order.
func sortedKeys[V any](m *intmap.Map[V]) []uint64 {
	keys := m.AppendKeys(make([]uint64, 0, m.Len()))
	slices.Sort(keys)
	return keys
}

// addrEntry is a directory entry with its block address.
type addrEntry struct {
	addr cache.Addr
	e    *dirEntry
}

// sortedEntries returns the bank's directory entries — its resident LLC
// lines — in ascending address order.
func (b *bank) sortedEntries() []addrEntry {
	var out []addrEntry
	b.arr.ForEachValid(func(addr cache.Addr, ln *cache.Line) {
		out = append(out, addrEntry{addr, (*dirEntry)(ln)})
	})
	slices.SortFunc(out, func(x, y addrEntry) int { return cmp.Compare(x.addr, y.addr) })
	return out
}

// pinnedAddrs returns the blocks whose lines hold pins, in ascending
// order.
func (b *bank) pinnedAddrs() []cache.Addr {
	if b.pins == 0 {
		return nil
	}
	var out []cache.Addr
	for _, r := range b.sortedEntries() {
		if r.e.Pins != 0 {
			out = append(out, r.addr)
		}
	}
	return out
}

// BankArray exposes bank i's LLC array for inspection.
func (s *System) BankArray(i int) *cache.Array { return s.banks[i].arr }

// MemRead returns the main-memory shadow value of addr (the initial
// address-derived token if the block was never written back).
func (s *System) MemRead(addr cache.Addr) uint64 { return s.memRead(addr) }

// InitialToken returns the shadow value untouched memory holds at addr —
// the value the data-value invariant expects a never-written block to
// read as.
func InitialToken(addr cache.Addr) uint64 { return initialToken(addr) }
