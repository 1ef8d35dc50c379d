package coherence

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/sim"
)

// This file exposes read-only views of controller state for the model
// checker (internal/mcheck) and for white-box tests: directory entries,
// in-flight transactions, MSHRs, and writeback buffers. Everything here
// is inspection-only — none of these accessors mutates protocol state —
// and iteration is in ascending address order so the output is canonical
// regardless of map iteration order.

// DirEntryView is a read-only snapshot of a directory entry.
type DirEntryView struct {
	State     DirState
	Owner     int
	Sharers   uint64
	LLCDirty  bool
	WP        bool
	Forwarder int
}

// TxnView is a read-only view of an in-flight directory transaction. The
// Queued slice aliases live controller state and must not be mutated or
// retained across engine steps.
type TxnView struct {
	Req         Msg
	WaitUnblock bool
	WaitWB      bool
	WaitAcks    int
	PendKind    uint8 // 0 = none; 1 = deferred store grant; 2 = deferred upgrade ack
	PendData    uint64
	Queued      []Msg
}

// NumBanks returns the LLC bank count.
func (s *System) NumBanks() int { return len(s.banks) }

// BankArray exposes bank i's LLC array for inspection.
func (s *System) BankArray(i int) *cache.Array { return s.banks[i].arr }

// sortedAddrs collects and sorts the keys of an address-keyed map.
func sortedAddrs[V any](m map[cache.Addr]V) []cache.Addr {
	addrs := make([]cache.Addr, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// DirEntryOf returns the directory entry for addr, if one exists.
func (s *System) DirEntryOf(addr cache.Addr) (DirEntryView, bool) {
	b := s.bankFor(addr)
	e, ok := b.entries[addr]
	if !ok {
		return DirEntryView{}, false
	}
	return DirEntryView{
		State: e.state, Owner: e.owner, Sharers: e.sharers,
		LLCDirty: e.llcDirty, WP: e.wp, Forwarder: e.forwarder,
	}, true
}

// ForEachDirEntry visits every directory entry, bank by bank, in
// ascending address order within each bank.
func (s *System) ForEachDirEntry(fn func(bank int, addr cache.Addr, v DirEntryView)) {
	for _, b := range s.banks {
		for _, addr := range sortedAddrs(b.entries) {
			v, _ := s.DirEntryOf(addr)
			fn(b.id, addr, v)
		}
	}
}

// TxnOf returns the in-flight transaction for addr, if the owning bank
// has one.
func (s *System) TxnOf(addr cache.Addr) (TxnView, bool) {
	t, ok := s.bankFor(addr).busy[addr]
	if !ok {
		return TxnView{}, false
	}
	return TxnView{
		Req: t.req, WaitUnblock: t.waitUnblock, WaitWB: t.waitWB,
		WaitAcks: t.waitAcks, PendKind: t.pendKind, PendData: t.pendData,
		Queued: t.queued,
	}, true
}

// BankBusy reports whether addr's bank has an in-flight transaction for
// it (the condition under which new requests queue).
func (s *System) BankBusy(addr cache.Addr) bool {
	_, ok := s.bankFor(addr).busy[addr]
	return ok
}

// ForEachBusy visits every in-flight directory transaction, bank by bank,
// in ascending address order within each bank.
func (s *System) ForEachBusy(fn func(bank int, addr cache.Addr, v TxnView)) {
	for _, b := range s.banks {
		for _, addr := range sortedAddrs(b.busy) {
			v, _ := s.TxnOf(addr)
			fn(b.id, addr, v)
		}
	}
}

// ForEachPinned visits every address with in-flight pinned grants, bank
// by bank, in ascending address order within each bank.
func (s *System) ForEachPinned(fn func(bank int, addr cache.Addr, n int)) {
	for _, b := range s.banks {
		for _, addr := range sortedAddrs(b.pinned) {
			fn(b.id, addr, b.pinned[addr])
		}
	}
}

// ForEachMemImage visits the main-memory shadow values that differ from
// the initial image, in ascending address order. The shadow is partitioned
// per bank (see bank.image); this merges the slices.
func (s *System) ForEachMemImage(fn func(addr cache.Addr, v uint64)) {
	merged := make(map[cache.Addr]uint64)
	for _, b := range s.banks {
		for a, v := range b.image {
			merged[a] = v
		}
	}
	for _, addr := range sortedAddrs(merged) {
		fn(addr, merged[addr])
	}
}

// MemRead returns the main-memory shadow value of addr (the initial
// address-derived token if the block was never written back).
func (s *System) MemRead(addr cache.Addr) uint64 { return s.memRead(addr) }

// InitialToken returns the shadow value untouched memory holds at addr —
// the value the data-value invariant expects a never-written block to
// read as.
func InitialToken(addr cache.Addr) uint64 { return initialToken(addr) }

// HandlerID maps an event handler belonging to this system to a stable
// small integer: L1 i -> i, bank j -> NumL1+j, the System itself (fast
// path completions) -> NumL1+NumBanks, hub c -> NumL1+NumBanks+1+c.
// Handlers from other components return -1. Model checkers use it to
// identify pending events without depending on pointer values.
func (s *System) HandlerID(h sim.Handler) int {
	switch v := h.(type) {
	case *L1:
		if v.sys == s {
			return v.ID
		}
	case *bank:
		if v.sys == s {
			return s.numL1 + v.id
		}
	case *System:
		if v == s {
			return s.numL1 + len(s.banks)
		}
	case *hub:
		if v.sys == s {
			return s.numL1 + len(s.banks) + 1 + v.id
		}
	}
	return -1
}

// ForEachHubState visits every cluster hub's per-block bookkeeping — the
// exact local-holder record, outstanding invalidation-ack count, and
// in-flight up-request count — hub by hub, in ascending address order
// within each hub. Blocks appear once even when tracked by several maps;
// absent counters read as zero. Flat systems have no hubs and get no
// visits.
func (s *System) ForEachHubState(fn func(hub int, addr cache.Addr, record uint64, pending, upReqs int)) {
	for _, h := range s.hubs {
		merged := make(map[cache.Addr]struct{}, len(h.record)+len(h.pending)+len(h.upReqs))
		for a := range h.record {
			merged[a] = struct{}{}
		}
		for a := range h.pending {
			merged[a] = struct{}{}
		}
		for a := range h.upReqs {
			merged[a] = struct{}{}
		}
		for _, addr := range sortedAddrs(merged) {
			fn(h.id, addr, h.record[addr], h.pending[addr], h.upReqs[addr])
		}
	}
}

// NumClusters returns the hub count (0 for a flat system).
func (s *System) NumClusters() int { return len(s.hubs) }

// ForEachMSHR visits every outstanding MSHR in ascending block order. The
// pending slice aliases live controller state and must not be mutated or
// retained across engine steps.
func (l *L1) ForEachMSHR(fn func(block cache.Addr, st Transient, wp bool, pending []Access)) {
	for _, addr := range sortedAddrs(l.mshrs) {
		ms := l.mshrs[addr]
		fn(addr, ms.state, ms.wp, ms.pending)
	}
}

// ForEachWB visits every writeback-buffer entry in ascending block order.
func (l *L1) ForEachWB(fn func(block cache.Addr, data uint64, dirty bool)) {
	for _, addr := range sortedAddrs(l.wb) {
		e := l.wb[addr]
		fn(addr, e.data, e.dirty)
	}
}
