package coherence

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/sim"
)

// DirState is the directory's knowledge about a block resident in the LLC.
//
// The distinction between DirExclusive and DirModifiedL1 is the crux of
// the paper: under MESI and SwiftDir a silent E→M upgrade leaves the
// directory in DirExclusive while the owner's copy may already be dirty,
// so the directory must forward every GETS (the slow three-hop path the
// timing channel measures). Under S-MESI the explicit Upgrade moves the
// directory to DirModifiedL1, which means DirExclusive is provably clean
// and can be served straight from the LLC.
type DirState uint8

const (
	// DirInvalid: block not resident in the LLC (no entry exists).
	DirInvalid DirState = iota
	// DirPresent: resident in the LLC only; no L1 holds a copy.
	DirPresent
	// DirShared: resident; one or more L1s hold Shared copies.
	DirShared
	// DirExclusive: one L1 was granted E; it may have silently upgraded.
	DirExclusive
	// DirModifiedL1: one L1 is known to hold the block Modified.
	DirModifiedL1
	// DirOwned (MOESI): one L1 holds the block dirty in state O while
	// zero or more others hold Shared copies of the same value; the LLC
	// data are stale, so every request forwards to the owner.
	DirOwned
)

// String renders the proto-table name for the state (the stable prefix
// of proto.DirState), so directory dumps, transcripts, and relation
// entries are spelled identically by construction.
func (s DirState) String() string {
	return proto.DirState(s).String()
}

// dirEntry is the directory sidecar for an LLC-resident block.
type dirEntry struct {
	state     DirState
	owner     int
	sharers   uint64 // bitset of L1 ids
	llcDirty  bool   // LLC data differs from memory
	wp        bool   // block was write-protected at its last load grant
	forwarder int    // MESIF forward-state holder among the sharers, or -1
}

func bit(id int) uint64 { return 1 << uint(id) }

// Deferred-grant kinds: what a transaction owes its requestor once the
// outstanding invalidation acks arrive. A plain enum (plus the captured
// grant data) replaces the closure the old implementation allocated per
// invalidating store — the directory entry is re-fetched at grant time,
// which is sound because the block stays busy (and therefore resident)
// for the whole window.
const (
	pendNone uint8 = iota
	pendStore
	pendUpgrade
)

// txn is an in-flight directory transaction; the block is busy until all
// wait conditions clear (the blocking protocol of Table II). Completed
// transactions are recycled through the bank's free list.
type txn struct {
	req         Msg
	waitUnblock bool
	waitWB      bool
	waitAcks    int
	pendKind    uint8  // deferred grant once invalidation acks arrive
	pendData    uint64 // LLC data captured when the grant was deferred
	queued      []Msg
}

// BankStats counts directory activity per bank.
type BankStats struct {
	Requests      uint64
	LLCServed     uint64 // grants served from the LLC (two-hop)
	Forwards      uint64 // Fwd_GETS / Fwd_GETX issued (three-hop)
	MemFetches    uint64
	Invals        uint64 // Inv demands issued
	UpgradeAcks   uint64
	Recalls       uint64 // inclusive-eviction recalls of L1 copies
	Writebacks    uint64 // dirty evictions written to memory
	QueuedWakeups uint64
}

// bank is one LLC slice plus its directory and its view of the memory
// controller.
type bank struct {
	id      int
	sys     *System
	engine  *sim.Engine
	tab     *proto.Table // canonical transition relation (drives dispatch)
	arr     *cache.Array
	entries map[cache.Addr]*dirEntry
	busy    map[cache.Addr]*txn
	// image is this bank's slice of the shadow memory: blocks homed here.
	image map[cache.Addr]uint64
	// pinned counts in-flight grants (UpgradeAcks) per address. Such a
	// grant carries no follow-up unblock, so no busy transaction covers
	// its flight; pinning keeps victim selection from recalling the block
	// before the grant lands (which would orphan the requestor's MSHR).
	pinned map[cache.Addr]int

	txnFree   []*txn      // recycled transactions
	entryFree []*dirEntry // recycled directory entries

	// One-entry lookup cache: directory traffic is bursty per block (a
	// request, its WB_Data, its acks, its unblock all hit the same entry),
	// so the last touched entry answers most map probes.
	lastAddr cache.Addr
	lastEnt  *dirEntry

	// arb, set for a phase-priority policy, orders each transaction's
	// queued requests by arbitration class (see enqueue). Unset keeps the
	// plain FIFO append, byte-identical to a build without arbitration.
	arb bool

	// arbPromotions counts queued requests that were inserted ahead of at
	// least one earlier arrival (kept outside BankStats: report surfaces
	// hash BankStats fields, and arbitration is additive).
	arbPromotions uint64

	Stats BankStats
}

func newBank(id int, sys *System, params cache.Params) *bank {
	return &bank{
		id:      id,
		sys:     sys,
		engine:  sys.Eng,
		tab:     sys.Policy.table,
		arr:     cache.NewArray(params),
		entries: make(map[cache.Addr]*dirEntry, params.SizeBytes/params.BlockSize/4),
		busy:    make(map[cache.Addr]*txn),
		pinned:  make(map[cache.Addr]int),
		image:   make(map[cache.Addr]uint64),
		arb:     sys.Policy.phasePriority,
	}
}

// entry looks up the directory entry for addr through the one-entry cache.
func (b *bank) entry(addr cache.Addr) *dirEntry {
	if addr == b.lastAddr && b.lastEnt != nil {
		return b.lastEnt
	}
	e := b.entries[addr]
	if e != nil {
		b.lastAddr, b.lastEnt = addr, e
	}
	return e
}

// newTxn takes a recycled transaction (or allocates a fresh one) for req.
// freeTxn reset every other field when the previous transaction retired.
func (b *bank) newTxn(req Msg) *txn {
	var t *txn
	if n := len(b.txnFree); n > 0 {
		t = b.txnFree[n-1]
		b.txnFree = b.txnFree[:n-1]
	} else {
		t = &txn{}
	}
	t.req = req
	return t
}

// freeTxn recycles a retired transaction, zeroing its queued slots so no
// stale Msg outlives it.
func (b *bank) freeTxn(t *txn) {
	for i := range t.queued {
		t.queued[i] = Msg{}
	}
	t.queued = t.queued[:0]
	t.req = Msg{}
	t.waitUnblock, t.waitWB, t.waitAcks = false, false, 0
	t.pendKind, t.pendData = pendNone, 0
	b.txnFree = append(b.txnFree, t)
}

// newEntry takes a recycled directory entry, zeroed.
func (b *bank) newEntry() *dirEntry {
	if n := len(b.entryFree); n > 0 {
		e := b.entryFree[n-1]
		b.entryFree = b.entryFree[:n-1]
		*e = dirEntry{}
		return e
	}
	return &dirEntry{}
}

func (b *bank) eng() *sim.Engine { return b.engine }
func (b *bank) timing() Timing   { return b.sys.Timing }
func (b *bank) policy() Policy   { return b.sys.Policy }

// send delivers a message to an L1 after delay. The final Hop of the
// delay traverses the crossbar, so it is subject to port contention when
// LinkOccupancy is configured. The message rides two payload events — a
// bank-local stage, then the crossbar — with the destination in Z.
func (b *bank) send(dst int, m Msg, delay sim.Cycle) {
	m.Src = DirID
	hop := b.timing().Hop
	var local sim.Cycle
	if delay > hop {
		local = delay - hop
	}
	if f := b.sys.faults; f != nil {
		local += f.BankDelay(b.eng().Now())
	}
	p := m.payload(opBankSendStage)
	p.Z = int32(dst)
	b.eng().ScheduleEvent(local, b, p)
}

// sendPinned is send for grants with no follow-up unblock: the address
// is pinned against LLC victim selection until delivery, then unpinned in
// the same event that hands the message to the L1 (no window in between),
// which is why the crossbar delivers the pinned payload back to the bank
// rather than straight to the L1.
func (b *bank) sendPinned(dst int, m Msg, delay sim.Cycle) {
	b.pinned[m.Addr]++
	m.Src = DirID
	hop := b.timing().Hop
	var local sim.Cycle
	if delay > hop {
		local = delay - hop
	}
	if f := b.sys.faults; f != nil {
		local += f.BankDelay(b.eng().Now())
	}
	p := m.payload(opBankSendStagePin)
	p.Z = int32(dst)
	b.eng().ScheduleEvent(local, b, p)
}

// sendHub delivers a message to a cluster hub after delay (two-level
// only; currently the Inv multicast). It mirrors send(): the final Hop of
// the delay traverses the fabric, preceded by a bank-local stage.
func (b *bank) sendHub(c int, m Msg, delay sim.Cycle) {
	m.Src = DirID
	hop := b.timing().Hop
	var local sim.Cycle
	if delay > hop {
		local = delay - hop
	}
	if f := b.sys.faults; f != nil {
		local += f.BankDelay(b.eng().Now())
	}
	p := m.payload(opBankSendStageHub)
	p.Z = int32(c)
	b.eng().ScheduleEvent(local, b, p)
}

// sharerBit returns the sharer-bitmask bit a requestor contributes: its
// cluster under the two-level directory, its L1 id flat.
func (b *bank) sharerBit(src int) uint64 {
	if b.sys.twoLevel {
		return bit(b.sys.clusterOf(src))
	}
	return bit(src)
}

// unpin releases one pin on addr. Pins are taken when a pinned grant
// leaves the bank and released when it lands at the destination L1.
func (b *bank) unpin(addr cache.Addr) {
	if b.pinned[addr]--; b.pinned[addr] <= 0 {
		delete(b.pinned, addr)
	}
}

// Handle dispatches the bank's payload events (see the op constants in
// message.go).
func (b *bank) Handle(p sim.Payload) {
	switch p.Op {
	case opBankDispatch:
		b.sys.deliver(msgFromPayload(p), DirID)
	case opBankSendStage:
		dst := int(p.Z)
		if b.sys.twoLevel {
			// Route through the destination's hub so its record sees
			// every grant and demand entering the cluster.
			c := b.sys.clusterOf(dst)
			p.Op = opHubDown
			b.sys.net.SendEvent(b.sys.bankPort(b.id), b.sys.hubPort(c), b.sys.hubs[c], p)
			return
		}
		p.Op = opL1Recv
		b.sys.net.SendEvent(b.sys.bankPort(b.id), dst, b.sys.L1s[dst], p)
	case opBankSendStagePin:
		if b.sys.twoLevel {
			c := b.sys.clusterOf(int(p.Z))
			p.Op = opHubDownPin
			b.sys.net.SendEvent(b.sys.bankPort(b.id), b.sys.hubPort(c), b.sys.hubs[c], p)
			return
		}
		p.Op = opBankDeliverPin
		b.sys.net.SendEvent(b.sys.bankPort(b.id), int(p.Z), b, p)
	case opBankSendStageHub:
		c := int(p.Z)
		p.Op = opHubInv
		b.sys.net.SendEvent(b.sys.bankPort(b.id), b.sys.hubPort(c), b.sys.hubs[c], p)
	case opBankDeliverPin:
		// The fabric delivered this to the destination L1's port.
		m := msgFromPayload(p)
		b.unpin(m.Addr)
		b.sys.deliver(m, int(p.Z))
	case opBankFetchIssue:
		now := b.eng().Now()
		done := b.sys.Mem.AccessAt(now, p.A, false)
		p.Op = opBankInstall
		p.B = 0 // stall cycles accumulated so far
		b.eng().ScheduleEvent(done-now, b, p)
	case opBankInstall:
		b.installAndGrant(cache.Addr(p.A), p.Z != 0, sim.Cycle(p.B))
	default:
		b.violate(0, "unknown payload op %d", p.Op)
	}
}

// respDelay is the service latency for a grant computed at request-arrival
// time: directory/LLC lookup plus the return hop.
func (b *bank) respDelay() sim.Cycle { return b.timing().LLCTag + b.timing().Hop }

// dirTabEntry is the generic dispatch step, mirroring (*L1).l1Entry:
// resolve (state-of-block, event) in the canonical table and fail with a
// typed protocol violation unless the pair is Defined or Defensive.
func (b *bank) dirTabEntry(addr cache.Addr, ev proto.Event) *proto.DirEntry {
	st := b.protoDirState(addr)
	ent := &b.tab.Dir[st][ev]
	if ent.Class != proto.Defined && ent.Class != proto.Defensive {
		b.violate(addr, "%v in state %v is %v under %s", ev, st, ent.Class, b.tab.Policy)
	}
	return ent
}

// dispatch is the bank's single entry point: the generic table step plus
// a switch from the entry's named action to its handler body. Replays of
// queued requests (maybeComplete) re-enter here and re-resolve against
// the block's current state exactly as a fresh arrival would. A request
// counts once, at the dispatch that actually services or starts it —
// queued arrivals count when replayed, and an Upgrade that re-resolves
// as a GETX (resolveAsStore) is not double-counted.
func (b *bank) dispatch(m Msg) {
	ent := b.dirTabEntry(m.Addr, protoEvent(m.Kind))
	if ent.Act != proto.DirActQueue {
		switch m.Kind {
		case MsgGETS, MsgGETSWP, MsgGETX, MsgUpgrade:
			b.Stats.Requests++
		}
	}
	b.runDir(ent.Act, m)
}

// resolveAsStore re-resolves a raced Upgrade — the requestor's copy was
// recalled or invalidated mid-flight — as a GETX through the same table
// entry a fresh GETX would hit. The request was already counted at
// dispatch, so Stats.Requests is untouched.
func (b *bank) resolveAsStore(m Msg) {
	b.runDir(b.dirTabEntry(m.Addr, proto.EvGETX).Act, m)
}

// runDir executes a table action's handler body.
func (b *bank) runDir(act proto.DirAction, m Msg) {
	switch act {
	case proto.DirActQueue:
		b.enqueue(b.busy[m.Addr], m)
	case proto.DirActFetchLoad:
		b.fetchAndGrant(m, false)
	case proto.DirActFetchStore:
		b.fetchAndGrant(m, true)
	case proto.DirActGrantLoadP:
		b.grantLoad(m, b.entry(m.Addr), b.arr.Probe(m.Addr).Data, ServedLLC, 0)
	case proto.DirActGrantStoreP:
		b.grantStore(m, b.entry(m.Addr), b.arr.Probe(m.Addr).Data, ServedLLC, 0)
	case proto.DirActLoadS:
		b.onLoadShared(m)
	case proto.DirActLoadE:
		b.onLoadExclusive(m)
	case proto.DirActLoadOwner:
		b.arr.Probe(m.Addr)
		b.forwardLoad(m, b.entry(m.Addr))
	case proto.DirActStoreS:
		b.onStoreShared(m)
	case proto.DirActStoreOwner:
		b.onStoreOwner(m)
	case proto.DirActStoreO:
		b.onStoreOwned(m)
	case proto.DirActUpgradeMiss:
		b.resolveAsStore(m)
	case proto.DirActUpgradeS:
		b.onUpgradeShared(m)
	case proto.DirActUpgradeOwner:
		e := b.entry(m.Addr)
		if e.owner != m.Src {
			// Raced: the requestor is no longer the owner (S-MESI recall
			// window). Resolve as GETX.
			b.resolveAsStore(m)
			return
		}
		b.ackUpgrade(m, e)
	case proto.DirActUpgradeO:
		b.onUpgradeOwned(m)
	case proto.DirActPUTS:
		b.onPUTS(m)
	case proto.DirActPUTSStale:
		// Eviction notice for a recalled block: nothing to clear, and
		// PUTS is fire-and-forget (no ack).
	case proto.DirActPUTX:
		b.onPUTX(m)
	case proto.DirActPUTXStale:
		if m.Dirty {
			// The block was recalled while the writeback was in flight;
			// commit the data straight to memory.
			b.sys.memWrite(m.Addr, m.Data)
		}
		b.send(m.Src, Msg{Kind: MsgWBAck, Addr: m.Addr}, b.respDelay())
	case proto.DirActUnblock:
		t := b.busy[m.Addr]
		t.waitUnblock = false
		b.maybeComplete(m.Addr, t)
	case proto.DirActInvAck:
		b.onInvAck(m)
	case proto.DirActInvAckStale:
		// Late ack for a transaction that already completed: dropped.
	case proto.DirActWBData:
		b.onWBData(m)
	default:
		b.violate(m.Addr, "directory action %v unhandled for %v", act, m.Kind)
	}
}

// onInvAck retires one outstanding invalidation ack and performs the
// deferred grant once the last ack arrives.
func (b *bank) onInvAck(m Msg) {
	t := b.busy[m.Addr]
	t.waitAcks--
	if t.waitAcks == 0 && t.pendKind != pendNone {
		kind := t.pendKind
		t.pendKind = pendNone
		// The entry pointer is stable across the ack window: the block
		// stayed busy, so no install or eviction could replace it.
		e := b.entry(m.Addr)
		switch kind {
		case pendStore:
			b.grantStore(t.req, e, t.pendData, ServedLLC, 0)
		case pendUpgrade:
			b.ackUpgrade(t.req, e)
		}
	}
	b.maybeComplete(m.Addr, t)
}

// enqueue parks a request behind addr's in-flight transaction. Without
// phase-priority arbitration this is a FIFO append. With it, the request
// is inserted by arbitration class (stable within a class), except that it never
// overtakes an earlier request from the same source: per-source order is
// load-bearing — replaying a core's GETX ahead of its own still-queued
// PUTX for the block would make the directory see its owner re-request
// the block, a protocol violation.
func (b *bank) enqueue(t *txn, m Msg) {
	if !b.arb {
		t.queued = append(t.queued, m)
		return
	}
	c := queueClass(m.Kind)
	i := len(t.queued)
	for i > 0 {
		prev := t.queued[i-1]
		if prev.Src == m.Src || queueClass(prev.Kind) <= c {
			break
		}
		i--
	}
	if i == len(t.queued) {
		t.queued = append(t.queued, m)
		return
	}
	b.arbPromotions++
	t.queued = append(t.queued, Msg{})
	copy(t.queued[i+1:], t.queued[i:])
	t.queued[i] = m
}

// queueClass is the phase-priority arbitration class of a request kind
// (lower wins): Upgrades (a sharer finishing its store) beat GETX (a new
// writer), which beat loads; PUTS/PUTX keep their arrival order at the
// back.
func queueClass(k MsgKind) uint8 {
	switch k {
	case MsgUpgrade:
		return 0
	case MsgGETX:
		return 1
	case MsgGETS, MsgGETSWP:
		return 2
	}
	return 3
}

// onLoadShared implements GETS/GETS_WP at DirShared (Figure 1(b)/4(b)):
// the designated MESIF forwarder supplies the data cache-to-cache, or
// the LLC serves directly.
func (b *bank) onLoadShared(m Msg) {
	e := b.entry(m.Addr)
	ln := b.arr.Probe(m.Addr)
	// Forward-state decisions key on the REQUESTOR's protection bit, not
	// the entry's: a write-protected requestor must get the constant LLC
	// service in state S even if earlier unprotected accesses left a
	// forwarder behind (otherwise it would inherit F, re-opening the
	// timing channel the SwiftDir adaptation closes).
	if b.policy().ForwardStateFor(m.WP) && e.forwarder >= 0 {
		// MESIF: the designated forwarder supplies the data
		// cache-to-cache; the requestor becomes the new forwarder.
		t := b.newTxn(m)
		t.waitUnblock, t.waitWB = true, true
		b.busy[m.Addr] = t
		b.Stats.Forwards++
		b.send(e.forwarder, Msg{Kind: MsgFwdGETS, Addr: m.Addr, Requestor: m.Src, WP: m.WP}, b.respDelay())
		return
	}
	// Figure 1(b)/4(b): served directly from the LLC.
	e.sharers |= b.sharerBit(m.Src)
	mf := b.policy().ForwardStateFor(m.WP)
	if mf {
		e.forwarder = m.Src
	}
	t := b.newTxn(m)
	t.waitUnblock = true
	b.busy[m.Addr] = t
	b.Stats.LLCServed++
	b.send(m.Src, Msg{Kind: MsgData, Addr: m.Addr, Data: ln.Data, Served: ServedLLC, MakeForward: mf}, b.respDelay())
}

// onLoadExclusive implements GETS/GETS_WP at DirExclusive: the paper's
// crux. The silent-upgrade protocols must forward (the copy may be
// dirty); S-MESI and the E_wp ablation serve the provably clean LLC copy
// and downgrade the owner (Figure 4(a)-(b), 4(c), 4(e)).
func (b *bank) onLoadExclusive(m Msg) {
	e := b.entry(m.Addr)
	ln := b.arr.Probe(m.Addr)
	if e.owner == m.Src {
		b.violate(m.Addr, "owner %d re-requests the block", m.Src)
	}
	if b.policy().ServeExclusiveFromLLC(e.wp) {
		// S-MESI (always) or the E_wp ablation (write-protected
		// blocks): E at the directory is provably clean; serve from
		// the LLC and downgrade the owner.
		owner := e.owner
		e.state = DirShared
		e.sharers = b.sharerBit(owner) | b.sharerBit(m.Src)
		e.owner = -1
		t := b.newTxn(m)
		t.waitUnblock = true
		b.busy[m.Addr] = t
		b.Stats.LLCServed++
		b.send(m.Src, Msg{Kind: MsgData, Addr: m.Addr, Data: ln.Data, Served: ServedLLC}, b.respDelay())
		b.send(owner, Msg{Kind: MsgDowngrade, Addr: m.Addr}, b.respDelay())
		return
	}
	b.forwardLoad(m, e)
}

// forwardLoad relays a GETS to the owner (Figure 1(a)): the directory
// cannot rule out a silent upgrade, so the owner must supply the data.
func (b *bank) forwardLoad(m Msg, e *dirEntry) {
	t := b.newTxn(m)
	t.waitUnblock, t.waitWB = true, true
	b.busy[m.Addr] = t
	b.Stats.Forwards++
	b.send(e.owner, Msg{Kind: MsgFwdGETS, Addr: m.Addr, Requestor: m.Src, WP: m.WP}, b.respDelay())
}

// onWBData absorbs the owner's copy after a forwarded GETS and finalizes
// the sharer set. Under MOESI the owner may instead report that it kept
// the dirty copy (m.Owned): the entry moves to DirOwned and the LLC data
// stay stale.
func (b *bank) onWBData(m Msg) {
	t := b.busy[m.Addr]
	if t == nil {
		b.violate(m.Addr, "WB_Data for idle block")
	}
	e := b.entry(m.Addr)
	ln := b.arr.Lookup(m.Addr)
	if e == nil || ln == nil {
		b.violate(m.Addr, "WB_Data for absent block")
	}
	if m.Owned {
		e.state = DirOwned
		e.owner = m.Src
		e.sharers |= bit(t.req.Src)
		t.waitWB = false
		b.maybeComplete(m.Addr, t)
		return
	}
	if b.policy().ForwardStateFor(t.req.WP) {
		// MESIF: the requestor that just received the data becomes the
		// forwarder (never a write-protected requestor, whose copy must
		// stay plain S).
		e.forwarder = t.req.Src
	}
	if m.Dirty {
		ln.Data = m.Data
		e.llcDirty = true
	}
	if b.sys.twoLevel {
		// Only the E/M owner-downgrade path is reachable: owned and
		// forward-state policies are rejected with Clusters > 1. E/M
		// ownership is globally exclusive and the block stayed busy, so
		// the owner's and requestor's clusters are the only holders (a
		// served-from-writeback owner holds nothing, and its hub record
		// bit was already cleared when its PUTX passed through).
		e.sharers = b.sharerBit(t.req.Src)
		if !m.FromWB {
			e.sharers |= b.sharerBit(m.Src)
		}
	} else if e.state == DirShared || e.state == DirOwned {
		// MESIF forwarder transfer, or a MOESI owned block whose owner
		// downgraded/evicted: other sharers are untouched and must be
		// preserved.
		e.sharers |= bit(t.req.Src)
		if m.FromWB {
			e.sharers &^= bit(m.Src)
		} else {
			e.sharers |= bit(m.Src)
		}
	} else {
		// E/M owner downgrade: owner and requestor are the only copies.
		e.sharers = bit(t.req.Src)
		if !m.FromWB {
			e.sharers |= bit(m.Src)
		}
	}
	e.state = DirShared
	e.owner = -1
	t.waitWB = false
	b.maybeComplete(m.Addr, t)
}

// onStoreShared implements GETX at DirShared: invalidate the other
// sharers, deferring the grant until their acks arrive.
func (b *bank) onStoreShared(m Msg) {
	e := b.entry(m.Addr)
	ln := b.arr.Probe(m.Addr)
	targets := e.sharers
	if !b.sys.twoLevel {
		// Flat: the requestor holds nothing (a GETX is a miss), so its
		// own bit — if stale — is simply dropped. Two-level keeps the
		// requestor's CLUSTER in the target set: other locals of the
		// cluster may hold copies only the hub can enumerate.
		targets &^= bit(m.Src)
	}
	if targets == 0 {
		b.grantStore(m, e, ln.Data, ServedLLC, 0)
		return
	}
	t := b.newTxn(m)
	b.busy[m.Addr] = t
	b.invalidate(m.Addr, targets, m.Src, t)
	t.pendKind, t.pendData = pendStore, ln.Data
}

// onStoreOwner implements GETX at DirExclusive/DirModifiedL1: the owner
// surrenders the block to the requestor via Fwd_GETX.
func (b *bank) onStoreOwner(m Msg) {
	e := b.entry(m.Addr)
	b.arr.Probe(m.Addr)
	if e.owner == m.Src {
		b.violate(m.Addr, "owner %d GETX on own block", m.Src)
	}
	owner := e.owner
	e.state = DirModifiedL1
	e.owner = m.Src
	e.sharers = 0
	t := b.newTxn(m)
	t.waitUnblock = true
	b.busy[m.Addr] = t
	b.Stats.Forwards++
	b.send(owner, Msg{Kind: MsgFwdGETX, Addr: m.Addr, Requestor: m.Src}, b.respDelay())
}

// onStoreOwned implements GETX at DirOwned (MOESI): the data come from
// the O holder; any S copies (and the requestor's own stale S copy never
// exists here: sharers store with Upgrade) must be invalidated in
// parallel.
func (b *bank) onStoreOwned(m Msg) {
	e := b.entry(m.Addr)
	b.arr.Probe(m.Addr)
	owner := e.owner
	targets := e.sharers &^ bit(m.Src)
	t := b.newTxn(m)
	t.waitUnblock = true
	b.busy[m.Addr] = t
	if targets != 0 {
		b.invalidate(m.Addr, targets, m.Src, t)
	}
	e.state = DirModifiedL1
	e.owner = m.Src
	e.sharers = 0
	b.Stats.Forwards++
	b.send(owner, Msg{Kind: MsgFwdGETX, Addr: m.Addr, Requestor: m.Src}, b.respDelay())
}

// onUpgradeShared implements Upgrade at DirShared: S→M in every protocol
// (Figure 2). A requestor that is no longer a sharer lost its copy to a
// racing invalidation and resolves as a full GETX.
func (b *bank) onUpgradeShared(m Msg) {
	e := b.entry(m.Addr)
	if b.sys.twoLevel {
		// The home tracks clusters, not locals, so it cannot grant an
		// upgrade without invalidating the requestor's own cluster (which
		// would invalidate the requestor too). Resolve every shared-state
		// upgrade as a full GETX: the requestor's S copy falls to the hub
		// multicast (its MSHR moves SM^A -> IM^D, the defined raced-
		// upgrade path) and a fresh exclusive grant follows.
		b.resolveAsStore(m)
		return
	}
	if e.sharers&bit(m.Src) == 0 {
		b.resolveAsStore(m)
		return
	}
	targets := e.sharers &^ bit(m.Src)
	if targets == 0 {
		b.ackUpgrade(m, e)
		return
	}
	t := b.newTxn(m)
	b.busy[m.Addr] = t
	b.invalidate(m.Addr, targets, m.Src, t)
	t.pendKind = pendUpgrade
}

// onUpgradeOwned implements Upgrade at DirOwned (MOESI): either the O
// holder upgrades O->M (invalidating the S copies) or a sharer upgrades
// S->M (invalidating the O holder too — safe, since every S copy equals
// the O copy's value).
func (b *bank) onUpgradeOwned(m Msg) {
	e := b.entry(m.Addr)
	if e.owner != m.Src && e.sharers&bit(m.Src) == 0 {
		b.resolveAsStore(m)
		return
	}
	targets := e.sharers &^ bit(m.Src)
	if e.owner != m.Src {
		targets |= bit(e.owner)
	}
	if targets == 0 {
		b.ackUpgrade(m, e)
		return
	}
	t := b.newTxn(m)
	b.busy[m.Addr] = t
	b.invalidate(m.Addr, targets, m.Src, t)
	t.pendKind = pendUpgrade
}

// ackUpgrade grants write permission and records the known-modified owner.
// The LLC line is touched: the paper observes (§V-B) that S-MESI's explicit
// M-state synchronization makes the block look recently used to the LLC's
// LRU policy, occasionally improving retention — an effect that emerges
// here for free.
func (b *bank) ackUpgrade(m Msg, e *dirEntry) {
	e.state = DirModifiedL1
	e.owner = m.Src
	e.sharers = 0
	e.wp = false
	e.forwarder = -1
	b.arr.Touch(m.Addr)
	b.Stats.UpgradeAcks++
	b.sendPinned(m.Src, Msg{Kind: MsgUpgradeAck, Addr: m.Addr}, b.respDelay())
	if t, ok := b.busy[m.Addr]; ok {
		b.maybeComplete(m.Addr, t)
	}
}

// invalidate issues Inv demands and arms the ack counter. Flat, each
// target bit is an L1; two-level, each is a cluster whose hub multicasts
// to its recorded locals and returns ONE aggregate ack.
func (b *bank) invalidate(addr cache.Addr, targets uint64, requestor int, t *txn) {
	n := bits.OnesCount64(targets)
	t.waitAcks = n
	b.Stats.Invals += uint64(n)
	e := b.entry(addr)
	if b.sys.twoLevel {
		for c := 0; targets != 0; c++ {
			if targets&1 != 0 {
				e.sharers &^= bit(c)
				b.sendHub(c, Msg{Kind: MsgInv, Addr: addr, Requestor: requestor}, b.respDelay())
			}
			targets >>= 1
		}
		return
	}
	for id := 0; targets != 0; id++ {
		if targets&1 != 0 {
			e.sharers &^= bit(id)
			b.send(id, Msg{Kind: MsgInv, Addr: addr, Requestor: requestor}, b.respDelay())
		}
		targets >>= 1
	}
}

// onPUTS clears an evicting sharer; PUTS is fire-and-forget (no ack).
// Under the two-level directory a PUTS only reaches the home when the
// evictor's hub determined the whole cluster is (and stays) empty, so
// clearing the cluster bit is exact.
func (b *bank) onPUTS(m Msg) {
	e := b.entry(m.Addr)
	e.sharers &^= b.sharerBit(m.Src)
	if e.forwarder == m.Src {
		// The MESIF forwarder evicted; until the next shared grant there
		// is no designated responder and the LLC serves.
		e.forwarder = -1
	}
	if e.state == DirShared && e.sharers == 0 {
		e.state = DirPresent
	}
}

// onPUTX absorbs an owner's (or demoted holder's) writeback and always
// acks so the evictor can release its writeback buffer entry.
func (b *bank) onPUTX(m Msg) {
	e := b.entry(m.Addr)
	switch {
	case e.owner == m.Src && e.state == DirOwned:
		// The O holder evicts: the LLC absorbs the dirty data; any S
		// copies remain valid sharers of the now-clean LLC line.
		e.owner = -1
		if ln := b.arr.Lookup(m.Addr); ln != nil {
			ln.Data = m.Data
		}
		e.llcDirty = true
		if e.sharers == 0 {
			e.state = DirPresent
		} else {
			e.state = DirShared
		}
	case e.owner == m.Src && (e.state == DirExclusive || e.state == DirModifiedL1):
		e.state = DirPresent
		e.owner = -1
		if m.Dirty {
			if ln := b.arr.Lookup(m.Addr); ln != nil {
				ln.Data = m.Data
			}
			e.llcDirty = true
		}
	default:
		// Stale or non-owner writeback: an S-MESI Downgrade demoted the
		// sender to a sharer, or a MESIF Forward holder evicted. Its
		// copy is gone either way. Two-level, the cluster bit may only
		// be cleared when the hub certified the evictor was the last
		// holder with no grant in flight (ClusterLast); otherwise other
		// locals — or an in-flight grant — still populate the cluster.
		if b.sys.twoLevel {
			if m.ClusterLast {
				e.sharers &^= b.sharerBit(m.Src)
			}
		} else {
			e.sharers &^= bit(m.Src)
		}
		if e.forwarder == m.Src {
			e.forwarder = -1
		}
		if e.state == DirShared && e.sharers == 0 {
			e.state = DirPresent
		}
	}
	b.send(m.Src, Msg{Kind: MsgWBAck, Addr: m.Addr}, b.respDelay())
}

// fetchAndGrant services an LLC miss from DRAM, then installs and grants.
// The request itself lives in the busy transaction; the payload events
// carry only the address, the store flag (Z), and the stall counter (B).
func (b *bank) fetchAndGrant(m Msg, store bool) {
	t := b.newTxn(m)
	b.busy[m.Addr] = t
	b.Stats.MemFetches++
	p := sim.Payload{Op: opBankFetchIssue, A: uint64(m.Addr)}
	if store {
		p.Z = 1
	}
	// The DRAM fetch issues after the LLC tag lookup.
	b.eng().ScheduleEvent(b.timing().LLCTag, b, p)
}

// installAndGrant completes an LLC miss once DRAM has responded. A victim
// set fully covered by busy transactions or in-flight grants is a
// structural stall: retry after a tag-lookup delay. The stall is bounded —
// a set blocked this long means the protocol deadlocked, so fail fast.
// The original request is recovered from the busy transaction, which spans
// the whole fetch.
func (b *bank) installAndGrant(addr cache.Addr, store bool, stalled sim.Cycle) {
	extra, ok := b.install(addr)
	if !ok {
		const stallLimit = 100_000
		if stalled > stallLimit {
			// Every way of the set has been covered by busy transactions or
			// in-flight grants for the whole retry window: the protocol has
			// deadlocked around this set. Fail with the pinned-ways dump.
			panic(&fault.Violation{
				Kind:      fault.KindResource,
				Cycle:     uint64(b.eng().Now()),
				Component: fmt.Sprintf("bank %d", b.id),
				Addr:      uint64(addr),
				Msg:       fmt.Sprintf("no evictable way after %d stall cycles", stalled),
				Dump:      b.dumpSet(addr) + b.sys.DumpState(),
			})
		}
		retry := b.timing().LLCTag
		if retry < 1 {
			retry = 1
		}
		p := sim.Payload{Op: opBankInstall, A: uint64(addr), B: uint64(stalled + retry)}
		if store {
			p.Z = 1
		}
		b.eng().ScheduleEvent(retry, b, p)
		return
	}
	m := b.busy[addr].req
	data := b.sys.memRead(addr)
	b.arr.Lookup(addr).Data = data
	e := b.entry(addr)
	if store {
		b.grantStore(m, e, data, ServedMem, extra)
	} else {
		b.grantLoad(m, e, data, ServedMem, extra)
	}
}

// grantLoad answers a load request with the policy-determined permission.
// SwiftDir's I→S transition for write-protected data happens here: the
// grant for a GETS_WP is never exclusive (Figure 4(a)).
func (b *bank) grantLoad(m Msg, e *dirEntry, data uint64, served ServedBy, extra sim.Cycle) {
	t := b.busy[m.Addr]
	if t == nil {
		t = b.newTxn(m)
		b.busy[m.Addr] = t
	}
	t.waitUnblock = true
	if served == ServedLLC {
		b.Stats.LLCServed++
	}
	e.wp = m.WP
	if b.policy().GrantExclusiveOnLoad(m.WP) {
		e.state = DirExclusive
		e.owner = m.Src
		e.sharers = 0
		e.forwarder = -1
		b.send(m.Src, Msg{Kind: MsgDataExclusive, Addr: m.Addr, Data: data, Served: served, WP: m.WP}, b.respDelay()+extra)
		return
	}
	e.state = DirShared
	e.owner = -1
	e.sharers |= b.sharerBit(m.Src)
	mf := b.policy().ForwardStateFor(m.WP)
	if mf {
		e.forwarder = m.Src
	}
	b.send(m.Src, Msg{Kind: MsgData, Addr: m.Addr, Data: data, Served: served, WP: m.WP, MakeForward: mf}, b.respDelay()+extra)
}

// grantStore answers a GETX (or an Upgrade resolved as GETX).
func (b *bank) grantStore(m Msg, e *dirEntry, data uint64, served ServedBy, extra sim.Cycle) {
	t := b.busy[m.Addr]
	if t == nil {
		t = b.newTxn(m)
		b.busy[m.Addr] = t
	}
	t.waitUnblock = true
	if served == ServedLLC {
		b.Stats.LLCServed++
	}
	e.state = DirModifiedL1
	e.owner = m.Src
	e.sharers = 0
	e.wp = false // written data are no longer treated as write-protected
	e.forwarder = -1
	b.send(m.Src, Msg{Kind: MsgDataExclusive, Addr: m.Addr, Data: data, Served: served}, b.respDelay()+extra)
}

// maybeComplete retires the transaction once every wait clears, then
// replays any queued requests in arrival order.
func (b *bank) maybeComplete(addr cache.Addr, t *txn) {
	if b.busy[addr] != t {
		// t already completed (and possibly a queued request installed a
		// new transaction); a stale caller must not touch it.
		return
	}
	if t.waitUnblock || t.waitWB || t.waitAcks > 0 || t.pendKind != pendNone {
		return
	}
	delete(b.busy, addr)
	// Iterate t.queued in place; t is recycled only after the loop is done
	// with its backing array (a replay may pull a different txn from the
	// pool, never t itself — it is no longer in busy).
	queued := t.queued
	for i, m := range queued {
		if nt, ok := b.busy[addr]; ok {
			// A replayed request re-opened a transaction; this message
			// and the rest stay queued behind it.
			nt.queued = append(nt.queued, queued[i:]...)
			b.freeTxn(t)
			return
		}
		b.Stats.QueuedWakeups++
		b.dispatch(m)
	}
	b.freeTxn(t)
}

// install allocates an LLC line for addr, recalling and evicting a victim
// if necessary. It returns the extra latency the triggering request must
// absorb (the recall penalty), with ok=false when every way of the set is
// covered by a busy transaction or an in-flight grant — a structural
// stall the caller retries once a way frees.
func (b *bank) install(addr cache.Addr) (extra sim.Cycle, ok bool) {
	if b.entries[addr] != nil {
		b.violate(addr, "double install")
	}
	v := b.arr.VictimFiltered(addr, func(a cache.Addr) bool {
		return b.busy[a] != nil || b.pinned[a] > 0
	})
	if v == nil {
		return 0, false
	}
	if v.State.Valid() {
		extra = b.evictLLC(b.arr.AddrOfLine(v, addr), v)
	}
	b.arr.Install(v, addr, cache.Shared)
	e := b.newEntry()
	e.state, e.owner, e.forwarder = DirPresent, -1, -1
	b.entries[addr] = e
	b.lastAddr, b.lastEnt = addr, e
	return extra, true
}

// evictLLC removes a block from the LLC. Inclusion requires recalling any
// L1 copies; the recall is performed synchronously with an approximate
// RecallPenalty charged to the triggering request (see DESIGN.md).
func (b *bank) evictLLC(victim cache.Addr, ln *cache.Line) sim.Cycle {
	e := b.entries[victim]
	if e == nil {
		b.violate(victim, "LLC line without directory entry")
	}
	var extra sim.Cycle
	data := ln.Data
	dirty := e.llcDirty

	recall := func(id int) {
		d, dty, had := b.sys.L1s[id].ForceInvalidate(victim)
		if had && dty {
			data, dirty = d, true
		}
	}
	switch e.state {
	case DirShared:
		b.Stats.Recalls++
		extra = b.timing().RecallPenalty
		if b.sys.twoLevel {
			// The hubs' records — not the home's conservative cluster
			// bits — enumerate the actual holders. Sweep every hub: a
			// record can outlive its home bit only transiently, and the
			// sweep makes the recall exact regardless.
			for _, h := range b.sys.hubs {
				base := h.base()
				for lid, rec := 0, h.record[victim]; rec != 0; lid++ {
					if rec&1 != 0 {
						recall(base + lid)
					}
					rec >>= 1
				}
				delete(h.record, victim)
			}
			break
		}
		for id, s := 0, e.sharers; s != 0; id++ {
			if s&1 != 0 {
				recall(id)
			}
			s >>= 1
		}
	case DirExclusive, DirModifiedL1:
		b.Stats.Recalls++
		extra = b.timing().RecallPenalty
		recall(e.owner)
		if b.sys.twoLevel {
			b.sys.hubs[b.sys.clusterOf(e.owner)].clearBit(victim, e.owner)
		}
	case DirOwned:
		b.Stats.Recalls++
		extra = b.timing().RecallPenalty
		recall(e.owner)
		for id, s := 0, e.sharers; s != 0; id++ {
			if s&1 != 0 {
				recall(id)
			}
			s >>= 1
		}
	}
	if dirty {
		b.Stats.Writebacks++
		b.sys.memWrite(victim, data)
		b.sys.Mem.AccessAt(b.eng().Now(), uint64(victim), true)
	}
	delete(b.entries, victim)
	if victim == b.lastAddr {
		b.lastEnt = nil
	}
	// Victim selection excludes busy and pinned blocks, so no in-flight
	// transaction still references this entry; recycle it.
	b.entryFree = append(b.entryFree, e)
	return extra
}

// violate panics with a typed, contained protocol violation carrying the
// full system state dump. The campaign fence recovers the *fault.Violation
// into a crash bundle instead of a bare stack trace. It never returns.
func (b *bank) violate(addr cache.Addr, format string, args ...any) {
	panic(&fault.Violation{
		Kind:      fault.KindProtocol,
		Cycle:     uint64(b.eng().Now()),
		Component: fmt.Sprintf("bank %d", b.id),
		Addr:      uint64(addr),
		Msg:       fmt.Sprintf(format, args...),
		Dump:      b.sys.DumpState(),
	})
}

// dumpSet renders the install-target set for addr: every valid way's
// block, state, and why it is (or is not) excluded from victim selection.
// Failure-path only.
func (b *bank) dumpSet(addr cache.Addr) string {
	var sb strings.Builder
	set := b.arr.SetIndex(addr)
	fmt.Fprintf(&sb, "bank %d set %d ways (install target %#x):\n", b.id, set, addr)
	b.arr.ForEachValid(func(a cache.Addr, ln *cache.Line) {
		if b.arr.SetIndex(a) != set {
			return
		}
		var why []string
		if b.busy[a] != nil {
			why = append(why, "busy txn")
		}
		if n := b.pinned[a]; n > 0 {
			why = append(why, fmt.Sprintf("pinned x%d", n))
		}
		status := "evictable"
		if len(why) > 0 {
			status = strings.Join(why, ", ")
		}
		fmt.Fprintf(&sb, "  %#x %v: %s\n", a, ln.State, status)
	})
	return sb.String()
}
