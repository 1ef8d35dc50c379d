package coherence

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/intmap"
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

// dirEntry is an LLC line seen as its block's directory entry: the
// entry lives in the line, as a Ruby MESI_Two_Level L2 entry does, so a
// block has an entry exactly while it is LLC-resident. Of cache.Line's
// directory fields, Sharers is the sharer bitmask (L1 ids, or clusters
// under the two-level directory), Owner the owning L1, Fwd the MESIF
// forward-state holder among the sharers (or -1), Pins the in-flight
// Upgrade_ACKs that bar eviction (see pin), and Dir the DirState plus the
// two flags below.
type dirEntry cache.Line

const (
	dirStateMask = 0x07
	dirLLCDirty  = 0x08 // LLC data differs from memory
	dirWP        = 0x10 // block was write-protected at its last load grant
)

func (e *dirEntry) state() DirState     { return DirState(e.Dir & dirStateMask) }
func (e *dirEntry) setState(s DirState) { e.Dir = e.Dir&^dirStateMask | uint8(s) }
func (e *dirEntry) llcDirty() bool      { return e.Dir&dirLLCDirty != 0 }
func (e *dirEntry) wp() bool            { return e.Dir&dirWP != 0 }

func (e *dirEntry) setWP(wp bool) {
	e.Dir &^= dirWP
	if wp {
		e.Dir |= dirWP
	}
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
// controller. The directory entries live in the LLC lines (dirEntry).
type bank struct {
	id     int
	sys    *System
	engine *sim.Engine
	tab    *proto.Table // canonical transition relation (drives dispatch)
	arr    *cache.Array
	busy   intmap.Map[*txn]
	// image is this bank's slice of the shadow memory: blocks homed here.
	image intmap.Map[uint64]
	// pins counts the pins held on this bank's lines (see pin), so
	// pinnedAddrs walks the lines only while some pin is held.
	pins int

	txnFree []*txn // recycled transactions

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
		id:     id,
		sys:    sys,
		engine: sys.Eng,
		tab:    sys.Policy.table,
		arr:    cache.NewArray(params),
		arb:    sys.Policy.phasePriority,
	}
}

// entry returns addr's directory entry, or nil if the block is not
// LLC-resident. It is stats-neutral (a Lookup, not a Probe).
func (b *bank) entry(addr cache.Addr) *dirEntry { return (*dirEntry)(b.arr.Lookup(addr)) }

// line returns the LLC line an entry lives in.
func (e *dirEntry) line() *cache.Line { return (*cache.Line)(e) }

// txnOf returns addr's in-flight transaction, or nil.
func (b *bank) txnOf(addr cache.Addr) *txn {
	t, _ := b.busy.Get(uint64(addr))
	return t
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

func (b *bank) eng() *sim.Engine { return b.engine }
func (b *bank) timing() Timing   { return b.sys.Timing }
func (b *bank) policy() Policy   { return b.sys.Policy }

// send delivers a message to L1 dst after delay.
func (b *bank) send(dst int, m Msg, delay sim.Cycle) { b.stage(opBankSendStage, dst, m, delay) }

// stage schedules the bank-local part of a send to an L1 or, with
// opBankSendStageHub, to a cluster hub: the delay minus its final Hop,
// which traverses the fabric (and so is subject to port contention when
// occupancy is configured), plus any injected bank delay. The stage
// event carries the destination in Z.
func (b *bank) stage(op uint8, z int, m Msg, delay sim.Cycle) {
	m.Src = DirID
	var local sim.Cycle
	if hop := b.timing().Hop; delay > hop {
		local = delay - hop
	}
	if f := b.sys.faults; f != nil {
		local += f.BankDelay(b.eng().Now())
	}
	p := m.payload(op)
	p.Z = int32(z)
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

// pin bars addr's line from LLC victim selection while a grant is in
// flight. An Upgrade_ACK carries no follow-up unblock, so no busy
// transaction covers its flight; the pin keeps victim selection from
// recalling the block before the grant lands (which would orphan the
// requestor's MSHR). ackUpgrade takes the pin when the grant leaves the
// bank; System.deliver releases it (unpin) in the event that hands the
// grant to the L1, so a quiesced bank holds none.
func (b *bank) pin(addr cache.Addr, e *dirEntry) {
	if e.Pins == math.MaxUint8 {
		b.violate(addr, "pin count overflow")
	}
	e.Pins++
	b.pins++
}

// unpin releases one pin on addr. An unpin without a pin is a protocol
// bug.
func (b *bank) unpin(addr cache.Addr) {
	e := b.entry(addr)
	if e == nil || e.Pins == 0 {
		b.violate(addr, "unpin of an unpinned block")
	}
	e.Pins--
	b.pins--
}

// Handle dispatches the bank's payload events (see the op constants in
// message.go).
func (b *bank) Handle(p sim.Payload) {
	switch p.Op {
	case opBankDispatch:
		b.sys.deliver(msgFromPayload(p), DirID)
	case opBankSendStage:
		b.sys.toL1(b.sys.bankPort(b.id), int(p.Z), p)
	case opBankSendStageHub:
		c := int(p.Z)
		p.Op = opHubInv
		b.sys.net.SendEvent(b.sys.bankPort(b.id), b.sys.hubPort(c), b.sys.hubs[c], p)
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
func (b *bank) dirTabEntry(addr cache.Addr, st proto.DirState, ev proto.Event) *proto.DirEntry {
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
	e, st := b.lookup(m.Addr)
	ent := b.dirTabEntry(m.Addr, st, protoEvent(m.Kind))
	if ent.Act != proto.DirActQueue {
		switch m.Kind {
		case MsgGETS, MsgGETSWP, MsgGETX, MsgUpgrade:
			b.Stats.Requests++
		}
	}
	b.runDir(ent.Act, m, e)
}

// resolveAsStore re-resolves a raced Upgrade — the requestor's copy was
// recalled or invalidated mid-flight — as a GETX through the same table
// entry a fresh GETX would hit. The request was already counted at
// dispatch, so Stats.Requests is untouched.
func (b *bank) resolveAsStore(m Msg, e *dirEntry) {
	_, st := b.lookup(m.Addr)
	b.runDir(b.dirTabEntry(m.Addr, st, proto.EvGETX).Act, m, e)
}

// runDir executes a table action's handler body. e is the block's entry
// as lookup found it at dispatch: nil when the block is not resident,
// and nil for a busy block, whose handlers that need the entry look it
// up themselves. The handlers neither install nor evict, so e stays
// valid throughout. An action that reads the LLC data counts an array
// hit (ProbeLine) where the controller has always probed the array.
func (b *bank) runDir(act proto.DirAction, m Msg, e *dirEntry) {
	switch act {
	case proto.DirActQueue:
		b.enqueue(b.txnOf(m.Addr), m)
	case proto.DirActFetchLoad:
		b.fetchAndGrant(m, false)
	case proto.DirActFetchStore:
		b.fetchAndGrant(m, true)
	case proto.DirActGrantLoadP:
		b.arr.ProbeLine(e.line())
		b.grantLoad(m, e, e.Data, ServedLLC, 0)
	case proto.DirActGrantStoreP:
		b.arr.ProbeLine(e.line())
		b.grantStore(m, e, e.Data, ServedLLC, 0)
	case proto.DirActLoadS:
		b.onLoadShared(m, e)
	case proto.DirActLoadE:
		b.onLoadExclusive(m, e)
	case proto.DirActLoadOwner:
		b.arr.ProbeLine(e.line())
		b.forwardLoad(m, e)
	case proto.DirActStoreS:
		b.onStoreShared(m, e)
	case proto.DirActStoreOwner:
		b.onStoreOwner(m, e)
	case proto.DirActStoreO:
		b.onStoreOwned(m, e)
	case proto.DirActUpgradeMiss:
		b.resolveAsStore(m, e)
	case proto.DirActUpgradeS:
		b.onUpgradeShared(m, e)
	case proto.DirActUpgradeOwner:
		if int(e.Owner) != m.Src {
			// Raced: the requestor is no longer the owner (S-MESI recall
			// window). Resolve as GETX.
			b.resolveAsStore(m, e)
			return
		}
		b.ackUpgrade(m, e)
	case proto.DirActUpgradeO:
		b.onUpgradeOwned(m, e)
	case proto.DirActPUTS:
		b.onPUTS(m, e)
	case proto.DirActPUTSStale:
		// Eviction notice for a recalled block: nothing to clear, and
		// PUTS is fire-and-forget (no ack).
	case proto.DirActPUTX:
		b.onPUTX(m, e)
	case proto.DirActPUTXStale:
		if m.Dirty {
			// The block was recalled while the writeback was in flight;
			// commit the data straight to memory.
			b.sys.memWrite(m.Addr, m.Data)
		}
		b.send(m.Src, Msg{Kind: MsgWBAck, Addr: m.Addr}, b.respDelay())
	case proto.DirActUnblock:
		t := b.txnOf(m.Addr)
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
	t := b.txnOf(m.Addr)
	t.waitAcks--
	if t.waitAcks == 0 && t.pendKind != pendNone {
		kind := t.pendKind
		t.pendKind = pendNone
		// The block stayed busy across the ack window, so no install or
		// eviction replaced its line.
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
func (b *bank) onLoadShared(m Msg, e *dirEntry) {
	b.arr.ProbeLine(e.line())
	// Forward-state decisions key on the REQUESTOR's protection bit, not
	// the entry's: a write-protected requestor must get the constant LLC
	// service in state S even if earlier unprotected accesses left a
	// forwarder behind (otherwise it would inherit F, re-opening the
	// timing channel the SwiftDir adaptation closes).
	if b.policy().ForwardStateFor(m.WP) && e.Fwd >= 0 {
		// MESIF: the designated forwarder supplies the data
		// cache-to-cache; the requestor becomes the new forwarder.
		t := b.newTxn(m)
		t.waitUnblock, t.waitWB = true, true
		b.busy.Set(uint64(m.Addr), t)
		b.Stats.Forwards++
		b.send(int(e.Fwd), Msg{Kind: MsgFwdGETS, Addr: m.Addr, Requestor: m.Src, WP: m.WP}, b.respDelay())
		return
	}
	// Figure 1(b)/4(b): served directly from the LLC.
	e.Sharers |= b.sharerBit(m.Src)
	mf := b.policy().ForwardStateFor(m.WP)
	if mf {
		e.Fwd = int16(m.Src)
	}
	t := b.newTxn(m)
	t.waitUnblock = true
	b.busy.Set(uint64(m.Addr), t)
	b.Stats.LLCServed++
	b.send(m.Src, Msg{Kind: MsgData, Addr: m.Addr, Data: e.Data, Served: ServedLLC, MakeForward: mf}, b.respDelay())
}

// onLoadExclusive implements GETS/GETS_WP at DirExclusive: the paper's
// crux. The silent-upgrade protocols must forward (the copy may be
// dirty); S-MESI and the E_wp ablation serve the provably clean LLC copy
// and downgrade the owner (Figure 4(a)-(b), 4(c), 4(e)).
func (b *bank) onLoadExclusive(m Msg, e *dirEntry) {
	b.arr.ProbeLine(e.line())
	if int(e.Owner) == m.Src {
		b.violate(m.Addr, "owner %d re-requests the block", m.Src)
	}
	if b.policy().ServeExclusiveFromLLC(e.wp()) {
		// S-MESI (always) or the E_wp ablation (write-protected
		// blocks): E at the directory is provably clean; serve from
		// the LLC and downgrade the owner.
		owner := int(e.Owner)
		e.setState(DirShared)
		e.Sharers = b.sharerBit(owner) | b.sharerBit(m.Src)
		e.Owner = -1
		t := b.newTxn(m)
		t.waitUnblock = true
		b.busy.Set(uint64(m.Addr), t)
		b.Stats.LLCServed++
		b.send(m.Src, Msg{Kind: MsgData, Addr: m.Addr, Data: e.Data, Served: ServedLLC}, b.respDelay())
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
	b.busy.Set(uint64(m.Addr), t)
	b.Stats.Forwards++
	b.send(int(e.Owner), Msg{Kind: MsgFwdGETS, Addr: m.Addr, Requestor: m.Src, WP: m.WP}, b.respDelay())
}

// onWBData absorbs the owner's copy after a forwarded GETS and finalizes
// the sharer set. Under MOESI the owner may instead report that it kept
// the dirty copy (m.Owned): the entry moves to DirOwned and the LLC data
// stay stale.
func (b *bank) onWBData(m Msg) {
	t := b.txnOf(m.Addr)
	if t == nil {
		b.violate(m.Addr, "WB_Data for idle block")
	}
	e := b.entry(m.Addr)
	if e == nil {
		b.violate(m.Addr, "WB_Data for absent block")
	}
	if m.Owned {
		e.setState(DirOwned)
		e.Owner = int16(m.Src)
		e.Sharers |= bit(t.req.Src)
		t.waitWB = false
		b.maybeComplete(m.Addr, t)
		return
	}
	if b.policy().ForwardStateFor(t.req.WP) {
		// MESIF: the requestor that just received the data becomes the
		// forwarder (never a write-protected requestor, whose copy must
		// stay plain S).
		e.Fwd = int16(t.req.Src)
	}
	if m.Dirty {
		e.Data = m.Data
		e.Dir |= dirLLCDirty
	}
	if b.sys.twoLevel {
		// Only the E/M owner-downgrade path is reachable: owned and
		// forward-state policies are rejected with Clusters > 1. E/M
		// ownership is globally exclusive and the block stayed busy, so
		// the owner's and requestor's clusters are the only holders (a
		// served-from-writeback owner holds nothing, and its hub record
		// bit was already cleared when its PUTX passed through).
		e.Sharers = b.sharerBit(t.req.Src)
		if !m.FromWB {
			e.Sharers |= b.sharerBit(m.Src)
		}
	} else if st := e.state(); st == DirShared || st == DirOwned {
		// MESIF forwarder transfer, or a MOESI owned block whose owner
		// downgraded/evicted: other sharers are untouched and must be
		// preserved.
		e.Sharers |= bit(t.req.Src)
		if m.FromWB {
			e.Sharers &^= bit(m.Src)
		} else {
			e.Sharers |= bit(m.Src)
		}
	} else {
		// E/M owner downgrade: owner and requestor are the only copies.
		e.Sharers = bit(t.req.Src)
		if !m.FromWB {
			e.Sharers |= bit(m.Src)
		}
	}
	e.setState(DirShared)
	e.Owner = -1
	t.waitWB = false
	b.maybeComplete(m.Addr, t)
}

// onStoreShared implements GETX at DirShared: invalidate the other
// sharers, deferring the grant until their acks arrive.
func (b *bank) onStoreShared(m Msg, e *dirEntry) {
	b.arr.ProbeLine(e.line())
	targets := e.Sharers
	if !b.sys.twoLevel {
		// Flat: the requestor holds nothing (a GETX is a miss), so its
		// own bit — if stale — is simply dropped. Two-level keeps the
		// requestor's CLUSTER in the target set: other locals of the
		// cluster may hold copies only the hub can enumerate.
		targets &^= bit(m.Src)
	}
	if targets == 0 {
		b.grantStore(m, e, e.Data, ServedLLC, 0)
		return
	}
	t := b.newTxn(m)
	b.busy.Set(uint64(m.Addr), t)
	b.invalidate(m.Addr, e, targets, m.Src, t)
	t.pendKind, t.pendData = pendStore, e.Data
}

// onStoreOwner implements GETX at DirExclusive/DirModifiedL1: the owner
// surrenders the block to the requestor via Fwd_GETX.
func (b *bank) onStoreOwner(m Msg, e *dirEntry) {
	b.arr.ProbeLine(e.line())
	if int(e.Owner) == m.Src {
		b.violate(m.Addr, "owner %d GETX on own block", m.Src)
	}
	owner := int(e.Owner)
	e.setState(DirModifiedL1)
	e.Owner = int16(m.Src)
	e.Sharers = 0
	t := b.newTxn(m)
	t.waitUnblock = true
	b.busy.Set(uint64(m.Addr), t)
	b.Stats.Forwards++
	b.send(owner, Msg{Kind: MsgFwdGETX, Addr: m.Addr, Requestor: m.Src}, b.respDelay())
}

// onStoreOwned implements GETX at DirOwned (MOESI): the data come from
// the O holder; any S copies (and the requestor's own stale S copy never
// exists here: sharers store with Upgrade) must be invalidated in
// parallel.
func (b *bank) onStoreOwned(m Msg, e *dirEntry) {
	b.arr.ProbeLine(e.line())
	owner := int(e.Owner)
	targets := e.Sharers &^ bit(m.Src)
	t := b.newTxn(m)
	t.waitUnblock = true
	b.busy.Set(uint64(m.Addr), t)
	if targets != 0 {
		b.invalidate(m.Addr, e, targets, m.Src, t)
	}
	e.setState(DirModifiedL1)
	e.Owner = int16(m.Src)
	e.Sharers = 0
	b.Stats.Forwards++
	b.send(owner, Msg{Kind: MsgFwdGETX, Addr: m.Addr, Requestor: m.Src}, b.respDelay())
}

// onUpgradeShared implements Upgrade at DirShared: S→M in every protocol
// (Figure 2). A requestor that is no longer a sharer lost its copy to a
// racing invalidation and resolves as a full GETX.
func (b *bank) onUpgradeShared(m Msg, e *dirEntry) {
	if b.sys.twoLevel {
		// The home tracks clusters, not locals, so it cannot grant an
		// upgrade without invalidating the requestor's own cluster (which
		// would invalidate the requestor too). Resolve every shared-state
		// upgrade as a full GETX: the requestor's S copy falls to the hub
		// multicast (its MSHR moves SM^A -> IM^D, the defined raced-
		// upgrade path) and a fresh exclusive grant follows.
		b.resolveAsStore(m, e)
		return
	}
	if e.Sharers&bit(m.Src) == 0 {
		b.resolveAsStore(m, e)
		return
	}
	targets := e.Sharers &^ bit(m.Src)
	if targets == 0 {
		b.ackUpgrade(m, e)
		return
	}
	t := b.newTxn(m)
	b.busy.Set(uint64(m.Addr), t)
	b.invalidate(m.Addr, e, targets, m.Src, t)
	t.pendKind = pendUpgrade
}

// onUpgradeOwned implements Upgrade at DirOwned (MOESI): either the O
// holder upgrades O->M (invalidating the S copies) or a sharer upgrades
// S->M (invalidating the O holder too — safe, since every S copy equals
// the O copy's value).
func (b *bank) onUpgradeOwned(m Msg, e *dirEntry) {
	owner := int(e.Owner)
	if owner != m.Src && e.Sharers&bit(m.Src) == 0 {
		b.resolveAsStore(m, e)
		return
	}
	targets := e.Sharers &^ bit(m.Src)
	if owner != m.Src {
		targets |= bit(owner)
	}
	if targets == 0 {
		b.ackUpgrade(m, e)
		return
	}
	t := b.newTxn(m)
	b.busy.Set(uint64(m.Addr), t)
	b.invalidate(m.Addr, e, targets, m.Src, t)
	t.pendKind = pendUpgrade
}

// ackUpgrade grants write permission and records the known-modified owner.
// The LLC line is touched: the paper observes (§V-B) that S-MESI's explicit
// M-state synchronization makes the block look recently used to the LLC's
// LRU policy, occasionally improving retention — an effect that emerges
// here for free.
func (b *bank) ackUpgrade(m Msg, e *dirEntry) {
	e.setState(DirModifiedL1)
	e.Owner = int16(m.Src)
	e.Sharers = 0
	e.setWP(false)
	e.Fwd = -1
	b.arr.Touch(m.Addr)
	b.Stats.UpgradeAcks++
	// Upgrade_ACK is the one grant with no follow-up unblock, so no busy
	// transaction covers its flight: pin the block against LLC victim
	// selection until the grant lands.
	b.pin(m.Addr, e)
	b.send(m.Src, Msg{Kind: MsgUpgradeAck, Addr: m.Addr}, b.respDelay())
	if t := b.txnOf(m.Addr); t != nil {
		b.maybeComplete(m.Addr, t)
	}
}

// invalidate issues Inv demands and arms the ack counter. Flat, each
// target bit is an L1; two-level, each is a cluster whose hub multicasts
// to its recorded locals and returns ONE aggregate ack.
func (b *bank) invalidate(addr cache.Addr, e *dirEntry, targets uint64, requestor int, t *txn) {
	n := bits.OnesCount64(targets)
	t.waitAcks = n
	b.Stats.Invals += uint64(n)
	if b.sys.twoLevel {
		for c := 0; targets != 0; c++ {
			if targets&1 != 0 {
				e.Sharers &^= bit(c)
				b.stage(opBankSendStageHub, c, Msg{Kind: MsgInv, Addr: addr, Requestor: requestor}, b.respDelay())
			}
			targets >>= 1
		}
		return
	}
	for id := 0; targets != 0; id++ {
		if targets&1 != 0 {
			e.Sharers &^= bit(id)
			b.send(id, Msg{Kind: MsgInv, Addr: addr, Requestor: requestor}, b.respDelay())
		}
		targets >>= 1
	}
}

// onPUTS clears an evicting sharer; PUTS is fire-and-forget (no ack).
// Under the two-level directory a PUTS only reaches the home when the
// evictor's hub determined the whole cluster is (and stays) empty, so
// clearing the cluster bit is exact.
func (b *bank) onPUTS(m Msg, e *dirEntry) {
	e.Sharers &^= b.sharerBit(m.Src)
	if int(e.Fwd) == m.Src {
		// The MESIF forwarder evicted; until the next shared grant there
		// is no designated responder and the LLC serves.
		e.Fwd = -1
	}
	if e.state() == DirShared && e.Sharers == 0 {
		e.setState(DirPresent)
	}
}

// onPUTX absorbs an owner's (or demoted holder's) writeback and always
// acks so the evictor can release its writeback buffer entry.
func (b *bank) onPUTX(m Msg, e *dirEntry) {
	owner, st := int(e.Owner), e.state()
	switch {
	case owner == m.Src && st == DirOwned:
		// The O holder evicts: the LLC absorbs the dirty data; any S
		// copies remain valid sharers of the now-clean LLC line.
		e.Owner = -1
		e.Data = m.Data
		e.Dir |= dirLLCDirty
		if e.Sharers == 0 {
			e.setState(DirPresent)
		} else {
			e.setState(DirShared)
		}
	case owner == m.Src && (st == DirExclusive || st == DirModifiedL1):
		e.setState(DirPresent)
		e.Owner = -1
		if m.Dirty {
			e.Data = m.Data
			e.Dir |= dirLLCDirty
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
				e.Sharers &^= b.sharerBit(m.Src)
			}
		} else {
			e.Sharers &^= bit(m.Src)
		}
		if int(e.Fwd) == m.Src {
			e.Fwd = -1
		}
		if st == DirShared && e.Sharers == 0 {
			e.setState(DirPresent)
		}
	}
	b.send(m.Src, Msg{Kind: MsgWBAck, Addr: m.Addr}, b.respDelay())
}

// fetchAndGrant services an LLC miss from DRAM, then installs and grants.
// The request itself lives in the busy transaction; the payload events
// carry only the address, the store flag (Z), and the stall counter (B).
func (b *bank) fetchAndGrant(m Msg, store bool) {
	t := b.newTxn(m)
	b.busy.Set(uint64(m.Addr), t)
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
	e, extra := b.install(addr)
	if e == nil {
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
	m := b.txnOf(addr).req
	data := b.sys.memRead(addr)
	e.Data = data
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
	t := b.txnOf(m.Addr)
	if t == nil {
		t = b.newTxn(m)
		b.busy.Set(uint64(m.Addr), t)
	}
	t.waitUnblock = true
	if served == ServedLLC {
		b.Stats.LLCServed++
	}
	e.setWP(m.WP)
	if b.policy().GrantExclusiveOnLoad(m.WP) {
		e.setState(DirExclusive)
		e.Owner = int16(m.Src)
		e.Sharers = 0
		e.Fwd = -1
		b.send(m.Src, Msg{Kind: MsgDataExclusive, Addr: m.Addr, Data: data, Served: served, WP: m.WP}, b.respDelay()+extra)
		return
	}
	e.setState(DirShared)
	e.Owner = -1
	e.Sharers |= b.sharerBit(m.Src)
	mf := b.policy().ForwardStateFor(m.WP)
	if mf {
		e.Fwd = int16(m.Src)
	}
	b.send(m.Src, Msg{Kind: MsgData, Addr: m.Addr, Data: data, Served: served, WP: m.WP, MakeForward: mf}, b.respDelay()+extra)
}

// grantStore answers a GETX (or an Upgrade resolved as GETX).
func (b *bank) grantStore(m Msg, e *dirEntry, data uint64, served ServedBy, extra sim.Cycle) {
	t := b.txnOf(m.Addr)
	if t == nil {
		t = b.newTxn(m)
		b.busy.Set(uint64(m.Addr), t)
	}
	t.waitUnblock = true
	if served == ServedLLC {
		b.Stats.LLCServed++
	}
	e.setState(DirModifiedL1)
	e.Owner = int16(m.Src)
	e.Sharers = 0
	e.setWP(false) // written data are no longer treated as write-protected
	e.Fwd = -1
	b.send(m.Src, Msg{Kind: MsgDataExclusive, Addr: m.Addr, Data: data, Served: served}, b.respDelay()+extra)
}

// maybeComplete retires the transaction once every wait clears, then
// replays any queued requests in arrival order.
func (b *bank) maybeComplete(addr cache.Addr, t *txn) {
	if b.txnOf(addr) != t {
		// t already completed (and possibly a queued request installed a
		// new transaction); a stale caller must not touch it.
		return
	}
	if t.waitUnblock || t.waitWB || t.waitAcks > 0 || t.pendKind != pendNone {
		return
	}
	b.busy.Delete(uint64(addr))
	// Iterate t.queued in place; t is recycled only after the loop is done
	// with its backing array (a replay may pull a different txn from the
	// pool, never t itself — it is no longer in busy).
	queued := t.queued
	for i, m := range queued {
		if nt := b.txnOf(addr); nt != nil {
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
// if necessary, and returns its fresh entry (DirPresent, no owner,
// sharers, forwarder or pins) and the extra latency the triggering
// request must absorb (the recall penalty). It returns a nil entry when
// every way of the set is covered by a busy transaction or an in-flight
// grant — a structural stall the caller retries once a way frees.
func (b *bank) install(addr cache.Addr) (*dirEntry, sim.Cycle) {
	if b.entry(addr) != nil {
		b.violate(addr, "double install")
	}
	v := b.arr.VictimFiltered(addr, func(a cache.Addr, ln *cache.Line) bool {
		return ln.Pins != 0 || b.busy.Has(uint64(a))
	})
	if v == nil {
		return nil, 0
	}
	var extra sim.Cycle
	if v.State.Valid() {
		extra = b.evictLLC(b.arr.AddrOfLine(v, addr), (*dirEntry)(v))
	}
	b.arr.Install(v, addr, cache.Shared)
	e := (*dirEntry)(v)
	e.setState(DirPresent)
	e.Owner, e.Fwd = -1, -1
	return e, extra
}

// evictLLC removes a block from the LLC. Inclusion requires recalling any
// L1 copies; the recall is performed synchronously with an approximate
// RecallPenalty charged to the triggering request (see DESIGN.md).
func (b *bank) evictLLC(victim cache.Addr, e *dirEntry) sim.Cycle {
	var extra sim.Cycle
	data := e.Data
	dirty := e.llcDirty()

	recall := func(id int) {
		d, dty, had := b.sys.L1s[id].ForceInvalidate(victim)
		if had && dty {
			data, dirty = d, true
		}
	}
	switch e.state() {
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
				rec, _ := h.record.Get(uint64(victim))
				for lid := 0; rec != 0; lid++ {
					if rec&1 != 0 {
						recall(base + lid)
					}
					rec >>= 1
				}
				h.record.Delete(uint64(victim))
			}
			break
		}
		for id, s := 0, e.Sharers; s != 0; id++ {
			if s&1 != 0 {
				recall(id)
			}
			s >>= 1
		}
	case DirExclusive, DirModifiedL1:
		b.Stats.Recalls++
		extra = b.timing().RecallPenalty
		owner := int(e.Owner)
		recall(owner)
		if b.sys.twoLevel {
			b.sys.hubs[b.sys.clusterOf(owner)].clearBit(victim, owner)
		}
	case DirOwned:
		b.Stats.Recalls++
		extra = b.timing().RecallPenalty
		recall(int(e.Owner))
		for id, s := 0, e.Sharers; s != 0; id++ {
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
	// Victim selection excludes busy and pinned blocks, so no in-flight
	// transaction still references this entry; Install starts the line's
	// next entry from zero.
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
		if b.busy.Has(uint64(a)) {
			why = append(why, "busy txn")
		}
		if n := ln.Pins; n > 0 {
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
