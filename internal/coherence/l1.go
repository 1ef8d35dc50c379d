package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/proto"
	"repro/internal/sim"
)

// ServedBy classifies where a completed access was served from; it is the
// quantity the E/S timing channel observes.
type ServedBy uint8

const (
	ServedL1      ServedBy = iota // private L1 hit (incl. silent upgrade)
	ServedLLC                     // two-hop LLC service
	ServedRemote                  // three-hop forwarded service from another L1
	ServedMem                     // main-memory fetch
	ServedUpgrade                 // store completed via an Upgrade round trip
)

func (s ServedBy) String() string {
	switch s {
	case ServedL1:
		return "L1"
	case ServedLLC:
		return "LLC"
	case ServedRemote:
		return "Remote"
	case ServedMem:
		return "Mem"
	case ServedUpgrade:
		return "Upgrade"
	}
	return fmt.Sprintf("ServedBy(%d)", uint8(s))
}

// Access is one CPU-side memory request presented to an L1 controller.
type Access struct {
	Addr  cache.Addr // physical address
	Write bool
	WP    bool   // write-protection bit delivered by the MMU with the translation
	Value uint64 // store token (ignored for loads)

	// Seq orders same-core stores: the submitting context stamps each
	// store with a strictly increasing sequence number (0 = unordered).
	// Stores can reach the controller out of program order — a store
	// paying a page-table walk is overtaken by a younger same-block store
	// submitted behind it with a hot TLB — and the controller uses Seq to
	// keep the *data* application in program order regardless of arrival
	// order (see applyStore). Loads leave it zero.
	Seq uint64

	// MissPenalty is charged once, before the coherence request leaves
	// the L1, if the access misses. It models virtually-indexed L1
	// architectures (VIVT) that perform address translation only on the
	// miss path (§IV-B of the paper).
	MissPenalty sim.Cycle

	// Extra is latency the submitter already spent (e.g. translation
	// charged before the access reached the L1); it is added to the
	// reported Latency without being simulated again.
	Extra sim.Cycle

	// Done is invoked exactly once at completion. It may be nil.
	Done func(AccessResult)

	start sim.Cycle
}

// AccessResult reports how an access completed.
type AccessResult struct {
	Latency sim.Cycle
	Value   uint64 // loaded value (or the stored token for writes)
	Served  ServedBy
	Write   bool
	WP      bool
}

// Transient is an L1 MSHR state (Table I; IM^D and SM^A are standard
// MESI_Two_Level companions of the paper's IS^D and EM^A).
type Transient uint8

const (
	TrISD Transient = iota // I->S/E, waiting for Data
	TrIMD                  // I->M, waiting for Data_Exclusive
	TrSMA                  // S->M, waiting for Upgrade ACK
	TrEMA                  // E->M, waiting for LLC's ACK (S-MESI only)
)

// String renders the proto-table name for the state, so MSHR dumps,
// transcripts, and relation entries are spelled identically by
// construction (there is no second name table to drift).
func (t Transient) String() string {
	return (proto.L1ISD + proto.L1State(t)).String()
}

type mshr struct {
	state   Transient
	wp      bool
	pending []Access // pending[0] initiated the transaction
}

// grantOf maps a data-response kind to the line state it grants; the
// mapping is shared by first delivery (Receive) and install-stall retries.
func grantOf(m Msg) cache.LineState {
	switch m.Kind {
	case MsgDataExclusive:
		return cache.Exclusive
	case MsgDataFromOwner:
		if m.Excl {
			return cache.Exclusive
		}
		return cache.Shared
	default:
		return cache.Shared
	}
}

type wbEntry struct {
	data  uint64
	dirty bool
}

// L1Stats counts controller activity.
type L1Stats struct {
	Loads, Stores       uint64
	LoadHits, StoreHits uint64
	SilentUpgrades      uint64 // E->M without LLC communication
	ExplicitUpgrades    uint64 // Upgrade round trips (S->M, or E->M under S-MESI)
	Writebacks          uint64
	FwdsServed          uint64 // forwarded requests answered for the directory
	Invalidations       uint64 // lines dropped on Inv/FwdGETX/recall
	Prefetches          uint64 // next-line prefetches issued

	// Fast-path split: FastHits counts accesses completed synchronously by
	// TryFastAccess; SlowPath counts accesses submitted to the event path
	// via Request. FastHits+SlowPath is the total CPU-side access count.
	// Both are observability-only and excluded from report byte-identity.
	FastHits uint64
	SlowPath uint64
}

// L1 is a private cache controller. It owns a set-associative array, an
// MSHR table (one outstanding transaction per block, with merging), and a
// writeback buffer that answers forwarded requests racing an eviction.
//
// All timed work is scheduled through sim.Payload events handled by
// (*L1).Handle; in-flight Access values live in a free-listed slot pool
// and MSHRs are recycled at transaction completion, so a steady-state hit
// or miss allocates nothing.
type L1 struct {
	ID     int
	sys    *System
	eng    *sim.Engine
	timing Timing
	policy Policy
	tab    *proto.Table // canonical transition relation (drives dispatch)
	arr    *cache.Array

	mshrs map[cache.Addr]*mshr
	wb    map[cache.Addr]wbEntry

	// storeSeqs records, per block, the highest store sequence number this
	// core has applied to it. A store whose Seq is below the recorded value
	// arrived after an architecturally younger same-core store (reordered
	// by an asymmetric translation delay) and must not clobber its data.
	// Entries persist across evictions — the window where the suppression
	// matters can span a refill — and the map is bounded by the number of
	// distinct blocks the core ever stores to.
	storeSeqs map[cache.Addr]uint64

	mshrFree []*mshr  // recycled MSHRs
	accs     []Access // slots for accesses riding tag-lookup/translation events
	accFree  []int32  // free slot indexes

	prefetch PrefetchMode

	Stats L1Stats
}

// newL1 wires a controller into its owning system.
func newL1(id int, sys *System, params cache.Params) *L1 {
	return &L1{
		ID:        id,
		sys:       sys,
		eng:       sys.Eng,
		timing:    sys.Timing,
		policy:    sys.Policy,
		tab:       sys.Policy.table,
		arr:       cache.NewArray(params),
		mshrs:     make(map[cache.Addr]*mshr),
		wb:        make(map[cache.Addr]wbEntry),
		storeSeqs: make(map[cache.Addr]uint64),
	}
}

// toDir schedules delivery of m toward the owning bank (adds Hop via the
// fabric). Under the two-level directory the message funnels through the
// cluster hub, which filters or forwards it (one extra fabric traversal).
func (l *L1) toDir(m Msg) {
	if l.sys.twoLevel {
		c := l.sys.clusterOf(l.ID)
		l.sys.net.SendEvent(l.ID, l.sys.hubPort(c), l.sys.hubs[c], m.payload(opHubUp))
		return
	}
	l.sys.toHome(l.ID, m.payload(opBankDispatch))
}

// toL1 schedules delivery of m to a peer controller (see System.toL1).
func (l *L1) toL1(dst int, m Msg) { l.sys.toL1(l.ID, dst, m.payload(opL1Recv)) }

// putAccess parks an in-flight access in the slot pool and returns its
// index; takeAccess releases the slot. The pool exists so tag-lookup and
// deferred-translation events can carry the access (its Done closure
// included) without capturing it in a per-event closure.
func (l *L1) putAccess(a Access) int32 {
	if n := len(l.accFree); n > 0 {
		i := l.accFree[n-1]
		l.accFree = l.accFree[:n-1]
		l.accs[i] = a
		return i
	}
	l.accs = append(l.accs, a)
	return int32(len(l.accs) - 1)
}

func (l *L1) takeAccess(i int32) Access {
	a := l.accs[i]
	l.accs[i] = Access{} // drop the Done reference held by the slot
	l.accFree = append(l.accFree, i)
	return a
}

// newMSHR takes a recycled MSHR (or allocates the pool's next one) and
// initializes it for a fresh transaction.
func (l *L1) newMSHR(state Transient, wp bool) *mshr {
	var ms *mshr
	if n := len(l.mshrFree); n > 0 {
		ms = l.mshrFree[n-1]
		l.mshrFree = l.mshrFree[:n-1]
	} else {
		ms = &mshr{}
	}
	ms.state, ms.wp = state, wp
	return ms
}

// freeMSHR recycles a completed transaction's MSHR, zeroing the pending
// slots so no Access (and its Done closure) outlives its transaction.
func (l *L1) freeMSHR(ms *mshr) {
	for i := range ms.pending {
		ms.pending[i] = Access{}
	}
	ms.pending = ms.pending[:0]
	l.mshrFree = append(l.mshrFree, ms)
}

// Handle dispatches the controller's payload events (see the op constants
// in message.go).
func (l *L1) Handle(p sim.Payload) {
	switch p.Op {
	case opL1Recv:
		l.sys.deliver(msgFromPayload(p), l.ID)
	case opL1Process:
		l.process(l.takeAccess(int32(p.A)))
	case opL1ProcessMiss:
		l.processMiss(cache.Addr(p.B), l.takeAccess(int32(p.A)))
	case opL1DataRetry:
		m := msgFromPayload(p)
		l.onData(m, grantOf(m))
	case opL1Respond:
		addr, data, req := cache.Addr(p.A), p.B, int(p.X)
		excl := p.F&pfExcl != 0
		l.toL1(req, Msg{
			Kind: MsgDataFromOwner, Addr: addr, Src: l.ID,
			Data: data, Excl: excl, MakeForward: p.F&pfMakeForward != 0,
		})
		if !excl {
			l.toDir(Msg{
				Kind: MsgWBData, Addr: addr, Src: l.ID,
				Data: data, Dirty: p.F&pfDirty != 0, FromWB: p.F&pfFromWB != 0,
			})
		}
	case opL1RespondRetained:
		addr := cache.Addr(p.A)
		l.toL1(int(p.X), Msg{Kind: MsgDataFromOwner, Addr: addr, Src: l.ID, Data: p.B})
		l.toDir(Msg{Kind: MsgWBData, Addr: addr, Src: l.ID, Owned: true})
	default:
		l.violate(0, "unknown payload op %d", p.Op)
	}
}

// Array exposes the underlying array for invariant checks and tests.
func (l *L1) Array() *cache.Array { return l.arr }

// OutstandingMisses returns the number of active MSHRs.
func (l *L1) OutstandingMisses() int { return len(l.mshrs) }

// Request submits a CPU access. The L1 tag lookup cost is charged before
// the access is examined.
func (l *L1) Request(a Access) {
	a.start = l.eng.Now()
	if a.Write {
		l.Stats.Stores++
	} else {
		l.Stats.Loads++
	}
	l.Stats.SlowPath++
	l.eng.ScheduleEvent(l.timing.L1Tag, l, sim.Payload{Op: opL1Process, A: uint64(l.putAccess(a))})
}

// tryFast attempts to complete a stable-state hit synchronously, mutating
// the array and statistics exactly as the event path's process() would and
// returning the latency that path would have reported. It succeeds only
// when nothing can observe the controller between now and the would-be
// completion time:
//
//   - no MSHR is outstanding anywhere in this L1 (so no data fill can
//     Install — and re-stamp the LRU clock — inside the window);
//   - no access is parked in the slot pool (an earlier tag lookup or
//     deferred translation would probe the array inside the window);
//   - the block's LLC bank has no busy transaction and no pinned grant for
//     the block, so no invalidation, recall, forward, or upgrade ack that
//     could touch this block is in flight;
//   - the line is resident in a state that satisfies the access without
//     any protocol transition other than a policy-approved silent upgrade.
//
// Any message for a *different* block that is already in flight to this L1
// commutes with the hit (Invalidate and the Fwd/Downgrade handlers never
// touch the replacement clock), so the mutation may safely happen at
// submission time instead of L1Tag cycles later.
func (l *L1) tryFast(a *Access) (AccessResult, bool) {
	if len(l.mshrs) != 0 || len(l.accFree) != len(l.accs) {
		return AccessResult{}, false
	}
	block := l.arr.BlockAddr(a.Addr)
	b := l.sys.bankFor(block)
	if len(b.busy) != 0 || b.pinned[block] != 0 {
		return AccessResult{}, false
	}
	ln := l.arr.Lookup(block)
	if ln == nil {
		return AccessResult{}, false
	}
	if a.Write {
		switch ln.State {
		case cache.Modified:
			// In-place store, no transition.
		case cache.Exclusive:
			if !l.policy.SilentUpgrade(ln.WP) {
				return AccessResult{}, false // EM^A round trip (S-MESI)
			}
		default:
			return AccessResult{}, false // S/O/F store needs an Upgrade
		}
	}
	l.arr.Probe(block) // array stats + LRU touch, as process() does
	value := ln.Data
	if a.Write {
		l.Stats.Stores++
		l.Stats.StoreHits++
		if ln.State == cache.Exclusive {
			l.Stats.SilentUpgrades++
			ln.State = cache.Modified
		}
		l.applyStore(ln, block, a)
		// A store reports its own value even when a younger same-core
		// store already wrote the block, exactly as the event path does.
		value = a.Value
	} else {
		l.Stats.Loads++
		l.Stats.LoadHits++
	}
	l.Stats.FastHits++
	l.eng.Progress()
	return AccessResult{
		Latency: a.Extra + l.timing.L1Tag,
		Value:   value,
		Served:  ServedL1,
		Write:   a.Write,
		WP:      a.WP,
	}, true
}

// applyStore writes a store's value into its resident line — unless an
// architecturally younger same-core store (higher Seq) already wrote the
// block, in which case the stale value is discarded. Stores can arrive out
// of program order when an older store's deferred translation lets a
// younger same-block store overtake it; the protocol transitions and
// completion timing proceed identically either way, only the data
// application is ordered. Unsequenced stores (Seq 0: direct protocol
// tests, probes) always apply.
func (l *L1) applyStore(ln *cache.Line, block cache.Addr, a *Access) {
	if a.Seq != 0 {
		if last, ok := l.storeSeqs[block]; ok && a.Seq < last {
			return
		}
		l.storeSeqs[block] = a.Seq
	}
	ln.Data = a.Value
	ln.WP = false
}

// process examines an access after the tag lookup. It is also the replay
// entry point for accesses that were queued behind an MSHR.
func (l *L1) process(a Access) {
	block := l.arr.BlockAddr(a.Addr)
	if l.sys.Observe == nil {
		l.examine(block, a)
		return
	}
	pre := l.protoState(block)
	l.examine(block, a)
	l.sys.Observe(Transition{Ctrl: l.ID, Block: block, Ev: cpuEvent(a.Write), Pre: uint8(pre), Post: uint8(l.protoState(block))})
}

// l1Entry is the generic dispatch step shared by CPU examinations and
// message deliveries: resolve (state-of-block, event) in the canonical
// table and fail with a typed protocol violation unless the pair is part
// of the relation (Defined) or explicitly tolerated (Defensive). The
// lookup is allocation-free: protoState is a map/array probe and the
// table is a fixed array indexed by the enums.
func (l *L1) l1Entry(block cache.Addr, ev proto.Event) *proto.L1Entry {
	st := l.protoState(block)
	ent := &l.tab.L1[st][ev]
	if ent.Class != proto.Defined && ent.Class != proto.Defensive {
		l.violate(block, "%v in state %v is %v under %s", ev, st, ent.Class, l.tab.Policy)
	}
	return ent
}

// examine is the body of process: one observed CPU examination, resolved
// through the transition table. Each action body performs the Probe the
// pre-table controller did at the same point, so array statistics and
// LRU order are untouched by the dispatch change.
func (l *L1) examine(block cache.Addr, a Access) {
	ent := l.l1Entry(block, cpuEvent(a.Write))
	switch ent.Act {
	case proto.L1ActMerge:
		// A transaction is outstanding for the block: merge behind it.
		ms := l.mshrs[block]
		ms.pending = append(ms.pending, a)
	case proto.L1ActMiss:
		l.arr.Probe(block) // counts the miss
		if a.MissPenalty > 0 {
			// Deferred translation (VIVT): pay it now, once.
			d := a.MissPenalty
			a.MissPenalty = 0
			l.eng.ScheduleEvent(d, l, sim.Payload{
				Op: opL1ProcessMiss, A: uint64(l.putAccess(a)), B: uint64(block),
			})
			return
		}
		l.miss(block, a)
	case proto.L1ActLoadHit:
		ln := l.arr.Probe(block)
		l.Stats.LoadHits++
		l.complete(a, ln.Data, ServedL1)
	case proto.L1ActStoreHitM:
		ln := l.arr.Probe(block)
		l.Stats.StoreHits++
		l.applyStore(ln, block, &a)
		l.complete(a, a.Value, ServedL1)
	case proto.L1ActStoreHitE:
		ln := l.arr.Probe(block)
		if l.policy.SilentUpgrade(ln.WP) {
			// The MESI speedup S-MESI revokes: E->M entirely within
			// the L1 (Figure 3(a), Figure 4(d)).
			l.Stats.StoreHits++
			l.Stats.SilentUpgrades++
			ln.State = cache.Modified
			l.applyStore(ln, block, &a)
			l.complete(a, a.Value, ServedL1)
			return
		}
		// S-MESI: enter EM^A and ask the LLC (Figure 2 / Figure 3(b)).
		l.Stats.ExplicitUpgrades++
		ms := l.newMSHR(TrEMA, false)
		ms.pending = append(ms.pending, a)
		l.mshrs[block] = ms
		l.toDir(Msg{Kind: MsgUpgrade, Addr: block, Src: l.ID})
	case proto.L1ActStoreShared:
		// Neither an Owned nor a Forward holder is exclusive: other
		// caches may hold S copies, so the store needs the same Upgrade
		// round trip.
		l.arr.Probe(block)
		l.Stats.ExplicitUpgrades++
		ms := l.newMSHR(TrSMA, false)
		ms.pending = append(ms.pending, a)
		l.mshrs[block] = ms
		l.toDir(Msg{Kind: MsgUpgrade, Addr: block, Src: l.ID})
	default:
		l.violate(block, "CPU action %v unhandled", ent.Act)
	}
}

// processMiss re-checks the block after a deferred translation: a merged
// transaction or a racing fill may have changed the picture meanwhile.
func (l *L1) processMiss(block cache.Addr, a Access) {
	if ms, ok := l.mshrs[block]; ok {
		ms.pending = append(ms.pending, a)
		return
	}
	if l.arr.Lookup(block) != nil {
		l.process(a) // filled while we were translating
		return
	}
	l.miss(block, a)
}

func (l *L1) miss(block cache.Addr, a Access) {
	if a.Write {
		ms := l.newMSHR(TrIMD, a.WP)
		ms.pending = append(ms.pending, a)
		l.mshrs[block] = ms
		l.toDir(Msg{Kind: MsgGETX, Addr: block, Src: l.ID, WP: a.WP})
		return
	}
	ms := l.newMSHR(TrISD, a.WP)
	ms.pending = append(ms.pending, a)
	l.mshrs[block] = ms
	l.toDir(Msg{Kind: l.policy.LoadRequest(a.WP), Addr: block, Src: l.ID, WP: a.WP})
	l.maybePrefetch(block, a.WP)
}

// maybePrefetch issues a next-line prefetch after a demand load miss. The
// prefetcher never crosses a 4 KB page boundary (it has no translation
// for the next page). In naive mode the write-protection bit is dropped —
// the security hazard PrefetchWPAware exists to avoid.
func (l *L1) maybePrefetch(block cache.Addr, wp bool) {
	if l.prefetch == PrefetchOff {
		return
	}
	next := block + cache.Addr(l.arr.Params().BlockSize)
	if next>>12 != block>>12 {
		return // page-boundary stop
	}
	if l.arr.Lookup(next) != nil {
		return
	}
	if _, busy := l.mshrs[next]; busy {
		return
	}
	pwp := wp
	if l.prefetch == PrefetchNaive {
		pwp = false
	}
	l.Stats.Prefetches++
	l.mshrs[next] = l.newMSHR(TrISD, pwp)
	l.toDir(Msg{Kind: l.policy.LoadRequest(pwp), Addr: next, Src: l.ID, WP: pwp})
}

// Receive handles a message from the directory or a peer L1. Delivery
// latency was charged by the sender. Dispatch is the same generic table
// step as examine: the (state, event) pair must be in the policy's
// relation, and the entry's action names the handler.
func (l *L1) Receive(m Msg) {
	ent := l.l1Entry(m.Addr, protoEvent(m.Kind))
	switch ent.Act {
	case proto.L1ActData:
		l.onData(m, grantOf(m))
	case proto.L1ActUpgradeAck:
		l.onUpgradeAck(m)
	case proto.L1ActInv:
		l.onInv(m)
	case proto.L1ActFwdGETS:
		l.onFwdGETS(m)
	case proto.L1ActFwdGETX:
		l.onFwdGETX(m)
	case proto.L1ActDowngrade:
		l.onDowngrade(m)
	case proto.L1ActWBAck:
		delete(l.wb, m.Addr)
	default:
		l.violate(m.Addr, "message action %v unhandled for %v", ent.Act, m.Kind)
	}
}

// servedOf maps a data response to the service class the requestor
// observed.
func servedOf(m Msg) ServedBy {
	if m.Kind == MsgDataFromOwner {
		return ServedRemote
	}
	return m.Served
}

// onData completes an outstanding miss.
func (l *L1) onData(m Msg, grant cache.LineState) {
	ms, ok := l.mshrs[m.Addr]
	if !ok {
		l.violate(m.Addr, "data response without MSHR")
	}
	served := servedOf(m)

	var state cache.LineState
	var unblock MsgKind
	switch {
	case ms.state == TrIMD || ms.state == TrSMA || ms.state == TrEMA:
		// A data grant while waiting to modify: the directory resolved
		// our (possibly raced) request as a GETX.
		state = cache.Modified
		unblock = MsgExclusiveUnblock
	case grant == cache.Exclusive:
		state = cache.Exclusive
		unblock = MsgExclusiveUnblock
	case m.MakeForward:
		// MESIF: this requestor is the block's new Forward holder.
		state = cache.Forward
		unblock = MsgUnblock
	default:
		state = cache.Shared
		unblock = MsgUnblock
	}

	ln := l.install(m.Addr, state, m.Data, ms.wp)
	if ln == nil {
		// Every way of the set is pinned by an in-flight upgrade; hold
		// the response briefly and retry once a transaction completes.
		// grantOf recovers grant from the payload on redelivery.
		l.eng.ScheduleEvent(l.timing.L1Tag*4, l, m.payload(opL1DataRetry))
		return
	}

	delete(l.mshrs, m.Addr)
	pending := ms.pending
	if len(pending) == 0 {
		// Prefetch fill: no requestor to complete.
		l.toDir(Msg{Kind: unblock, Addr: m.Addr, Src: l.ID})
		l.freeMSHR(ms)
		return
	}

	// The initiator completes with the true service class; merged
	// accesses replay against the now-resident line.
	first := pending[0]
	if first.Write && state != cache.Modified {
		// A store merged into a transaction that ended in a shared
		// grant (it can only be a prefetch transaction: demand store
		// misses always request exclusivity). The grant cannot satisfy
		// the store, so replay everything against the S line — the
		// store re-issues as an Upgrade.
		l.toDir(Msg{Kind: unblock, Addr: m.Addr, Src: l.ID})
		for _, a := range pending {
			l.process(a)
		}
		l.freeMSHR(ms)
		return
	}
	if first.Write {
		l.applyStore(ln, m.Addr, &first)
		l.complete(first, first.Value, served)
	} else {
		l.complete(first, ln.Data, served)
	}
	l.toDir(Msg{Kind: unblock, Addr: m.Addr, Src: l.ID})
	for _, a := range pending[1:] {
		l.process(a)
	}
	l.freeMSHR(ms)
}

func (l *L1) onUpgradeAck(m Msg) {
	ms, ok := l.mshrs[m.Addr]
	if !ok || (ms.state != TrSMA && ms.state != TrEMA) {
		l.violate(m.Addr, "unexpected UpgradeAck")
	}
	ln := l.arr.Lookup(m.Addr)
	if ln == nil {
		l.violate(m.Addr, "UpgradeAck for absent line")
	}
	ln.State = cache.Modified
	ln.WP = false
	delete(l.mshrs, m.Addr)
	first := ms.pending[0]
	l.applyStore(ln, m.Addr, &first)
	l.complete(first, first.Value, ServedUpgrade)
	for _, a := range ms.pending[1:] {
		l.process(a)
	}
	l.freeMSHR(ms)
}

func (l *L1) onInv(m Msg) {
	if ln := l.arr.Lookup(m.Addr); ln != nil {
		if ln.State != cache.Shared && ln.State != cache.Owned && ln.State != cache.Forward {
			l.violate(m.Addr, "Inv for %v line", ln.State)
		}
		// Dropping a dirty Owned copy is safe here: an Inv only reaches
		// an O holder when a sharer upgrades, and every S copy equals
		// the O copy's current value.
		l.arr.Invalidate(m.Addr)
		l.Stats.Invalidations++
	}
	if ms, ok := l.mshrs[m.Addr]; ok && ms.state == TrSMA {
		// Our Upgrade lost the race; the directory will answer it with
		// Data_Exclusive. Wait as if this were a store miss.
		ms.state = TrIMD
	}
	l.toDir(Msg{Kind: MsgInvAck, Addr: m.Addr, Src: l.ID, Requestor: m.Requestor})
}

// onFwdGETS serves a remote load on behalf of the directory (Figure 1(a) /
// Figure 4(e)): send the data to the requestor's L1 and a (clean or dirty)
// copy down to the LLC, downgrading to S.
func (l *L1) onFwdGETS(m Msg) {
	l.Stats.FwdsServed++
	if ln := l.arr.Lookup(m.Addr); ln != nil && ln.State != cache.Shared {
		dirty := ln.State.Dirty()
		data := ln.Data
		// Under MESIF the requestor of a forwarded read becomes the new
		// Forward holder. The directory's write-protection view (carried
		// in the Fwd_GETS) is authoritative, so the L1's decision always
		// matches the directory's forwarder bookkeeping.
		mf := l.policy.ForwardStateFor(m.WP)
		if dirty && l.policy.OwnershipTransfer() {
			// MOESI: keep the dirty copy in state O and supply the
			// requestor directly; no LLC writeback.
			ln.State = cache.Owned
			l.respondOwnerRetained(m, data)
		} else {
			ln.State = cache.Shared
			l.respondOwner(m, data, dirty, false, false, mf)
		}
		if ms, ok := l.mshrs[m.Addr]; ok && ms.state == TrEMA {
			ms.state = TrSMA // our pending Upgrade now upgrades from S/O
		}
		return
	}
	if wbe, ok := l.wb[m.Addr]; ok {
		// The line is gone but its eviction is still in flight; serve
		// from the writeback buffer.
		l.respondOwner(m, wbe.data, wbe.dirty, true, false, l.policy.ForwardStateFor(m.WP))
		return
	}
	l.violate(m.Addr, "Fwd_GETS for unowned block")
}

// onFwdGETX surrenders the block to a writing requestor.
func (l *L1) onFwdGETX(m Msg) {
	l.Stats.FwdsServed++
	if ln := l.arr.Lookup(m.Addr); ln != nil && ln.State != cache.Shared {
		data := ln.Data
		l.arr.Invalidate(m.Addr)
		l.Stats.Invalidations++
		l.respondOwner(m, data, false, false, true)
		if ms, ok := l.mshrs[m.Addr]; ok && (ms.state == TrEMA || ms.state == TrSMA) {
			ms.state = TrIMD
		}
		return
	}
	if wbe, ok := l.wb[m.Addr]; ok {
		l.respondOwner(m, wbe.data, wbe.dirty, true, true)
		return
	}
	l.violate(m.Addr, "Fwd_GETX for unowned block")
}

// respondOwner implements the owner's half of a three-hop transaction:
// data to the requestor, a WB_Data (for GETS) to the directory.
func (l *L1) respondOwner(m Msg, data uint64, dirty, fromWB, excl bool, makeForward ...bool) {
	var f uint8
	if dirty {
		f |= pfDirty
	}
	if fromWB {
		f |= pfFromWB
	}
	if excl {
		f |= pfExcl
	}
	if len(makeForward) > 0 && makeForward[0] {
		f |= pfMakeForward
	}
	l.eng.ScheduleEvent(l.timing.RemoteL1Service, l, sim.Payload{
		Op: opL1Respond, A: uint64(m.Addr), B: data, X: int32(m.Requestor), F: f,
	})
}

// respondOwnerRetained is the MOESI variant: the requestor gets the data,
// and the directory is told the sender kept the dirty copy in state O.
func (l *L1) respondOwnerRetained(m Msg, data uint64) {
	l.eng.ScheduleEvent(l.timing.RemoteL1Service, l, sim.Payload{
		Op: opL1RespondRetained, A: uint64(m.Addr), B: data, X: int32(m.Requestor),
	})
}

func (l *L1) onDowngrade(m Msg) {
	if ln := l.arr.Lookup(m.Addr); ln != nil && ln.State == cache.Exclusive {
		ln.State = cache.Shared
	}
	if ms, ok := l.mshrs[m.Addr]; ok && ms.state == TrEMA {
		ms.state = TrSMA
	}
}

// install places data into the array, evicting as needed. Lines whose
// block has an in-flight MSHR transaction (a pending Upgrade keeps its
// line resident) are pinned and never chosen as victims; if every way of
// the set is pinned, install returns nil and the caller retries — the
// structural stall a real MSHR-locked cache exhibits.
func (l *L1) install(block cache.Addr, state cache.LineState, data uint64, wp bool) *cache.Line {
	v := l.arr.VictimFiltered(block, func(a cache.Addr) bool {
		_, pending := l.mshrs[a]
		return pending
	})
	if v == nil {
		return nil
	}
	if v.State.Valid() {
		l.evict(v, block)
	}
	l.arr.Install(v, block, state)
	v.Data = data
	v.WP = wp
	return v
}

// evict notifies the directory and parks the line in the writeback buffer
// until acknowledged.
func (l *L1) evict(v *cache.Line, setProbe cache.Addr) {
	addr := l.arr.AddrOfLine(v, setProbe)
	l.Stats.Writebacks++
	switch v.State {
	case cache.Shared:
		l.toDir(Msg{Kind: MsgPUTS, Addr: addr, Src: l.ID})
	case cache.Exclusive:
		l.wb[addr] = wbEntry{data: v.Data, dirty: false}
		l.toDir(Msg{Kind: MsgPUTX, Addr: addr, Src: l.ID, Data: v.Data})
	case cache.Modified, cache.Owned:
		l.wb[addr] = wbEntry{data: v.Data, dirty: true}
		l.toDir(Msg{Kind: MsgPUTX, Addr: addr, Src: l.ID, Data: v.Data, Dirty: true})
	case cache.Forward:
		// A MESIF forwarder may still be the target of an in-flight
		// Fwd_GETS, so it parks its (clean) copy in the writeback buffer
		// until acknowledged, like an owner.
		l.wb[addr] = wbEntry{data: v.Data, dirty: false}
		l.toDir(Msg{Kind: MsgPUTX, Addr: addr, Src: l.ID, Data: v.Data})
	}
}

// ForceInvalidate synchronously drops the block (LLC recall on inclusive-
// cache eviction). It returns the freshest local data and whether it was
// dirty.
func (l *L1) ForceInvalidate(block cache.Addr) (data uint64, dirty, had bool) {
	if ln := l.arr.Lookup(block); ln != nil {
		data, dirty, had = ln.Data, ln.State.Dirty(), true
		l.arr.Invalidate(block)
		l.Stats.Invalidations++
	}
	if wbe, ok := l.wb[block]; ok && !had {
		data, dirty, had = wbe.data, wbe.dirty, true
	}
	if ms, ok := l.mshrs[block]; ok && (ms.state == TrSMA || ms.state == TrEMA) {
		ms.state = TrIMD
	}
	return data, dirty, had
}

func (l *L1) complete(a Access, value uint64, served ServedBy) {
	l.eng.Progress()
	res := AccessResult{
		Latency: l.eng.Now() - a.start + a.Extra,
		Value:   value,
		Served:  served,
		Write:   a.Write,
		WP:      a.WP,
	}
	if a.Done != nil {
		a.Done(res)
	}
}

// violate panics with a typed, contained protocol violation carrying the
// full system state dump (see bank.violate). It never returns.
func (l *L1) violate(addr cache.Addr, format string, args ...any) {
	panic(&fault.Violation{
		Kind:      fault.KindProtocol,
		Cycle:     uint64(l.eng.Now()),
		Component: fmt.Sprintf("L1 %d", l.ID),
		Addr:      uint64(addr),
		Msg:       fmt.Sprintf(format, args...),
		Dump:      l.sys.DumpState(),
	})
}
