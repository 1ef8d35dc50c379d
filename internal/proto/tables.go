package proto

// Tri is a policy feature that may hold for every line, for none, or
// only for lines on one side of the write-protection bit.
type Tri uint8

const (
	TriNever Tri = iota
	TriAlways
	TriNoWP   // applies only to non-write-protected lines
	TriWPOnly // applies only to write-protected lines
)

// For reports whether the feature applies to a line whose
// write-protection bit is wp.
func (t Tri) For(wp bool) bool {
	switch t {
	case TriAlways:
		return true
	case TriNoWP:
		return !wp
	case TriWPOnly:
		return wp
	}
	return false
}

// Features is a policy's complete definition: the axes on which the
// protocols differ (Table IV). They decide both the controllers' runtime
// choices and the shape of the transition relation Build derives.
// Everything else (timings, grant payload details) lives in the action
// bodies and does not alter which pairs exist.
type Features struct {
	// WPLoads: write-protected loads use the dedicated GETS_WP request
	// kind (the SwiftDir family).
	WPLoads bool
	// Exclusive: the directory grants E on an unshared load always, only
	// for non-write-protected data (SwiftDir's I->S rule), or never (MSI:
	// no L1 E, no DirE).
	Exclusive Tri
	// SilentE: a store hitting an E line upgrades silently to M
	// (TriAlways), goes through an explicit EM^A upgrade (TriNever), or
	// is silent only for non-write-protected lines (TriNoWP).
	SilentE Tri
	// LLCServeE: loads hitting DirE are served from the clean LLC copy
	// with a Downgrade to the owner, instead of a Fwd_GETS: never,
	// always (S-MESI), or only for write-protected blocks (SwiftDir-Ewp).
	LLCServeE Tri
	// Owned: dirty owners serve forwards without losing ownership
	// (MOESI: L1 O state, DirO directory state).
	Owned bool
	// Forward: the last requestor of shared data becomes the Forward
	// responder (MESIF): never, always, or only for non-write-protected
	// blocks (SwiftDir-MESIF).
	Forward Tri
}

// hasE: the E state exists at all.
func (f Features) hasE() bool { return f.Exclusive != TriNever }

// emaReachable: EM^A exists only when stores on E are not always silent.
func (f Features) emaReachable() bool { return f.hasE() && f.SilentE != TriAlways }

// Build constructs a policy's full relation from its feature set in three
// passes: vocabulary (whole-column Impossible), reachability (whole-row
// Impossible), then the defined/defensive cells; finish() turns the
// remainder into Illegal.
func Build(name string, f Features) *Table {
	t := &Table{Policy: name}

	// --- vocabulary: events that never address each controller class.
	for e := EvGETS; e <= EvWBData; e++ {
		t.l1EventImpossible(e) // directory-bound kinds
	}
	t.dirEventImpossible(EvLoad)
	t.dirEventImpossible(EvStore)
	for e := EvData; e < NumEvents; e++ {
		t.dirEventImpossible(e) // L1-bound kinds
	}
	if !f.WPLoads {
		t.dirEventImpossible(EvGETSWP)
	}
	if f.LLCServeE == TriNever {
		t.l1EventImpossible(EvDowngrade)
	}

	// --- reachability: states the policy can never construct.
	if !f.hasE() {
		t.l1RowImpossible(L1E)
		t.dirRowImpossible(DirE)
	}
	if !f.emaReachable() {
		t.l1RowImpossible(L1EMA)
	}
	if !f.Owned {
		t.l1RowImpossible(L1O)
		t.dirRowImpossible(DirO)
	}
	if f.Forward == TriNever {
		t.l1RowImpossible(L1F)
	}

	buildL1(t, f)
	buildDir(t, f)
	return t.finish()
}

// buildL1 fills the L1 half. Defensive cells are transitions the
// hand-written controllers tolerated without being part of the bounded
// model: fault-delayed or deeply raced deliveries that wider
// configurations could produce.
func buildL1(t *Table, f Features) {
	// live filters state rows by the policy's reachable state space (the
	// unreachable rows were already marked Impossible wholesale).
	live := func(s L1State) bool {
		switch s {
		case L1E:
			return f.hasE()
		case L1O:
			return f.Owned
		case L1F:
			return f.Forward != TriNever
		case L1EMA:
			return f.emaReachable()
		}
		return true
	}
	transients := []L1State{L1ISD, L1IMD, L1SMA, L1EMA}
	stable := []L1State{L1S, L1E, L1M, L1O, L1F}

	// CPU examinations. A transient state merges into the MSHR; stable
	// states hit; I allocates a miss. The miss cell keeps I in its mask
	// for the deferred-translation stall (MissPenalty holds the access
	// before the MSHR allocates).
	t.l1(Defined, L1I, EvLoad, L1ActMiss, L1I, L1ISD)
	t.l1(Defined, L1I, EvStore, L1ActMiss, L1I, L1IMD)
	for _, s := range stable {
		if live(s) {
			t.l1(Defined, s, EvLoad, L1ActLoadHit, s)
		}
	}
	for _, s := range transients {
		if live(s) {
			t.l1(Defined, s, EvLoad, L1ActMerge, s)
			t.l1(Defined, s, EvStore, L1ActMerge, s)
		}
	}
	t.l1(Defined, L1M, EvStore, L1ActStoreHitM, L1M)
	if f.hasE() {
		switch f.SilentE {
		case TriAlways:
			t.l1(Defined, L1E, EvStore, L1ActStoreHitE, L1M)
		case TriNever:
			t.l1(Defined, L1E, EvStore, L1ActStoreHitE, L1EMA)
		default: // TriNoWP: silent for plain lines, explicit for WP lines
			t.l1(Defined, L1E, EvStore, L1ActStoreHitE, L1M, L1EMA)
		}
	}
	t.l1(Defined, L1S, EvStore, L1ActStoreShared, L1SMA)
	if f.Owned {
		t.l1(Defined, L1O, EvStore, L1ActStoreShared, L1SMA)
	}
	if f.Forward != TriNever {
		t.l1(Defined, L1F, EvStore, L1ActStoreShared, L1SMA)
	}

	// Data responses. The install can stall on a fully pinned set (state
	// unchanged, retry scheduled), and completing a merged store can
	// carry the line onward (S grant -> SM^A upgrade, E grant -> M or
	// EM^A), so the masks close over the synchronous replay.
	sGrant := []L1State{L1ISD, L1S, L1SMA}
	if f.Forward != TriNever {
		sGrant = append(sGrant, L1F)
	}
	t.l1(Defined, L1ISD, EvData, L1ActData, sGrant...)
	t.l1(Defined, L1ISD, EvDataFromOwner, L1ActData, sGrant...)
	eGrant := []L1State{L1ISD, L1E}
	if f.SilentE != TriNever {
		eGrant = append(eGrant, L1M)
	}
	if f.emaReachable() {
		eGrant = append(eGrant, L1EMA)
	}
	exClass := Defined
	if !f.hasE() {
		// MSI never grants E on a load, but the handler still installs
		// an exclusive payload sanely if one were ever delivered.
		exClass = Defensive
	}
	t.l1(exClass, L1ISD, EvDataExclusive, L1ActData, eGrant...)
	t.l1(Defined, L1IMD, EvDataExclusive, L1ActData, L1IMD, L1M)
	t.l1(Defined, L1IMD, EvDataFromOwner, L1ActData, L1IMD, L1M)
	// Deliveries the bounded model never produces but the handler
	// completes coherently (e.g. a shared grant for a store that merged
	// behind a load after a fault-injected delay).
	t.l1(Defensive, L1IMD, EvData, L1ActData, L1IMD, L1M)
	t.l1(Defensive, L1SMA, EvData, L1ActData, L1SMA, L1M)
	t.l1(Defensive, L1SMA, EvDataExclusive, L1ActData, L1SMA, L1M)
	t.l1(Defensive, L1SMA, EvDataFromOwner, L1ActData, L1SMA, L1M)
	if f.emaReachable() {
		t.l1(Defensive, L1EMA, EvData, L1ActData, L1EMA, L1M)
		t.l1(Defensive, L1EMA, EvDataExclusive, L1ActData, L1EMA, L1M)
		t.l1(Defensive, L1EMA, EvDataFromOwner, L1ActData, L1EMA, L1M)
	}

	// Upgrade acks complete the pending store.
	t.l1(Defined, L1SMA, EvUpgradeAck, L1ActUpgradeAck, L1M)
	if f.emaReachable() {
		t.l1(Defined, L1EMA, EvUpgradeAck, L1ActUpgradeAck, L1M)
	}

	// Invalidations. I sees Invs that crossed an eviction or landed
	// after a recall; SM^A demotes its upgrade to a full miss.
	t.l1(Defined, L1I, EvInv, L1ActInv, L1I)
	t.l1(Defined, L1S, EvInv, L1ActInv, L1I)
	if f.Owned {
		t.l1(Defined, L1O, EvInv, L1ActInv, L1I)
	}
	if f.Forward != TriNever {
		t.l1(Defined, L1F, EvInv, L1ActInv, L1I)
	}
	t.l1(Defined, L1ISD, EvInv, L1ActInv, L1ISD)
	t.l1(Defined, L1IMD, EvInv, L1ActInv, L1IMD)
	t.l1(Defined, L1SMA, EvInv, L1ActInv, L1IMD)

	// Forwarded loads. I/IS^D/IM^D answer from the writeback buffer (the
	// forward belongs to an eviction the re-miss overtook); an E hit is
	// unreachable when every DirE load is LLC-served.
	t.l1(Defined, L1I, EvFwdGETS, L1ActFwdGETS, L1I)
	t.l1(Defined, L1ISD, EvFwdGETS, L1ActFwdGETS, L1ISD)
	t.l1(Defined, L1IMD, EvFwdGETS, L1ActFwdGETS, L1IMD)
	if f.hasE() {
		cl := Defined
		if f.LLCServeE == TriAlways {
			cl = Defensive
		}
		t.l1(cl, L1E, EvFwdGETS, L1ActFwdGETS, L1S)
	}
	if f.Owned {
		t.l1(Defined, L1M, EvFwdGETS, L1ActFwdGETS, L1O)
		t.l1(Defined, L1O, EvFwdGETS, L1ActFwdGETS, L1O)
	} else {
		t.l1(Defined, L1M, EvFwdGETS, L1ActFwdGETS, L1S)
	}
	if f.Forward != TriNever {
		t.l1(Defined, L1F, EvFwdGETS, L1ActFwdGETS, L1S)
	}
	if f.emaReachable() {
		t.l1(Defensive, L1EMA, EvFwdGETS, L1ActFwdGETS, L1SMA)
	}
	// A forwarded load can land while an SM^A upgrade is pending: the
	// MESIF forwarder and the MOESI owner serve it without disturbing
	// the upgrade. Other policies (and a plain S holder) reach a forward
	// only through a stale Fwd racing a still-buffered writeback of the
	// block's previous incarnation — served from the wb buffer.
	smaFwd := Defensive
	if f.Owned || f.Forward != TriNever {
		smaFwd = Defined
	}
	t.l1(smaFwd, L1SMA, EvFwdGETS, L1ActFwdGETS, L1SMA)
	t.l1(Defensive, L1S, EvFwdGETS, L1ActFwdGETS, L1S)

	// Forwarded stores surrender the block. A Forward copy is never the
	// Fwd_GETX target (sharers are invalidated instead), but the handler
	// would surrender it correctly.
	t.l1(Defined, L1I, EvFwdGETX, L1ActFwdGETX, L1I)
	t.l1(Defined, L1ISD, EvFwdGETX, L1ActFwdGETX, L1ISD)
	t.l1(Defined, L1IMD, EvFwdGETX, L1ActFwdGETX, L1IMD)
	if f.hasE() {
		t.l1(Defined, L1E, EvFwdGETX, L1ActFwdGETX, L1I)
	}
	t.l1(Defined, L1M, EvFwdGETX, L1ActFwdGETX, L1I)
	if f.Owned {
		t.l1(Defined, L1O, EvFwdGETX, L1ActFwdGETX, L1I)
	}
	if f.Forward != TriNever {
		t.l1(Defensive, L1F, EvFwdGETX, L1ActFwdGETX, L1I)
	}
	if f.emaReachable() {
		t.l1(Defined, L1EMA, EvFwdGETX, L1ActFwdGETX, L1IMD)
	}
	// A forwarded store against a pending SM^A upgrade: the MOESI owner
	// surrenders its O copy and demotes the upgrade to a full store miss
	// (IM^D); a plain S holder only sees this as the stale-forward
	// writeback race above and keeps its upgrade pending.
	smaFwdX := Defensive
	if f.Owned {
		smaFwdX = Defined
	}
	t.l1(smaFwdX, L1SMA, EvFwdGETX, L1ActFwdGETX, L1SMA, L1IMD)
	t.l1(Defensive, L1S, EvFwdGETX, L1ActFwdGETX, L1S)

	// Downgrades (LLC-serve policies only). E demotes to S; EM^A demotes
	// its explicit upgrade to SM^A; elsewhere the serve raced an eviction
	// or upgrade that already changed the state and the demand is moot.
	if f.LLCServeE != TriNever {
		t.l1(Defined, L1I, EvDowngrade, L1ActDowngrade, L1I)
		t.l1(Defined, L1ISD, EvDowngrade, L1ActDowngrade, L1ISD)
		t.l1(Defined, L1IMD, EvDowngrade, L1ActDowngrade, L1IMD)
		t.l1(Defined, L1E, EvDowngrade, L1ActDowngrade, L1S)
		if f.emaReachable() {
			t.l1(Defined, L1EMA, EvDowngrade, L1ActDowngrade, L1SMA)
		}
		t.l1(Defensive, L1S, EvDowngrade, L1ActDowngrade, L1S)
		t.l1(Defensive, L1M, EvDowngrade, L1ActDowngrade, L1M)
		t.l1(Defensive, L1SMA, EvDowngrade, L1ActDowngrade, L1SMA)
		if f.Owned {
			t.l1(Defensive, L1O, EvDowngrade, L1ActDowngrade, L1O)
		}
		if f.Forward != TriNever {
			t.l1(Defensive, L1F, EvDowngrade, L1ActDowngrade, L1F)
		}
	}

	// Writeback acks release the wb buffer entry; the block state is
	// whatever the world moved on to. In the bounded model only I and
	// the re-miss transients are live when the ack lands.
	t.l1(Defined, L1I, EvWBAck, L1ActWBAck, L1I)
	t.l1(Defined, L1ISD, EvWBAck, L1ActWBAck, L1ISD)
	t.l1(Defined, L1IMD, EvWBAck, L1ActWBAck, L1IMD)
	for _, st := range []L1State{L1S, L1E, L1M, L1O, L1F, L1SMA, L1EMA} {
		if st == L1E && !f.hasE() || st == L1O && !f.Owned ||
			st == L1F && f.Forward == TriNever ||
			st == L1EMA && !f.emaReachable() {
			continue
		}
		t.l1(Defensive, st, EvWBAck, L1ActWBAck, st)
	}
}

// buildDir fills the directory half. The directory's state space is
// flat: every open transaction is DirBusy, and completion events can
// replay queued requests, so their next masks admit everything.
func buildDir(t *Table, f Features) {
	loads := []Event{EvGETS}
	if f.WPLoads {
		loads = append(loads, EvGETSWP)
	}
	requests := append(append([]Event{}, loads...), EvGETX, EvUpgrade, EvPUTS, EvPUTX)

	// A busy block queues every request kind.
	for _, e := range requests {
		t.dir(Defined, DirBusy, e, DirActQueue, DirBusy)
	}

	for _, e := range loads {
		t.dir(Defined, DirI, e, DirActFetchLoad, DirBusy)
		t.dir(Defined, DirP, e, DirActGrantLoadP, DirBusy)
		t.dir(Defined, DirS, e, DirActLoadS, DirBusy)
		if f.hasE() {
			t.dir(Defined, DirE, e, DirActLoadE, DirBusy)
		}
		t.dir(Defined, DirM, e, DirActLoadOwner, DirBusy)
		if f.Owned {
			t.dir(Defined, DirO, e, DirActLoadOwner, DirBusy)
		}
	}

	t.dir(Defined, DirI, EvGETX, DirActFetchStore, DirBusy)
	t.dir(Defined, DirP, EvGETX, DirActGrantStoreP, DirBusy)
	t.dir(Defined, DirS, EvGETX, DirActStoreS, DirBusy)
	if f.hasE() {
		t.dir(Defined, DirE, EvGETX, DirActStoreOwner, DirBusy)
	}
	t.dir(Defined, DirM, EvGETX, DirActStoreOwner, DirBusy)
	if f.Owned {
		t.dir(Defined, DirO, EvGETX, DirActStoreO, DirBusy)
	}

	// Upgrades: a requestor the directory no longer records was recalled
	// or invalidated mid-flight; its upgrade resolves as a store miss.
	// An ack with no invalidations outstanding completes without opening
	// a transaction, so DirM stays in the masks.
	t.dir(Defined, DirI, EvUpgrade, DirActUpgradeMiss, DirBusy)
	t.dir(Defensive, DirP, EvUpgrade, DirActUpgradeMiss, DirBusy)
	t.dir(Defined, DirS, EvUpgrade, DirActUpgradeS, DirM, DirBusy)
	if f.hasE() {
		t.dir(Defined, DirE, EvUpgrade, DirActUpgradeOwner, DirM, DirBusy)
	}
	t.dir(Defined, DirM, EvUpgrade, DirActUpgradeOwner, DirM, DirBusy)
	if f.Owned {
		t.dir(Defined, DirO, EvUpgrade, DirActUpgradeO, DirM, DirBusy)
	}

	// Eviction notices. PUTS at DirI is a notice for a recalled block
	// (nothing to clear, no ack — PUTS is fire-and-forget); PUTX always
	// acks so the evictor can release its writeback buffer entry.
	t.dir(Defined, DirI, EvPUTS, DirActPUTSStale, DirI)
	t.dir(Defined, DirP, EvPUTS, DirActPUTS, DirP)
	t.dir(Defined, DirS, EvPUTS, DirActPUTS, DirS, DirP)
	if f.hasE() {
		t.dir(Defensive, DirE, EvPUTS, DirActPUTS, DirE)
	}
	t.dir(Defensive, DirM, EvPUTS, DirActPUTS, DirM)
	if f.Owned {
		t.dir(Defined, DirO, EvPUTS, DirActPUTS, DirO)
	}

	t.dir(Defined, DirI, EvPUTX, DirActPUTXStale, DirI)
	t.dir(Defensive, DirP, EvPUTX, DirActPUTX, DirP)
	t.dir(Defined, DirS, EvPUTX, DirActPUTX, DirS, DirP)
	if f.hasE() {
		t.dir(Defined, DirE, EvPUTX, DirActPUTX, DirP, DirE)
	}
	t.dir(Defined, DirM, EvPUTX, DirActPUTX, DirP, DirM)
	if f.Owned {
		t.dir(Defined, DirO, EvPUTX, DirActPUTX, DirP, DirS)
	}

	// Completion traffic retires the in-flight transaction and replays
	// anything queued behind it, so any state can follow.
	t.dirMasked(Defined, DirBusy, EvUnblock, DirActUnblock, DirMaskAll())
	t.dirMasked(Defined, DirBusy, EvExclusiveUnblock, DirActUnblock, DirMaskAll())
	t.dirMasked(Defined, DirBusy, EvInvAck, DirActInvAck, DirMaskAll())
	t.dirMasked(Defined, DirBusy, EvWBData, DirActWBData, DirMaskAll())
	// A late Inv_Ack for a transaction that already completed is
	// tolerated (dropped) at every idle state.
	for _, s := range []DirState{DirI, DirP, DirS, DirE, DirM, DirO} {
		if s == DirE && !f.hasE() || s == DirO && !f.Owned {
			continue
		}
		t.dir(Defensive, s, EvInvAck, DirActInvAckStale, s)
	}
}
