// Package proto holds the canonical transition relation of every
// coherence protocol in this repository: one table per policy mapping
// (controller state, event) to a classification, a named action, and the
// set of admissible next states.
//
// The tables are the single source of truth for protocol structure. The
// runtime controllers (internal/coherence) dispatch by table lookup —
// the action names here select the hand-tuned handler bodies, and an
// unclassified or forbidden pair raises a typed protocol violation
// instead of falling through a silent default. The model checker
// (internal/mcheck) checks every observed pair for membership in the
// same tables and validates post-dispatch states against the next-state
// masks. What the simulator executes and what the checker verifies can
// therefore no longer drift apart.
//
// The package is pure data: it imports nothing from the rest of the
// repository, and the enum orders deliberately mirror cache.LineState,
// coherence.DirState and coherence.MsgKind so the controllers convert
// with a cast (asserted by tests on the coherence side).
package proto

import "fmt"

// L1State is an L1 controller's per-block protocol state: the stable
// line states in cache.LineState order, then the MSHR transient states
// in coherence.Transient order.
type L1State uint8

const (
	L1I L1State = iota // not resident, no outstanding transaction
	L1S
	L1E
	L1M
	L1O
	L1F
	L1ISD // IS^D: I->S/E, waiting for data
	L1IMD // IM^D: I->M, waiting for exclusive data
	L1SMA // SM^A: S->M, waiting for the upgrade ack
	L1EMA // EM^A: E->M, waiting for the upgrade ack (explicit-upgrade policies)

	NumL1States
)

var l1StateNames = [NumL1States]string{
	"I", "S", "E", "M", "O", "F", "IS^D", "IM^D", "SM^A", "EM^A",
}

func (s L1State) String() string {
	if s < NumL1States {
		return l1StateNames[s]
	}
	return fmt.Sprintf("L1State(%d)", uint8(s))
}

// DirState is the directory's per-block state: the stable entry states
// in coherence.DirState order, plus DirBusy for a block with an
// in-flight blocking transaction.
type DirState uint8

const (
	DirI    DirState = iota // no directory entry (block not LLC-resident)
	DirP                    // present in the LLC only
	DirS                    // one or more L1 sharers
	DirE                    // one L1 granted Exclusive (may have silently upgraded)
	DirM                    // one L1 known Modified
	DirO                    // MOESI: one dirty L1 owner plus sharers; LLC stale
	DirBusy                 // blocking transaction in flight; requests queue

	NumDirStates
)

var dirStateNames = [NumDirStates]string{
	"DirI", "DirP", "DirS", "DirE", "DirM", "DirO", "DirBusy",
}

func (s DirState) String() string {
	if s < NumDirStates {
		return dirStateNames[s]
	}
	return fmt.Sprintf("DirState(%d)", uint8(s))
}

// Event is anything that can drive a controller transition: a CPU
// examination (Load/Store), then every message kind in coherence.MsgKind
// order. The names match MsgKind.String() exactly (asserted on the
// coherence side) so relation entries and message traces read alike.
type Event uint8

const (
	EvLoad Event = iota
	EvStore

	EvGETS
	EvGETSWP
	EvGETX
	EvUpgrade
	EvPUTS
	EvPUTX
	EvUnblock
	EvExclusiveUnblock
	EvInvAck
	EvWBData

	EvData
	EvDataExclusive
	EvUpgradeAck
	EvInv
	EvFwdGETS
	EvFwdGETX
	EvDowngrade
	EvWBAck
	EvDataFromOwner

	NumEvents
)

var eventNames = [NumEvents]string{
	"Load", "Store",
	"GETS", "GETS_WP", "GETX", "Upgrade", "PUTS", "PUTX",
	"Unblock", "Exclusive_Unblock", "Inv_Ack", "WB_Data",
	"Data", "Data_Exclusive", "Upgrade_ACK", "Inv",
	"Fwd_GETS", "Fwd_GETX", "Downgrade", "WB_Ack", "Data_From_Owner",
}

func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// Class classifies one (state, event) pair.
type Class uint8

const (
	// Unclassified pairs exist only inside the table builder; a finished
	// table contains none (the completeness test proves it).
	Unclassified Class = iota

	// Defined: part of the protocol's transition relation. Dispatch runs
	// the action; the model checker expects the pair and validates the
	// post-dispatch state against Next.
	Defined

	// Defensive: outside the bounded-model relation, but the controller
	// handles it gracefully because wider configurations (deeper queues,
	// injected delays) could produce it — e.g. a fault-delayed WB_Ack
	// landing after the block was re-fetched. Dispatch runs the action;
	// the model checker still reports the pair as an unexpected
	// transition if its bounded exploration ever reaches one.
	Defensive

	// Impossible: structurally undeliverable — the event kind never
	// addresses this controller, is outside the policy's message
	// vocabulary, or the state row is unreachable under the policy.
	// Dispatch raises a protocol violation.
	Impossible

	// Illegal: deliverable in principle, but the protocol forbids it in
	// this state. Dispatch raises a protocol violation (the typed
	// fault.Violation the old hand-written default cases raised).
	Illegal
)

func (c Class) String() string {
	switch c {
	case Unclassified:
		return "unclassified"
	case Defined:
		return "defined"
	case Defensive:
		return "defensive"
	case Impossible:
		return "impossible"
	case Illegal:
		return "illegal"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// L1Action names the handler an L1 controller runs for a defined or
// defensive pair. The bodies live in internal/coherence; the table only
// selects among them.
type L1Action uint8

const (
	L1ActNone L1Action = iota // illegal/impossible pairs carry no action

	L1ActLoadHit     // stable-state load hit: complete from the line
	L1ActStoreHitM   // store hit on M: write in place
	L1ActStoreHitE   // store hit on E: silent upgrade or explicit EM^A (policy)
	L1ActStoreShared // store on S/O/F: Upgrade round trip via SM^A
	L1ActMiss        // no line, no MSHR: allocate and request
	L1ActMerge       // outstanding MSHR: append to pending
	L1ActData        // data response: install, grant, complete, unblock
	L1ActUpgradeAck  // upgrade ack: line to M, complete the store
	L1ActInv         // invalidation demand: drop the copy, ack
	L1ActFwdGETS     // serve a forwarded load (line or writeback buffer)
	L1ActFwdGETX     // surrender the block to a forwarded store
	L1ActDowngrade   // E->S demotion after an LLC serve
	L1ActWBAck       // eviction acknowledged: release the wb buffer entry

	NumL1Actions
)

var l1ActionNames = [NumL1Actions]string{
	"None", "LoadHit", "StoreHitM", "StoreHitE", "StoreShared", "Miss",
	"Merge", "Data", "UpgradeAck", "Inv", "FwdGETS", "FwdGETX",
	"Downgrade", "WBAck",
}

func (a L1Action) String() string {
	if a < NumL1Actions {
		return l1ActionNames[a]
	}
	return fmt.Sprintf("L1Action(%d)", uint8(a))
}

// DirAction names the handler a directory bank runs for a defined or
// defensive pair.
type DirAction uint8

const (
	DirActNone DirAction = iota

	DirActQueue        // busy block: queue the request behind the transaction
	DirActFetchLoad    // DirI load: fetch from memory, then grant
	DirActFetchStore   // DirI store: fetch from memory, then grant exclusively
	DirActGrantLoadP   // DirP load: grant from the LLC
	DirActGrantStoreP  // DirP store: grant exclusively from the LLC
	DirActLoadS        // DirS load: forwarder serve (MESIF) or LLC serve
	DirActLoadE        // DirE load: LLC serve + Downgrade, or forward (policy)
	DirActLoadOwner    // DirM/DirO load: forward to the owner
	DirActStoreS       // DirS store: invalidate sharers, grant on last ack
	DirActStoreOwner   // DirE/DirM store: hand ownership via Fwd_GETX
	DirActStoreO       // DirO store: forward to owner + invalidate sharers
	DirActUpgradeMiss  // Upgrade with no usable record: resolve as a store miss
	DirActUpgradeS     // DirS upgrade: ack a sharer (or resolve as store miss)
	DirActUpgradeOwner // DirE/DirM upgrade: ack the owner (or store miss)
	DirActUpgradeO     // DirO upgrade: ack owner or sharer (or store miss)
	DirActPUTS         // sharer eviction notice: clear the sharer bit
	DirActPUTSStale    // PUTS for a recalled block: nothing left to clear
	DirActPUTX         // owner/forwarder eviction: absorb data, ack
	DirActPUTXStale    // PUTX for a recalled block: commit to memory, ack
	DirActUnblock      // completion: requestor installed its grant
	DirActInvAck       // completion: one invalidation acknowledged
	DirActInvAckStale  // late ack for an already-completed transaction
	DirActWBData       // completion: owner's copy absorbed after a forward

	NumDirActions
)

var dirActionNames = [NumDirActions]string{
	"None", "Queue", "FetchLoad", "FetchStore", "GrantLoadP", "GrantStoreP",
	"LoadS", "LoadE", "LoadOwner", "StoreS", "StoreOwner", "StoreO",
	"UpgradeMiss", "UpgradeS", "UpgradeOwner", "UpgradeO",
	"PUTS", "PUTSStale", "PUTX", "PUTXStale",
	"Unblock", "InvAck", "InvAckStale", "WBData",
}

func (a DirAction) String() string {
	if a < NumDirActions {
		return dirActionNames[a]
	}
	return fmt.Sprintf("DirAction(%d)", uint8(a))
}

// L1Entry is one cell of the L1 half of a table.
type L1Entry struct {
	Class Class
	Act   L1Action
	Next  uint16 // bitmask over L1State: admissible post-dispatch states
}

// DirEntry is one cell of the directory half of a table.
type DirEntry struct {
	Class Class
	Act   DirAction
	Next  uint16 // bitmask over DirState: admissible post-dispatch states
}

// Table is one policy's complete transition relation: a fixed array per
// controller class, indexed by state and event enums. Lookup is a pair
// of array indexings — no maps, no allocation — so the runtime
// controllers dispatch from it on their hot paths.
type Table struct {
	Policy string
	L1     [NumL1States][NumEvents]L1Entry
	Dir    [NumDirStates][NumEvents]DirEntry
}

// L1Mask builds a next-state bitmask.
func L1Mask(states ...L1State) uint16 {
	var m uint16
	for _, s := range states {
		m |= 1 << s
	}
	return m
}

// DirMask builds a next-state bitmask.
func DirMask(states ...DirState) uint16 {
	var m uint16
	for _, s := range states {
		m |= 1 << s
	}
	return m
}

// DirMaskAll admits every directory state (completion events retire
// transactions and replay queued work, so any state can follow).
func DirMaskAll() uint16 { return 1<<NumDirStates - 1 }

// HasL1 reports whether mask admits s.
func HasL1(mask uint16, s L1State) bool { return mask&(1<<s) != 0 }

// HasDir reports whether mask admits s.
func HasDir(mask uint16, s DirState) bool { return mask&(1<<s) != 0 }

// Counts tallies the table's classifications over both controller
// halves, for reports and the -policy listing.
func (t *Table) Counts() (defined, defensive, impossible, illegal int) {
	bump := func(c Class) {
		switch c {
		case Defined:
			defined++
		case Defensive:
			defensive++
		case Impossible:
			impossible++
		case Illegal:
			illegal++
		}
	}
	for s := L1State(0); s < NumL1States; s++ {
		for e := Event(0); e < NumEvents; e++ {
			bump(t.L1[s][e].Class)
		}
	}
	for s := DirState(0); s < NumDirStates; s++ {
		for e := Event(0); e < NumEvents; e++ {
			bump(t.Dir[s][e].Class)
		}
	}
	return
}

// --- builder -------------------------------------------------------------

// l1 classifies one L1 cell. Re-classifying a cell is a builder bug.
func (t *Table) l1(c Class, s L1State, e Event, act L1Action, next ...L1State) {
	cell := &t.L1[s][e]
	if cell.Class != Unclassified {
		panic(fmt.Sprintf("proto: %s: L1[%s][%s] classified twice", t.Policy, s, e))
	}
	*cell = L1Entry{Class: c, Act: act, Next: L1Mask(next...)}
}

// dir classifies one directory cell.
func (t *Table) dir(c Class, s DirState, e Event, act DirAction, next ...DirState) {
	cell := &t.Dir[s][e]
	if cell.Class != Unclassified {
		panic(fmt.Sprintf("proto: %s: Dir[%s][%s] classified twice", t.Policy, s, e))
	}
	*cell = DirEntry{Class: c, Act: act, Next: DirMask(next...)}
}

// dirMasked is dir with an explicit next mask (for DirMaskAll entries).
func (t *Table) dirMasked(c Class, s DirState, e Event, act DirAction, mask uint16) {
	cell := &t.Dir[s][e]
	if cell.Class != Unclassified {
		panic(fmt.Sprintf("proto: %s: Dir[%s][%s] classified twice", t.Policy, s, e))
	}
	*cell = DirEntry{Class: c, Act: act, Next: mask}
}

// l1EventImpossible marks an entire event column undeliverable at the L1
// (directory-bound kinds, or kinds outside the policy's vocabulary).
func (t *Table) l1EventImpossible(e Event) {
	for s := L1State(0); s < NumL1States; s++ {
		if t.L1[s][e].Class == Unclassified {
			t.L1[s][e] = L1Entry{Class: Impossible}
		}
	}
}

// dirEventImpossible marks an entire event column undeliverable at the
// directory.
func (t *Table) dirEventImpossible(e Event) {
	for s := DirState(0); s < NumDirStates; s++ {
		if t.Dir[s][e].Class == Unclassified {
			t.Dir[s][e] = DirEntry{Class: Impossible}
		}
	}
}

// l1RowImpossible marks a state row unreachable under the policy.
func (t *Table) l1RowImpossible(s L1State) {
	for e := Event(0); e < NumEvents; e++ {
		if t.L1[s][e].Class == Unclassified {
			t.L1[s][e] = L1Entry{Class: Impossible}
		}
	}
}

// dirRowImpossible marks a state row unreachable under the policy.
func (t *Table) dirRowImpossible(s DirState) {
	for e := Event(0); e < NumEvents; e++ {
		if t.Dir[s][e].Class == Unclassified {
			t.Dir[s][e] = DirEntry{Class: Impossible}
		}
	}
}

// finish converts every still-unclassified cell to Illegal: the event is
// deliverable (its column survived the vocabulary pass) and the state is
// reachable (its row survived the reachability pass), but no transition
// is defined — exactly the pairs the hand-written controllers answered
// with a protocol-violation panic. After finish a table is total.
func (t *Table) finish() *Table {
	for s := L1State(0); s < NumL1States; s++ {
		for e := Event(0); e < NumEvents; e++ {
			if t.L1[s][e].Class == Unclassified {
				t.L1[s][e] = L1Entry{Class: Illegal}
			}
		}
	}
	for s := DirState(0); s < NumDirStates; s++ {
		for e := Event(0); e < NumEvents; e++ {
			if t.Dir[s][e].Class == Unclassified {
				t.Dir[s][e] = DirEntry{Class: Illegal}
			}
		}
	}
	return t
}
