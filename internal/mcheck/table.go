package mcheck

import (
	"fmt"
	"sort"

	"repro/internal/coherence"
	"repro/internal/proto"
)

// Ctrl identifies which controller class observed an event.
type Ctrl uint8

const (
	CtrlL1 Ctrl = iota
	CtrlDir
)

func (c Ctrl) String() string {
	if c == CtrlDir {
		return "Dir"
	}
	return "L1"
}

// Pair is one (controller state, event) observation. State is the
// receiver's state at delivery time: for an L1, the MSHR transient state
// if the block has an outstanding transaction, else the stable line state
// ("I" when absent); for the directory, "DirBusy" if the block has an
// in-flight transaction, else the entry state ("DirI" when absent).
// Event is a MsgKind name, or "Load"/"Store" for CPU accesses observed
// at L1 examination time.
type Pair struct {
	Ctrl  Ctrl
	State string
	Event string
}

func (p Pair) String() string {
	return fmt.Sprintf("%s[%s] <- %s", p.Ctrl, p.State, p.Event)
}

// Event-name shorthands for CPU examinations (message events use the
// MsgKind names directly, which proto asserts equal its Event names).
const (
	evLoad  = "Load"
	evStore = "Store"
)

// Table is a protocol's transition relation as the checker consumes it.
// It is a view over the policy's canonical proto.Table — the SAME table
// the runtime controllers dispatch from — so the relation the simulator
// executes and the relation the checker verifies cannot drift apart.
//
// Allowed is the set of Defined (state, event) pairs, keyed by the
// canonical state/event name strings. Defensive cells are deliberately
// NOT allowed: the controllers handle them gracefully because wider
// configurations (deeper queues, injected delays) could produce them,
// but the bounded model should never reach one, so observing one is
// still an unexpected-transition violation. Proto carries the full
// cells for next-state mask conformance after each dispatch.
type Table struct {
	Policy  string
	Proto   *proto.Table
	Allowed map[Pair]bool
}

// fromProto projects a canonical table onto the checker's string-keyed
// view of its Defined relation.
func fromProto(pt *proto.Table) *Table {
	t := &Table{Policy: pt.Policy, Proto: pt, Allowed: make(map[Pair]bool)}
	for s := proto.L1State(0); s < proto.NumL1States; s++ {
		for e := proto.Event(0); e < proto.NumEvents; e++ {
			if pt.L1[s][e].Class == proto.Defined {
				t.Allowed[Pair{CtrlL1, s.String(), e.String()}] = true
			}
		}
	}
	for s := proto.DirState(0); s < proto.NumDirStates; s++ {
		for e := proto.Event(0); e < proto.NumEvents; e++ {
			if pt.Dir[s][e].Class == proto.Defined {
				t.Allowed[Pair{CtrlDir, s.String(), e.String()}] = true
			}
		}
	}
	return t
}

// Pairs returns the table entries sorted (Ctrl, State, Event).
func (t *Table) Pairs() []Pair {
	out := make([]Pair, 0, len(t.Allowed))
	for p := range t.Allowed {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Ctrl != b.Ctrl {
			return a.Ctrl < b.Ctrl
		}
		if a.State != b.State {
			return a.State < b.State
		}
		return a.Event < b.Event
	})
	return out
}

// TableFor returns the transition relation for a policy: a view over the
// same proto.Table its controllers dispatch from.
func TableFor(p coherence.Policy) *Table { return fromProto(p.Table()) }
