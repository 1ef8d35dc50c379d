package mcheck

import (
	"fmt"

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

// Pair is the printed form of one (controller state, event) cell, as the
// coverage report and the coverage allowlist spell it. State is the
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

// Cells is a set of transition-table cells, indexed like the two halves
// of a proto.Table.
type Cells struct {
	L1  [proto.NumL1States][proto.NumEvents]bool
	Dir [proto.NumDirStates][proto.NumEvents]bool
}

// definedCells returns the cells t classifies Defined: the relation the
// checker verifies. Defensive cells are deliberately outside it: the
// controllers handle them gracefully because wider configurations (deeper
// queues, injected delays) could produce them, but the bounded model
// should never reach one, so observing one is still an
// unexpected-transition violation.
func definedCells(t *proto.Table) Cells {
	var c Cells
	for s := range c.L1 {
		for e := range c.L1[s] {
			c.L1[s][e] = t.L1[s][e].Class == proto.Defined
		}
	}
	for s := range c.Dir {
		for e := range c.Dir[s] {
			c.Dir[s][e] = t.Dir[s][e].Class == proto.Defined
		}
	}
	return c
}

// Pairs lists the set's cells in printed form: L1 cells first, each half
// in state, then event, order.
func (c *Cells) Pairs() []Pair {
	var out []Pair
	for s := range c.L1 {
		for e, in := range c.L1[s] {
			if in {
				out = append(out, Pair{CtrlL1, proto.L1State(s).String(), proto.Event(e).String()})
			}
		}
	}
	for s := range c.Dir {
		for e, in := range c.Dir[s] {
			if in {
				out = append(out, Pair{CtrlDir, proto.DirState(s).String(), proto.Event(e).String()})
			}
		}
	}
	return out
}
