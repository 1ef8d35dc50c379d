package mcheck

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/proto"
)

// TestTablesAreSharedWithDispatch pins the single-source-of-truth
// property: for every shipped policy the checker's relation is a view
// over the SAME proto.Table instance the runtime controllers dispatch
// from (the one the policy built when it was defined), and Allowed is
// exactly its Defined cells.
func TestTablesAreSharedWithDispatch(t *testing.T) {
	for _, p := range coherence.ExtendedPolicies {
		tb := TableFor(p)
		pt := p.Table()
		if tb.Proto != pt {
			t.Errorf("%s: checker table is not the dispatch table instance", p.Name())
		}
		defined, _, _, _ := pt.Counts()
		if len(tb.Allowed) != defined {
			t.Errorf("%s: Allowed has %d pairs, table defines %d",
				p.Name(), len(tb.Allowed), defined)
		}
		for _, pr := range tb.Pairs() {
			if pr.State == "" || pr.Event == "" {
				t.Errorf("%s: malformed pair %v", p.Name(), pr)
			}
		}
	}
}

// TestTablesComplete asserts every (state, event) cell of every shipped
// table carries an explicit classification — there is no silent-default
// cell a controller could fall through, and every cell outside the
// relation is typed (defensive, impossible, or illegal).
func TestTablesComplete(t *testing.T) {
	for _, p := range coherence.ExtendedPolicies {
		name, pt := p.Name(), p.Table()
		for s := proto.L1State(0); s < proto.NumL1States; s++ {
			for e := proto.Event(0); e < proto.NumEvents; e++ {
				if pt.L1[s][e].Class == proto.Unclassified {
					t.Errorf("%s: L1[%s][%s] unclassified", name, s, e)
				}
			}
		}
		for s := proto.DirState(0); s < proto.NumDirStates; s++ {
			for e := proto.Event(0); e < proto.NumEvents; e++ {
				if pt.Dir[s][e].Class == proto.Unclassified {
					t.Errorf("%s: Dir[%s][%s] unclassified", name, s, e)
				}
			}
		}
	}
}
