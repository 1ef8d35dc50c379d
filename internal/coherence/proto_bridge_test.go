package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/proto"
)

// TestProtoEventAlignment: every MsgKind converts to the proto event with
// the identical canonical name, and Load/Store map to the CPU events.
// This is the contract that lets the bridge convert with a cast.
func TestProtoEventAlignment(t *testing.T) {
	for k := MsgGETS; k <= MsgDataFromOwner; k++ {
		if got, want := protoEvent(k).String(), k.String(); got != want {
			t.Errorf("MsgKind %d: proto event %q != msg kind %q", k, got, want)
		}
	}
	if int(MsgDataFromOwner)+1 != int(proto.NumEvents)-2 {
		t.Errorf("event count skew: %d message kinds vs %d proto events (2 CPU)",
			int(MsgDataFromOwner)+1, proto.NumEvents)
	}
	if cpuEvent(false) != proto.EvLoad || cpuEvent(true) != proto.EvStore {
		t.Error("cpuEvent mapping broken")
	}
	if proto.EvLoad.String() != "Load" || proto.EvStore.String() != "Store" {
		t.Error("CPU event names diverge from the observation vocabulary")
	}
}

// TestProtoStateAlignment: line states, transient states and directory
// states convert by cast/offset, and the proto labels equal the ones the
// controllers print (dumps, mcheck pairs, transcripts all share them).
func TestProtoStateAlignment(t *testing.T) {
	lineStates := []cache.LineState{
		cache.Invalid, cache.Shared, cache.Exclusive,
		cache.Modified, cache.Owned, cache.Forward,
	}
	wantL1 := []proto.L1State{proto.L1I, proto.L1S, proto.L1E, proto.L1M, proto.L1O, proto.L1F}
	for i, ls := range lineStates {
		if proto.L1State(ls) != wantL1[i] {
			t.Errorf("cache.%v = %d, proto.%v = %d", ls, ls, wantL1[i], wantL1[i])
		}
	}
	for tr := TrISD; tr <= TrEMA; tr++ {
		ps := proto.L1ISD + proto.L1State(tr)
		if ps.String() != tr.String() {
			t.Errorf("Transient %d: proto label %q != controller label %q",
				tr, ps.String(), tr.String())
		}
	}
	dirStates := []DirState{
		DirInvalid, DirPresent, DirShared, DirExclusive, DirModifiedL1, DirOwned,
	}
	wantDir := []proto.DirState{
		proto.DirI, proto.DirP, proto.DirS, proto.DirE, proto.DirM, proto.DirO,
	}
	for i, ds := range dirStates {
		if proto.DirState(ds) != wantDir[i] {
			t.Errorf("DirState %v = %d, proto %v = %d", ds, ds, wantDir[i], wantDir[i])
		}
		if proto.DirState(ds).String() != ds.String() {
			t.Errorf("DirState %v: proto label %q != controller label %q",
				ds, proto.DirState(ds).String(), ds.String())
		}
	}
}

// TestPolicyTruthTable pins the six runtime questions every policy
// answers, derived from its features, to a literal table of the answers
// the protocols gave when each was a hand-written implementation. It is
// the reference that keeps the feature encoding honest now that the
// features are the only definition.
func TestPolicyTruthTable(t *testing.T) {
	type row struct {
		name                                          string
		wp                                            bool
		load                                          MsgKind
		silent, grantE, llcServe, ownership, fwdState bool
	}
	want := []row{
		{"MESI", false, MsgGETS, true, true, false, false, false},
		{"MESI", true, MsgGETS, true, true, false, false, false},
		{"SwiftDir", false, MsgGETS, true, true, false, false, false},
		{"SwiftDir", true, MsgGETSWP, true, false, false, false, false},
		{"S-MESI", false, MsgGETS, false, true, true, false, false},
		{"S-MESI", true, MsgGETS, false, true, true, false, false},
		{"SwiftDir-Ewp", false, MsgGETS, true, true, false, false, false},
		{"SwiftDir-Ewp", true, MsgGETSWP, false, true, true, false, false},
		{"MOESI", false, MsgGETS, true, true, false, true, false},
		{"MOESI", true, MsgGETS, true, true, false, true, false},
		{"SwiftDir-MOESI", false, MsgGETS, true, true, false, true, false},
		{"SwiftDir-MOESI", true, MsgGETSWP, true, false, false, true, false},
		{"MESIF", false, MsgGETS, true, true, false, false, true},
		{"MESIF", true, MsgGETS, true, true, false, false, true},
		{"SwiftDir-MESIF", false, MsgGETS, true, true, false, false, true},
		{"SwiftDir-MESIF", true, MsgGETSWP, true, false, false, false, false},
		{"MSI", false, MsgGETS, false, false, false, false, false},
		{"MSI", true, MsgGETS, false, false, false, false, false},
		{"Phase-Priority", false, MsgGETS, true, true, false, false, false},
		{"Phase-Priority", true, MsgGETS, true, true, false, false, false},
	}
	if len(want) != 2*len(ExtendedPolicies) {
		t.Fatalf("truth table has %d rows for %d policies", len(want), len(ExtendedPolicies))
	}
	for _, w := range want {
		p := PolicyByName(w.name)
		if p == nil {
			t.Fatalf("%s: no such policy", w.name)
		}
		got := row{w.name, w.wp, p.LoadRequest(w.wp), p.SilentUpgrade(w.wp), p.GrantExclusiveOnLoad(w.wp),
			p.ServeExclusiveFromLLC(w.wp), p.OwnershipTransfer(), p.ForwardStateFor(w.wp)}
		if got != w {
			t.Errorf("%s wp=%v: got %+v, want %+v", w.name, w.wp, got, w)
		}
	}
}
