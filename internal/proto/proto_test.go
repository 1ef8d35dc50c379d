package proto_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/proto"
)

// TestTablesTotal is the table-completeness proof: every (state, event)
// pair of every registered policy is classified — a defined transition,
// a defensively handled delivery, a structurally impossible pair, or an
// illegal pair that dispatch answers with a typed violation. No cell is
// left unclassified, and the classification determines exactly whether
// the cell carries an action and a next-state mask.
func TestTablesTotal(t *testing.T) {
	for _, p := range coherence.ExtendedPolicies {
		name, tab := p.Name(), p.Table()
		for s := proto.L1State(0); s < proto.NumL1States; s++ {
			for e := proto.Event(0); e < proto.NumEvents; e++ {
				checkCell(t, name, fmt.Sprintf("L1[%v][%v]", s, e),
					tab.L1[s][e].Class, tab.L1[s][e].Act != proto.L1ActNone,
					tab.L1[s][e].Next)
			}
		}
		for s := proto.DirState(0); s < proto.NumDirStates; s++ {
			for e := proto.Event(0); e < proto.NumEvents; e++ {
				checkCell(t, name, fmt.Sprintf("Dir[%v][%v]", s, e),
					tab.Dir[s][e].Class, tab.Dir[s][e].Act != proto.DirActNone,
					tab.Dir[s][e].Next)
			}
		}
	}
}

func checkCell(t *testing.T, policy, cell string, c proto.Class, hasAct bool, next uint16) {
	t.Helper()
	switch c {
	case proto.Defined, proto.Defensive:
		if !hasAct {
			t.Errorf("%s: %s is %v but has no action", policy, cell, c)
		}
		if next == 0 {
			t.Errorf("%s: %s is %v but has an empty next-state mask", policy, cell, c)
		}
	case proto.Impossible, proto.Illegal:
		if hasAct || next != 0 {
			t.Errorf("%s: %s is %v but carries an action or mask", policy, cell, c)
		}
	default:
		t.Errorf("%s: %s is unclassified", policy, cell)
	}
}

// TestActionsInRange: every action index a table cell carries is a real
// enum value (guards against a skew between the tables and the hook
// arrays the controllers index with them).
func TestActionsInRange(t *testing.T) {
	for _, p := range coherence.ExtendedPolicies {
		name, tab := p.Name(), p.Table()
		for s := proto.L1State(0); s < proto.NumL1States; s++ {
			for e := proto.Event(0); e < proto.NumEvents; e++ {
				if a := tab.L1[s][e].Act; a >= proto.NumL1Actions {
					t.Errorf("%s: L1[%v][%v] action %d out of range", name, s, e, a)
				}
			}
		}
		for s := proto.DirState(0); s < proto.NumDirStates; s++ {
			for e := proto.Event(0); e < proto.NumEvents; e++ {
				if a := tab.Dir[s][e].Act; a >= proto.NumDirActions {
					t.Errorf("%s: Dir[%v][%v] action %d out of range", name, s, e, a)
				}
			}
		}
	}
}

// definedSet renders a table's Defined relation as sorted "Ctrl state ev"
// strings for comparison against the pinned paper relations.
func definedSet(tab *proto.Table) []string {
	var out []string
	for s := proto.L1State(0); s < proto.NumL1States; s++ {
		for e := proto.Event(0); e < proto.NumEvents; e++ {
			if tab.L1[s][e].Class == proto.Defined {
				out = append(out, fmt.Sprintf("L1 %v %v", s, e))
			}
		}
	}
	for s := proto.DirState(0); s < proto.NumDirStates; s++ {
		for e := proto.Event(0); e < proto.NumEvents; e++ {
			if tab.Dir[s][e].Class == proto.Defined {
				out = append(out, fmt.Sprintf("Dir %v %v", s, e))
			}
		}
	}
	sort.Strings(out)
	return out
}

// legacyRelations pins the Defined relation of the three paper policies
// to the exact (state, event) sets the model checker shipped with before
// the tables moved here (internal/mcheck/table.go at PR 4). The builder
// must reproduce them verbatim: mcheck's unexpected-transition check and
// its coverage allowlists are calibrated against these sets.
var legacyRelations = map[string][]string{
	"MESI": {
		"L1 I: Load Store Inv Fwd_GETS Fwd_GETX WB_Ack",
		"L1 S: Load Store Inv",
		"L1 E: Load Store Fwd_GETS Fwd_GETX",
		"L1 M: Load Store Fwd_GETS Fwd_GETX",
		"L1 IS^D: Load Store Data Data_Exclusive Data_From_Owner Inv WB_Ack Fwd_GETS Fwd_GETX",
		"L1 IM^D: Load Store Data_Exclusive Data_From_Owner Inv WB_Ack Fwd_GETS Fwd_GETX",
		"L1 SM^A: Load Store Upgrade_ACK Inv",
		"Dir DirI: GETS GETX Upgrade PUTS PUTX",
		"Dir DirP: GETS GETX PUTS",
		"Dir DirS: GETS GETX Upgrade PUTS PUTX",
		"Dir DirE: GETS GETX Upgrade PUTX",
		"Dir DirM: GETS GETX Upgrade PUTX",
		"Dir DirBusy: GETS GETX Upgrade PUTS PUTX Unblock Exclusive_Unblock Inv_Ack WB_Data",
	},
	"SwiftDir": {
		"L1 I: Load Store Inv Fwd_GETS Fwd_GETX WB_Ack",
		"L1 S: Load Store Inv",
		"L1 E: Load Store Fwd_GETS Fwd_GETX",
		"L1 M: Load Store Fwd_GETS Fwd_GETX",
		"L1 IS^D: Load Store Data Data_Exclusive Data_From_Owner Inv WB_Ack Fwd_GETS Fwd_GETX",
		"L1 IM^D: Load Store Data_Exclusive Data_From_Owner Inv WB_Ack Fwd_GETS Fwd_GETX",
		"L1 SM^A: Load Store Upgrade_ACK Inv",
		"Dir DirI: GETS GETS_WP GETX Upgrade PUTS PUTX",
		"Dir DirP: GETS GETS_WP GETX PUTS",
		"Dir DirS: GETS GETS_WP GETX Upgrade PUTS PUTX",
		"Dir DirE: GETS GETS_WP GETX Upgrade PUTX",
		"Dir DirM: GETS GETS_WP GETX Upgrade PUTX",
		"Dir DirBusy: GETS GETS_WP GETX Upgrade PUTS PUTX Unblock Exclusive_Unblock Inv_Ack WB_Data",
	},
	"S-MESI": {
		"L1 I: Load Store Inv Fwd_GETS Fwd_GETX WB_Ack Downgrade",
		"L1 S: Load Store Inv",
		"L1 E: Load Store Fwd_GETX Downgrade",
		"L1 M: Load Store Fwd_GETS Fwd_GETX",
		"L1 IS^D: Load Store Data Data_Exclusive Data_From_Owner Inv WB_Ack Fwd_GETS Fwd_GETX Downgrade",
		"L1 IM^D: Load Store Data_Exclusive Data_From_Owner Inv WB_Ack Fwd_GETS Fwd_GETX Downgrade",
		"L1 SM^A: Load Store Upgrade_ACK Inv",
		"L1 EM^A: Load Store Upgrade_ACK Fwd_GETX Downgrade",
		"Dir DirI: GETS GETX Upgrade PUTS PUTX",
		"Dir DirP: GETS GETX PUTS",
		"Dir DirS: GETS GETX Upgrade PUTS PUTX",
		"Dir DirE: GETS GETX Upgrade PUTX",
		"Dir DirM: GETS GETX Upgrade PUTX",
		"Dir DirBusy: GETS GETX Upgrade PUTS PUTX Unblock Exclusive_Unblock Inv_Ack WB_Data",
	},
}

func expandLegacy(lines []string) []string {
	var out []string
	for _, ln := range lines {
		head, evs, ok := strings.Cut(ln, ": ")
		if !ok {
			panic("bad legacy line: " + ln)
		}
		ctrl, state, ok := strings.Cut(head, " ")
		if !ok {
			panic("bad legacy head: " + head)
		}
		for _, ev := range strings.Fields(evs) {
			out = append(out, fmt.Sprintf("%s %s %s", ctrl, state, ev))
		}
	}
	sort.Strings(out)
	return out
}

// TestLegacyRelationsPreserved proves the feature-driven builder emits
// byte-for-byte the relation the hand-maintained mcheck tables encoded
// for MESI, SwiftDir and S-MESI.
func TestLegacyRelationsPreserved(t *testing.T) {
	for name, lines := range legacyRelations {
		want := expandLegacy(lines)
		got := definedSet(coherence.PolicyByName(name).Table())
		if len(got) != len(want) {
			t.Errorf("%s: %d defined pairs, legacy had %d", name, len(got), len(want))
		}
		wantSet := make(map[string]bool, len(want))
		for _, p := range want {
			wantSet[p] = true
		}
		gotSet := make(map[string]bool, len(got))
		for _, p := range got {
			gotSet[p] = true
		}
		for _, p := range want {
			if !gotSet[p] {
				t.Errorf("%s: legacy pair %q missing from the built table", name, p)
			}
		}
		for _, p := range got {
			if !wantSet[p] {
				t.Errorf("%s: built table defines %q, absent from the legacy relation", name, p)
			}
		}
	}
}

// TestPhasePriorityRelationIsMESI: arbitration only reorders the
// directory's pending queues; queued replays are not observable events,
// so the relation must be exactly MESI's.
func TestPhasePriorityRelationIsMESI(t *testing.T) {
	mesi := definedSet(coherence.MESI.Table())
	pp := definedSet(coherence.PhasePriority.Table())
	if len(mesi) != len(pp) {
		t.Fatalf("Phase-Priority defines %d pairs, MESI %d", len(pp), len(mesi))
	}
	for i := range mesi {
		if mesi[i] != pp[i] {
			t.Fatalf("relation diverges: MESI has %q, Phase-Priority %q", mesi[i], pp[i])
		}
	}
}

// TestLookupAllocationFree pins the hot-path property the controllers
// rely on: a table lookup is two array indexings, no map access, no
// allocation.
func TestLookupAllocationFree(t *testing.T) {
	tab := coherence.SwiftDir.Table()
	var sink uint64
	n := testing.AllocsPerRun(1000, func() {
		for s := proto.L1State(0); s < proto.NumL1States; s++ {
			e := tab.L1[s][proto.EvStore]
			sink += uint64(e.Next) + uint64(e.Act)
		}
		for s := proto.DirState(0); s < proto.NumDirStates; s++ {
			e := tab.Dir[s][proto.EvGETX]
			sink += uint64(e.Next) + uint64(e.Act)
		}
	})
	if n != 0 {
		t.Fatalf("table lookup allocates (%v allocs/run)", n)
	}
	_ = sink
}

// TestMaskHelpers sanity-checks the bitmask helpers the checker uses.
func TestMaskHelpers(t *testing.T) {
	m := proto.L1Mask(proto.L1I, proto.L1SMA)
	if !proto.HasL1(m, proto.L1I) || !proto.HasL1(m, proto.L1SMA) || proto.HasL1(m, proto.L1M) {
		t.Fatal("L1Mask/HasL1 broken")
	}
	d := proto.DirMask(proto.DirP, proto.DirBusy)
	if !proto.HasDir(d, proto.DirP) || !proto.HasDir(d, proto.DirBusy) || proto.HasDir(d, proto.DirM) {
		t.Fatal("DirMask/HasDir broken")
	}
	all := proto.DirMaskAll()
	for s := proto.DirState(0); s < proto.NumDirStates; s++ {
		if !proto.HasDir(all, s) {
			t.Fatalf("DirMaskAll missing %v", s)
		}
	}
}

// TestNames: the policy list is stable and complete, every policy's table
// carries its name, and strangers resolve to nil.
func TestNames(t *testing.T) {
	if n := len(coherence.ExtendedPolicies); n != 10 {
		t.Fatalf("expected 10 policies, got %d: %v", n, coherence.PolicyNames())
	}
	seen := make(map[string]bool)
	for _, p := range coherence.ExtendedPolicies {
		n := p.Name()
		if seen[n] {
			t.Fatalf("duplicate policy name %q", n)
		}
		seen[n] = true
		if p.Table().Policy != n {
			t.Fatalf("%s: table names policy %q", n, p.Table().Policy)
		}
	}
	if coherence.PolicyByName("MOESIFZ") != nil {
		t.Fatal("PolicyByName should return nil for unknown policies")
	}
}

// TestCounts: classification totals cover the whole space.
func TestCounts(t *testing.T) {
	total := int(proto.NumL1States)*int(proto.NumEvents) + int(proto.NumDirStates)*int(proto.NumEvents)
	for _, p := range coherence.ExtendedPolicies {
		name := p.Name()
		def, dfn, imp, ill := p.Table().Counts()
		if def+dfn+imp+ill != total {
			t.Errorf("%s: counts %d+%d+%d+%d != %d cells",
				name, def, dfn, imp, ill, total)
		}
		if def == 0 || imp == 0 || ill == 0 {
			t.Errorf("%s: degenerate classification (%d/%d/%d/%d)",
				name, def, dfn, imp, ill)
		}
	}
}
