package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/coherence"
)

func TestFig4Transcripts(t *testing.T) {
	out := Fig4()
	for _, want := range []string{
		"(a) Initial load of write-protected data",
		"GETS_WP", "Fwd_GETS", "Data_From_Owner", "Upgrade_ACK",
		"(d) Store after initial load", "silent E->M: no messages",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 output missing %q", want)
		}
	}
	// Panel (d) must contain no message lines: after its header there is
	// directly the next panel.
	dIdx := strings.Index(out, "(d) Store")
	eIdx := strings.Index(out, "(e) Remote")
	panel := out[dIdx:eIdx]
	if strings.Contains(panel, "L1(0)    ->") {
		t.Errorf("panel (d) contains messages:\n%s", panel)
	}
}

func TestFig5AllArchitecturesSecure(t *testing.T) {
	out := Fig5()
	if strings.Count(out, "yes") != 3 {
		t.Fatalf("not all architectures secure:\n%s", out)
	}
	for _, want := range []string{"PIPT", "VIPT", "VIVT", "tag comparison", "set indexing"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 missing %q", want)
		}
	}
}

func TestTrafficOrdering(t *testing.T) {
	out := Traffic(context.Background())
	if !strings.Contains(out, "SwiftDir-Ewp") {
		t.Fatal("traffic table missing E_wp")
	}
	// Quantified simplification claim: on the mixed workload SwiftDir
	// delivers fewer messages than MESI, which delivers fewer than S-MESI.
	totals := map[string]uint64{}
	for _, p := range coherence.AllPolicies {
		totals[p.Name()] = trafficSystem(p).TotalMessages()
	}
	if !(totals["SwiftDir"] < totals["MESI"] && totals["MESI"] < totals["S-MESI"]) {
		t.Fatalf("traffic ordering wrong: %v", totals)
	}
	if !(totals["SwiftDir"] < totals["SwiftDir-Ewp"]) {
		t.Fatalf("E_wp not costlier than SwiftDir: %v", totals)
	}
}

func TestAblationEwpSecureAndCostlier(t *testing.T) {
	out := AblationEwp(context.Background(), 64)
	if strings.Count(out, "CHANNEL CLOSED") != 2 {
		t.Fatalf("both SwiftDir and E_wp must close the channel:\n%s", out)
	}
}

func TestAblationWARParity(t *testing.T) {
	out := AblationWAR(context.Background(), 1)
	// All three rows must show SwiftDir and E_wp at parity with MESI.
	lines := strings.Split(out, "\n")
	found := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "array ") {
			found++
			if !strings.Contains(l, "100.000   100.000") {
				t.Errorf("WAR parity broken: %s", l)
			}
		}
	}
	if found != 3 {
		t.Fatalf("expected 3 app rows, saw %d", found)
	}
}
