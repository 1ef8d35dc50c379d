package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/coherence"
)

func TestMSIStudyRenders(t *testing.T) {
	out := MSIStudy(context.Background(), 64, 1)
	for _, want := range []string{"MSI", "S-MESI", "SwiftDir", "Upgrade msgs", "normalized to MESI"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// The study's core claims, asserted directly rather than eyeballed.
func TestMSIPrivateRMWTax(t *testing.T) {
	const n = 64
	type m struct {
		cycles   int
		upgrades uint64
		silent   uint64
	}
	res := map[string]m{}
	for _, p := range []coherence.Policy{coherence.MESI, coherence.MSI, coherence.SMESI, coherence.SwiftDir} {
		sys, cycles := privateRMW(p, n)
		res[p.Name()] = m{cycles, sys.MsgCount(coherence.MsgUpgrade), sys.L1s[0].Stats.SilentUpgrades}
	}

	// MESI and SwiftDir: all-silent, zero Upgrade messages, identical cost.
	for _, name := range []string{"MESI", "SwiftDir"} {
		if r := res[name]; r.upgrades != 0 || r.silent != n {
			t.Errorf("%s: %d upgrades, %d silent; want 0, %d", name, r.upgrades, r.silent, n)
		}
	}
	if res["MESI"].cycles != res["SwiftDir"].cycles {
		t.Errorf("SwiftDir private-data cost diverged from MESI: %d vs %d",
			res["SwiftDir"].cycles, res["MESI"].cycles)
	}

	// MSI and S-MESI: one Upgrade round trip per line, no silent upgrades.
	for _, name := range []string{"MSI", "S-MESI"} {
		if r := res[name]; r.upgrades != n || r.silent != 0 {
			t.Errorf("%s: %d upgrades, %d silent; want %d, 0", name, r.upgrades, r.silent, n)
		}
		if res[name].cycles <= res["MESI"].cycles {
			t.Errorf("%s not slower than MESI on private RMW: %d vs %d",
				name, res[name].cycles, res["MESI"].cycles)
		}
	}
}
