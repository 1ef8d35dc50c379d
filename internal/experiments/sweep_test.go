package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/sim"
)

// The sweep's claim, asserted point by point: MESI's E/S gap equals
// Hop + RemoteL1Service at every calibration; every SwiftDir variant and
// S-MESI hold it at exactly zero.
func TestTimingSweepGaps(t *testing.T) {
	for _, hop := range []sim.Cycle{1, 3, 8} {
		for _, svc := range []sim.Cycle{10, 23, 40} {
			tm := coherence.DefaultTiming()
			tm.Hop, tm.RemoteL1Service = hop, svc
			for _, p := range coherence.AllPolicies {
				got, mesiGap := probeGapCheck(p, tm)
				closes := p.LoadRequest(true) == coherence.MsgGETSWP &&
					!p.GrantExclusiveOnLoad(true)
				switch {
				case p.Name() == "MESI" || p.Name() == "MOESI":
					if got != mesiGap {
						t.Errorf("%s hop=%d svc=%d: gap %d, want %d", p.Name(), hop, svc, got, mesiGap)
					}
				case p.Name() == "MESIF":
					// MESIF's forwarder makes the shared probe 3-hop too,
					// equalizing this pair (its residual channel is
					// forwarder-present vs -absent; see moesi study).
					if got != 0 {
						t.Errorf("MESIF hop=%d svc=%d: gap %d, want 0", hop, svc, got)
					}
				case closes || p.Name() == "S-MESI" || p.Name() == "SwiftDir-Ewp":
					if got != 0 {
						t.Errorf("%s hop=%d svc=%d: gap %d, want 0", p.Name(), hop, svc, got)
					}
				}
			}
		}
	}
}

func TestTimingSweepRenders(t *testing.T) {
	out := TimingSweep(context.Background())
	if !strings.Contains(out, "MESI gap") || !strings.Contains(out, "SwiftDir gap") {
		t.Fatalf("missing columns:\n%s", out)
	}
	// 5 hops x 3 service times = 15 data rows.
	if n := strings.Count(out, "\n"); n < 18 {
		t.Fatalf("table too short (%d lines):\n%s", n, out)
	}
}
