package mcheck

import (
	"strings"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/proto"
)

// graphSize is an exploration's exact state-graph size.
type graphSize struct{ States, Edges, Terminal int }

// wantGraphSize fails unless res explored exactly want. The sizes pin the
// reachable state graph, so a change that claims to keep the protocols'
// behaviour must leave them unchanged.
func wantGraphSize(t *testing.T, res *Result, want graphSize) {
	t.Helper()
	if got := (graphSize{res.States, res.Edges, res.Terminal}); got != want {
		t.Errorf("%s: explored %d states, %d edges, %d terminal; want %d, %d, %d. "+
			"Update the expected values only for a protocol or fingerprint change that CHANGES.md names.",
			res.Policy, got.States, got.Edges, got.Terminal, want.States, want.Edges, want.Terminal)
	}
}

// TestExhaustiveDefault is the headline acceptance check: the full
// interleaving space of the default configuration (2 cores, 1 line,
// depth 4, every schedule) must be explored to completion — no
// truncation — with zero violations, for all three paper protocols,
// in well under a minute per policy, reaching exactly the expected graph.
func TestExhaustiveDefault(t *testing.T) {
	want := map[string]graphSize{
		"MESI":     {26489, 38710, 59},
		"SwiftDir": {112269, 167664, 88},
		"S-MESI":   {28633, 41554, 53},
	}
	for _, p := range coherence.Policies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			res, err := Run(Config{Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("violation:\n%s", res.Violation)
			}
			if res.Truncated {
				t.Fatalf("truncated at %d states: not an exhaustive run", res.States)
			}
			if res.States < 10000 {
				t.Errorf("only %d states explored; the schedule space collapsed "+
					"(fingerprint too coarse or actions not enabled)", res.States)
			}
			if res.Terminal == 0 {
				t.Error("no terminal states: exploration never drained a full schedule")
			}
			if res.Elapsed > 60*time.Second {
				t.Errorf("exploration took %v, over the 60s budget", res.Elapsed)
			}
			wantGraphSize(t, res, want[p.Name()])
			t.Logf("%s: %d states, %d edges, %d terminal, maxdepth %d, %v",
				res.Policy, res.States, res.Edges, res.Terminal, res.MaxDepth, res.Elapsed)
		})
	}
}

// TestDeterministicReplay: the whole checker rests on replay determinism
// (a node is just an action sequence). Two independent runs of the same
// configuration must reach exactly the same state graph.
func TestDeterministicReplay(t *testing.T) {
	cfg := Config{Policy: coherence.SwiftDir, Depth: 3}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.States != b.States || a.Edges != b.Edges || a.Terminal != b.Terminal {
		t.Fatalf("two runs diverged: %d/%d/%d vs %d/%d/%d states/edges/terminal",
			a.States, a.Edges, a.Terminal, b.States, b.Edges, b.Terminal)
	}
	if len(a.Observed) != len(b.Observed) {
		t.Fatalf("observed pair sets differ: %d vs %d", len(a.Observed), len(b.Observed))
	}
	for p := range a.Observed {
		if !b.Observed[p] {
			t.Errorf("pair %s observed in run A only", p)
		}
	}
}

// buggyPolicy seeds a real protocol bug: plain MESI (silent E->M
// upgrades) but with S-MESI's LLC serve of E blocks, which is only sound
// when silent upgrades are revoked. The directory will serve a load
// exclusively from a stale LLC copy while the silent owner holds modified
// data — the checker must find it and produce a counterexample.
var buggyPolicy = func() coherence.Policy {
	f := coherence.MESI.Features()
	f.LLCServeE = proto.TriAlways
	return coherence.NewPolicy("MESI-bug", f)
}()

func TestSeededBugFound(t *testing.T) {
	res, err := Run(Config{Policy: buggyPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("seeded ServeExclusiveFromLLC-without-revocation bug not found")
	}
	cx := res.Violation
	if len(cx.Actions) == 0 {
		t.Error("counterexample has no actions")
	}
	if cx.Trace == "" {
		t.Error("counterexample has no message transcript")
	}
	if cx.Script() == "" {
		t.Error("counterexample script is empty")
	}
	switch cx.Violation.Kind {
	case "swmr", "data-value":
		// Either symptom of the stale exclusive serve is acceptable.
	default:
		t.Errorf("unexpected violation kind %q (want swmr or data-value):\n%s",
			cx.Violation.Kind, cx)
	}
	t.Logf("found %s after %d states with a %d-action counterexample",
		cx.Violation.Kind, res.States, len(cx.Actions))
}

// TestCounterexampleMinimal: BFS explores by depth, so the reported
// schedule must be minimal — rerunning the checker with Depth set just
// below the counterexample's injection count must find nothing.
func TestCounterexampleMinimal(t *testing.T) {
	res, err := Run(Config{Policy: buggyPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("seeded bug not found")
	}
	injects := 0
	for _, a := range res.Violation.Actions {
		if !a.Step {
			injects++
		}
	}
	if injects < 2 {
		t.Skipf("counterexample uses %d access(es); nothing to shrink", injects)
	}
	shrunk, err := Run(Config{Policy: buggyPolicy, Depth: injects - 1})
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Violation != nil {
		t.Errorf("violation still found at depth %d; the depth-%d counterexample "+
			"was not minimal:\n%s", injects-1, injects, shrunk.Violation)
	}
}

// TestConfigValidation: bad configurations must be rejected before any
// exploration starts.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"nil policy", Config{}, "nil policy"},
		{"cores", Config{Policy: coherence.MESI, Cores: 9}, "Cores"},
		{"lines", Config{Policy: coherence.MESI, Lines: 99}, "Lines"},
		{"depth", Config{Policy: coherence.MESI, Depth: 64}, "Depth"},
		{"prelude core", Config{Policy: coherence.MESI,
			Prelude: []Inject{{Core: 5, Op: OpLoad}}}, "prelude"},
		{"prelude line", Config{Policy: coherence.MESI,
			Prelude: []Inject{{Line: 3, Op: OpLoad}}}, "prelude"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestWPAlphabet: write-protected loads join the alphabet only for
// policies that issue GETS_WP (unless forced).
func TestWPAlphabet(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want bool
	}{
		{Config{Policy: coherence.MESI}, false},
		{Config{Policy: coherence.SwiftDir}, true},
		{Config{Policy: coherence.SwiftDir, WPLoads: WPOff}, false},
		{Config{Policy: coherence.MESI, WPLoads: WPOn}, true},
	} {
		if err := tc.cfg.fill(); err != nil {
			t.Fatal(err)
		}
		if got := tc.cfg.wpEnabled(); got != tc.want {
			t.Errorf("%s WPLoads=%d: wpEnabled=%v, want %v",
				tc.cfg.Policy.Name(), tc.cfg.WPLoads, got, tc.want)
		}
	}
}
