package coherence

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
)

// Differential table-vs-transcript harness: directed litmus and
// conformance scenarios (plus a seeded random stress mix) run with a
// TransitionRecorder attached, and the resulting (state, event, next,
// action) transcripts are compared byte-for-byte against golden files
// recorded from the pre-refactor switch-based controllers. Because the
// recorder also validates every transition against the proto table while
// recording, a passing run simultaneously proves (a) dispatch behaviour
// is unchanged and (b) the canonical tables are sound for every
// transition the scenarios exercise.
//
// Regenerate with SWIFTDIR_UPDATE_TRANSCRIPTS=1 — but note that needing
// to regenerate after a dispatch change means the change altered
// controller behaviour, which is exactly what this harness exists to
// catch.

// taccess is one scripted access; all accesses of a phase are submitted
// before the engine drains, so a phase with conflicting accesses
// exercises the directory's queue/replay machinery.
type taccess struct {
	core  int
	write bool
	line  int
	wp    bool
}

type tphase []taccess

type tscenario struct {
	name   string
	phases []tphase
}

// transcriptConfig: tiny caches over one bank so evictions, recalls and
// writeback races appear within a few dozen accesses; short unjittered
// timings so race windows interleave.
func transcriptConfig(p Policy) SystemConfig {
	return SystemConfig{
		NumL1:     3,
		L1Params:  cache.Params{Name: "L1", SizeBytes: 512, Ways: 2, BlockSize: 64},
		LLCParams: cache.Params{Name: "LLC", SizeBytes: 2 << 10, Ways: 4, BlockSize: 64},
		Banks:     1,
		Timing: Timing{
			L1Tag: 1, Hop: 2, LLCTag: 3, RemoteL1Service: 4, RecallPenalty: 5,
		},
		Policy: p,
		DRAM:   dram.DDR3_1600_8x8(),
	}
}

func litmusScenario() tscenario {
	ld := func(c, l int) taccess { return taccess{core: c, line: l} }
	ldwp := func(c, l int) taccess { return taccess{core: c, line: l, wp: true} }
	st := func(c, l int) taccess { return taccess{core: c, write: true, line: l} }
	return tscenario{name: "litmus", phases: []tphase{
		{ld(0, 0)},                               // cold load: E (or S) grant
		{ld(1, 0)},                               // second reader: forward or LLC serve
		{st(0, 0)},                               // upgrade with invalidation
		{st(1, 0)},                               // M hand-off between cores
		{ld(0, 1), st(1, 1)},                     // read/write race on a cold block
		{st(0, 2), st(1, 2)},                     // write/write race
		{ldwp(0, 3), ldwp(1, 3)},                 // write-protected sharers
		{st(0, 3)},                               // store to the write-protected block
		{ld(0, 4), st(0, 4)},                     // same-core merge: store joins the load MSHR
		{st(1, 5), ld(1, 5)},                     // same-core merge: load joins the store MSHR
		{ld(0, 6), ld(1, 6), st(2, 6)},           // sharer pile-up then writer
		{st(0, 7), st(1, 7), st(2, 7), ld(0, 7)}, // queue pressure on one block
	}}
}

func conformanceScenario() tscenario {
	var phases []tphase
	// Fill core 0's L1 (8 lines) and keep going: clean evictions (PUTS)
	// and the directory's sharer bookkeeping.
	for l := 0; l < 12; l++ {
		phases = append(phases, tphase{{core: 0, line: l}})
	}
	// Dirty the working set: silent or explicit upgrades, then dirty
	// evictions (PUTX) as the set wraps.
	for l := 0; l < 12; l++ {
		phases = append(phases, tphase{{core: 0, write: true, line: l}})
	}
	// A second core streams over the LLC (32 blocks): inclusive
	// evictions recall core 0's survivors, and re-misses race the
	// eviction traffic.
	for l := 4; l < 38; l += 2 {
		phases = append(phases, tphase{{core: 1, line: l}})
	}
	// Cross-core dirty hand-offs on the recalled range.
	for l := 4; l < 12; l++ {
		phases = append(phases, tphase{
			{core: 0, write: true, line: l},
			{core: 1, line: l},
		})
	}
	// Write-protected traffic under LLC pressure.
	for l := 20; l < 26; l++ {
		phases = append(phases, tphase{
			{core: 0, line: l, wp: true},
			{core: 2, line: l, wp: true},
		})
	}
	return tscenario{name: "conformance", phases: phases}
}

// stressScenario: a fixed-seed xorshift mix of 160 accesses in bursts of
// four, over 3 cores and 12 lines with occasional write-protected loads.
func stressScenario() tscenario {
	var phases []tphase
	seed := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(n))
	}
	for i := 0; i < 40; i++ {
		var ph tphase
		for j := 0; j < 4; j++ {
			a := taccess{core: next(3), line: next(12)}
			switch next(4) {
			case 0, 1:
				a.write = true
			case 2:
				a.wp = true
			}
			ph = append(ph, a)
		}
		phases = append(phases, ph)
	}
	return tscenario{name: "stress", phases: phases}
}

func runTranscript(t *testing.T, p Policy, sc tscenario) []string {
	t.Helper()
	sys, err := NewSystem(transcriptConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	tr := AttachRecorder(sys)
	for _, ph := range sc.phases {
		for _, a := range ph {
			core := a.core
			sys.Submit(core, Access{
				Addr:  cache.Addr(a.line * 64),
				Write: a.write,
				WP:    a.wp,
				Value: uint64(a.line)<<8 | uint64(a.core) | 1,
				Done:  func(AccessResult) {},
			})
		}
		sys.Quiesce()
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("invariants after %s: %v", sc.name, err)
	}
	for _, e := range tr.Errs {
		t.Errorf("recorder: %s", e)
	}
	return tr.Lines
}

// transcriptPolicies lists which policies record which scenarios: the
// directed suites run for every registered policy; the stress mix for
// the paper's three plus the arbitration variant (whose transcript must
// diverge from MESI's only in replay order, never in transitions).
func transcriptCases() map[string][]tscenario {
	lit, conf, str := litmusScenario(), conformanceScenario(), stressScenario()
	out := make(map[string][]tscenario)
	for _, p := range ExtendedPolicies {
		out[p.Name()] = []tscenario{lit, conf}
	}
	for _, name := range []string{"MESI", "SwiftDir", "S-MESI", "Phase-Priority"} {
		out[name] = append(out[name], str)
	}
	return out
}

func TestTranscriptGoldens(t *testing.T) {
	update := os.Getenv("SWIFTDIR_UPDATE_TRANSCRIPTS") != ""
	cases := transcriptCases()
	for _, p := range ExtendedPolicies {
		p := p
		for _, sc := range cases[p.Name()] {
			sc := sc
			t.Run(p.Name()+"/"+sc.name, func(t *testing.T) {
				lines := runTranscript(t, p, sc)
				got := strings.Join(lines, "\n") + "\n"
				path := filepath.Join("testdata", "transcripts",
					fmt.Sprintf("%s_%s.txt", p.Name(), sc.name))
				if update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("wrote %s (%d transitions)", path, len(lines))
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden transcript (run with "+
						"SWIFTDIR_UPDATE_TRANSCRIPTS=1 to record): %v", err)
				}
				if got != string(want) {
					diffTranscript(t, string(want), got)
				}
			})
		}
	}
}

// diffTranscript reports the first divergence with context instead of
// dumping two multi-thousand-line transcripts.
func diffTranscript(t *testing.T, want, got string) {
	t.Helper()
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("transcript diverges at line %d:\n  context: %s\n  golden:  %s\n  got:     %s",
				i+1, strings.Join(w[lo:i], " | "), w[i], g[i])
		}
	}
	t.Fatalf("transcript length changed: golden %d lines, got %d", len(w), len(g))
}
