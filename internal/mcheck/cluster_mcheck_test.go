package mcheck

import (
	"testing"
	"time"

	"repro/internal/coherence"
)

// TestExhaustiveTwoLevel: the smallest two-level machine — two cores in
// two single-local clusters, so every request, grant, eviction notice,
// and invalidation crosses a hub — explores to completion with zero
// violations for all three paper protocols, reaching exactly the expected
// graph.
func TestExhaustiveTwoLevel(t *testing.T) {
	want := map[string]graphSize{
		"MESI":     {54511, 78552, 59},
		"SwiftDir": {239257, 351790, 88},
		"S-MESI":   {61597, 87914, 53},
	}
	for _, p := range coherence.Policies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			res, err := Run(Config{Policy: p, Cores: 2, Clusters: 2})
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
				t.Errorf("only %d states explored; the schedule space collapsed", res.States)
			}
			if res.Terminal == 0 {
				t.Error("no terminal states: exploration never drained a full schedule")
			}
			if res.Elapsed > 120*time.Second {
				t.Errorf("exploration took %v, over the 120s budget", res.Elapsed)
			}
			wantGraphSize(t, res, want[p.Name()])
			t.Logf("%s 2x2: %d states, %d edges, %d terminal, maxdepth %d, %v",
				res.Policy, res.States, res.Edges, res.Terminal, res.MaxDepth, res.Elapsed)
		})
	}
}

// TestExhaustiveTwoLevelMultiLocal: four cores in two clusters puts two
// locals behind each hub, so the hub's eviction filtering (absorbed
// non-last PUTS, the ClusterLast certificate, the conservative in-flight
// window) and ack aggregation are all reachable. One line and a single
// L1 block force constant conflict evictions through the hubs.
func TestExhaustiveTwoLevelMultiLocal(t *testing.T) {
	res, err := Run(Config{
		Policy:   coherence.SwiftDir,
		Cores:    4,
		Clusters: 2,
		Depth:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("violation:\n%s", res.Violation)
	}
	if res.Truncated {
		t.Fatalf("truncated at %d states: not an exhaustive run", res.States)
	}
	wantGraphSize(t, res, graphSize{407057, 513020, 420})
	t.Logf("SwiftDir 4x2: %d states, %d edges, %d terminal, maxdepth %d, %v",
		res.States, res.Edges, res.Terminal, res.MaxDepth, res.Elapsed)
}

// TestExhaustiveTwoLevelSharedPrelude starts exploration from a prepared
// state with a sharer in each cluster (plus two L1 capacity blocks and
// two lines, so evictions race invalidations): the deepest hub races —
// an Inv crossing an absorbed PUTS, a grant in flight past an emptied
// record — sit within a short schedule of this state.
func TestExhaustiveTwoLevelSharedPrelude(t *testing.T) {
	for _, p := range []coherence.Policy{coherence.MESI, coherence.SwiftDir} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			res, err := Run(Config{
				Policy:   p,
				Cores:    4,
				Clusters: 2,
				Lines:    2,
				Depth:    2,
				L1Blocks: 1,
				Prelude: []Inject{
					{Core: 0, Op: OpLoadWP, Line: 0},
					{Core: 2, Op: OpLoadWP, Line: 0},
				},
				WPLoads: WPOn,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("violation:\n%s", res.Violation)
			}
			if res.Truncated {
				t.Fatalf("truncated at %d states", res.States)
			}
			t.Logf("%s 4x2 prelude: %d states, %d edges, maxdepth %d, %v",
				res.Policy, res.States, res.Edges, res.MaxDepth, res.Elapsed)
		})
	}
}

// TestTwoLevelConfigValidation: a cluster count that does not divide the
// cores is rejected before exploration.
func TestTwoLevelConfigValidation(t *testing.T) {
	if _, err := Run(Config{Policy: coherence.MESI, Cores: 3, Clusters: 2}); err == nil {
		t.Fatal("cores=3 clusters=2 accepted")
	}
}
