package mcheck

import (
	"testing"

	"repro/internal/coherence"
)

// coverageConfigs is the verification matrix: the union of these
// explorations must exercise every entry of each policy's transition
// relation, except the explicitly allowlisted pairs below. The single
// default config covers the uncontended and 2-core-contended paths; the
// prelude configs prepare stable states (two sharers, an E owner, an M
// owner, a full LLC) whose depth-3 neighbourhoods contain the eviction,
// recall, and writeback races that a cold-start exploration could only
// reach at intractable depths.
var coverageConfigs = []Config{
	{Lines: 1, Depth: 4},
	{Lines: 2, Depth: 3, WPLoads: WPOff,
		Prelude: []Inject{{0, OpLoad, 0}, {1, OpLoad, 0}}}, // two sharers
	{Lines: 2, Depth: 3, WPLoads: WPOff,
		Prelude: []Inject{{0, OpLoad, 0}}}, // E owner
	{Lines: 2, Depth: 3, WPLoads: WPOff,
		Prelude: []Inject{{0, OpStore, 0}}}, // M owner
	{Lines: 2, Depth: 3, LLCBlocks: 2,
		Prelude: []Inject{{0, OpLoad, 0}, {0, OpLoad, 1}}}, // L1 thrash, no recalls
}

// allowlist holds the table entries the matrix is known not to reach.
// Every entry stays in the transition relation because the controllers
// handle it defensively and wider configurations (more hops in flight,
// deeper schedules) could produce it; each is annotated with why the
// mcheck configurations cannot. If a future config reaches one, the
// test fails so the entry gets removed from here.
var allowlist = map[string][]Pair{
	"MESI": {
		// A stale-sharer Inv must arrive inside the ~1-cycle window
		// between a re-miss allocating its MSHR and the directory
		// processing the eviction notice that would deregister the
		// sharer; with 2-cycle hops the windows never overlap.
		{CtrlL1, "IS^D", "Inv"},
		{CtrlL1, "IM^D", "Inv"},
		// A raced Upgrade lands at DirE/DirM only if the block was
		// recalled AND re-fetched exclusively within the Upgrade's
		// 2-cycle flight; a refetch takes a full directory round trip.
		// (Upgrades queued behind the refetch replay unobserved.)
		{CtrlDir, "DirE", "Upgrade"},
		{CtrlDir, "DirM", "Upgrade"},
		// An eviction notice at DirI needs the entry recalled while the
		// notice is in flight, but a recall force-invalidates every L1
		// copy first — so no copy survives to be evicted afterwards, and
		// a notice already in flight lands within 2 cycles, before the
		// multi-cycle recall completes.
		{CtrlDir, "DirI", "PUTS"},
		{CtrlDir, "DirI", "PUTX"},
		// The last sharer's PUTS is observed at DirS (the entry becomes
		// DirP only after processing it); reaching PUTS-at-DirP needs a
		// sharer list emptied some other way first.
		{CtrlDir, "DirP", "PUTS"},
		// The owner's stale PUTX always lands inside the busy window of
		// the transaction that re-shared the block, so it is observed as
		// DirBusy <- PUTX instead.
		{CtrlDir, "DirS", "PUTX"},
	},
	// SwiftDir's protocol delta (GETS_WP, shared-only WP grants) adds no
	// new race windows; the unreachable set matches MESI's.
	"SwiftDir": {
		{CtrlL1, "IS^D", "Inv"},
		{CtrlL1, "IM^D", "Inv"},
		{CtrlDir, "DirE", "Upgrade"},
		{CtrlDir, "DirM", "Upgrade"},
		{CtrlDir, "DirI", "PUTS"},
		{CtrlDir, "DirI", "PUTX"},
		{CtrlDir, "DirP", "PUTS"},
		{CtrlDir, "DirS", "PUTX"},
	},
	"S-MESI": {
		{CtrlL1, "IS^D", "Inv"},
		{CtrlL1, "IM^D", "Inv"},
		// S-MESI serves loads at DirE from the LLC, so Fwd_GETS only
		// exists at DirM: the wb-race window shrinks to the single cycle
		// between a dirty eviction and the forward, which the 2-cycle
		// hop cannot hit. (MESI reaches these pairs through the wider
		// DirE forward path that S-MESI replaces with LLC serves.)
		{CtrlL1, "IS^D", "Fwd_GETS"},
		{CtrlL1, "IM^D", "Fwd_GETS"},
		// DirE <- Upgrade is S-MESI's ordinary EM^A path and IS
		// covered; only the recall-raced DirM variant is unreachable.
		{CtrlDir, "DirM", "Upgrade"},
		{CtrlDir, "DirI", "PUTS"},
		{CtrlDir, "DirI", "PUTX"},
		{CtrlDir, "DirP", "PUTS"},
		{CtrlDir, "DirS", "PUTX"},
	},
	// Phase-Priority is MESI plus bank-queue arbitration; arbitration
	// reorders replays of already-queued requests but adds no states or
	// events, so the relation and the unreachable set are MESI's
	// (asserted structurally by proto's TestPhasePriorityRelationIsMESI).
	"Phase-Priority": {
		{CtrlL1, "IS^D", "Inv"},
		{CtrlL1, "IM^D", "Inv"},
		{CtrlDir, "DirE", "Upgrade"},
		{CtrlDir, "DirM", "Upgrade"},
		{CtrlDir, "DirI", "PUTS"},
		{CtrlDir, "DirI", "PUTX"},
		{CtrlDir, "DirP", "PUTS"},
		{CtrlDir, "DirS", "PUTX"},
	},
}

// coveragePolicies is the matrix's policy axis: the three paper
// protocols plus the arbitration variant the shared tables admit for
// free.
var coveragePolicies = append(append([]coherence.Policy{},
	coherence.Policies...), coherence.PhasePriority)

// TestTransitionCoverage runs the verification matrix for each paper
// protocol and asserts the observed (state, event) pairs cover the
// transition relation EXACTLY up to the allowlist: every non-allowlisted
// entry must be observed, and every allowlisted entry must stay
// unobserved (otherwise the allowlist is stale). Unexpected pairs abort
// the exploration as violations, so passing also means the relation is
// sound over the whole explored space.
func TestTransitionCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config exhaustive exploration; skipped with -short")
	}
	for _, p := range coveragePolicies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			skip := make(map[Pair]bool)
			for _, pr := range allowlist[p.Name()] {
				skip[pr] = true
			}
			union := make(map[Pair]bool)
			for ci, base := range coverageConfigs {
				cfg := base
				cfg.Policy = p
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Violation != nil {
					t.Fatalf("config %d: violation:\n%s", ci, res.Violation)
				}
				if res.Truncated {
					t.Fatalf("config %d: truncated at %d states; the matrix "+
						"no longer explores exhaustively", ci, res.States)
				}
				for _, pr := range res.Observed.Pairs() {
					union[pr] = true
				}
			}
			defined := definedCells(p.Table())
			pairs := defined.Pairs()
			inTable := make(map[Pair]bool, len(pairs))
			for _, pr := range pairs {
				inTable[pr] = true
			}
			for pr := range skip {
				if !inTable[pr] {
					t.Errorf("allowlisted pair %s is not in the table", pr)
				}
			}
			covered := 0
			for _, pr := range pairs {
				switch {
				case union[pr] && skip[pr]:
					t.Errorf("allowlisted pair %s WAS observed; remove it "+
						"from the allowlist", pr)
				case union[pr]:
					covered++
				case skip[pr]:
					// Unreached, as documented.
				default:
					t.Errorf("table pair %s never observed and not allowlisted", pr)
				}
			}
			t.Logf("%s: %d/%d table entries covered, %d allowlisted",
				p.Name(), covered, len(pairs), len(skip))
		})
	}
}
