// Package mcheck is a bounded-exhaustive model checker for the coherence
// protocols in internal/coherence. Unlike hand-written protocol tests, it
// drives the REAL controllers — the same L1, directory, and DRAM code the
// simulator runs — through every interleaving of a small configuration
// (2-4 cores, 1-2 cache lines) and checks safety and liveness invariants
// in every reachable state:
//
//   - SWMR: at most one writer-capable copy of a block, and never
//     alongside other copies (single-writer/multiple-reader).
//   - Data-value: every load returns a value a sequentially consistent
//     memory could have returned (the last committed store, or any store
//     that committed while the load was outstanding).
//   - Deadlock freedom: whenever the event engine drains, every injected
//     access has completed.
//   - No unexpected transition: every observed (controller state, event)
//     pair appears in the protocol's transition relation — the SAME
//     internal/proto table the controllers dispatch from (the paper's
//     Tables I-III, extended with the race transitions the real blocking
//     directory exhibits) — and after each dispatch the receiver's state
//     must be inside that table cell's next-state mask. The checker reads
//     the cells straight from the policy's table and records the ones
//     it observed in arrays indexed like it (Cells), which double as a
//     coverage report.
//
// The checker explores by replay: the deterministic engine makes an
// action sequence a complete description of a state, so a BFS node is
// just a parent pointer and one action. States are deduplicated by a
// canonical 128-bit fingerprint of the specification's own bookkeeping
// followed by the hierarchy's encoding of itself
// (coherence.System.AppendFingerprint: arrays, MSHRs, directory entries,
// in-flight transactions, pending events with time-relative deadlines,
// and the rest of its behaviourally relevant state). On a violation the
// BFS order guarantees a minimal-length counterexample, which is replayed
// with a Tracer attached to render the full message transcript.
package mcheck

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/dram"
	"repro/internal/proto"
	"repro/internal/stats"
)

// blockBytes is the line size of every mcheck configuration. The value is
// irrelevant to the protocol (data is a 64-bit shadow token); it only has
// to agree between the caches and the DRAM model.
const blockBytes = 64

// maxCores bounds the configuration size (node metadata is fixed-width).
const maxCores = 4

// WPOpt controls whether write-protected loads are part of the injected
// operation alphabet.
type WPOpt uint8

const (
	// WPAuto enables write-protected loads iff the policy distinguishes
	// them (i.e. it issues GETS_WP).
	WPAuto WPOpt = iota
	WPOn
	WPOff
)

// Config describes one model-checking run.
type Config struct {
	Policy coherence.Policy

	Cores int // number of L1s/cores (1..4); default 2
	Lines int // distinct block addresses accessed; default 1
	Depth int // total accesses injected along any path; default 4

	// Clusters > 1 checks the two-level directory: the cores partition
	// into per-cluster hubs and the home tracks sharer clusters. Must
	// divide Cores. 0 or 1 checks the flat directory.
	Clusters int

	// MaxOutstanding bounds the in-flight accesses per core, so MSHR
	// merging is exercised without unbounded pipelining. Default 2.
	MaxOutstanding int

	// L1Blocks / LLCBlocks are the cache capacities in blocks (fully
	// associative). Defaults are 1 each, so Lines=2 exercises both L1
	// conflict evictions and LLC recalls.
	L1Blocks  int
	LLCBlocks int

	// MaxStates caps the number of distinct states explored; hitting it
	// sets Result.Truncated (the run is then a bounded search, not a
	// proof). Default 500000.
	MaxStates int

	// Prelude is a directed access sequence, each entry executed to
	// quiescence before exploration starts. It prepares interesting
	// stable states (an E copy about to be evicted, two sharers, a
	// full LLC) so short explorations reach deep races that would
	// otherwise need an intractably large schedule space. Prelude
	// accesses do not count against Depth.
	Prelude []Inject

	// WPLoads controls write-protected loads in the alphabet.
	WPLoads WPOpt
}

func (c *Config) fill() error {
	if c.Policy == nil {
		return fmt.Errorf("mcheck: nil policy")
	}
	if c.Cores == 0 {
		c.Cores = 2
	}
	if c.Lines == 0 {
		c.Lines = 1
	}
	if c.Depth == 0 {
		c.Depth = 4
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 2
	}
	if c.L1Blocks == 0 {
		c.L1Blocks = 1
	}
	if c.LLCBlocks == 0 {
		c.LLCBlocks = 1
	}
	if c.MaxStates == 0 {
		c.MaxStates = 500000
	}
	if c.Cores < 1 || c.Cores > maxCores {
		return fmt.Errorf("mcheck: Cores %d out of range [1,%d]", c.Cores, maxCores)
	}
	if c.Clusters < 0 {
		return fmt.Errorf("mcheck: Clusters %d must not be negative", c.Clusters)
	}
	if c.Clusters > 1 && c.Cores%c.Clusters != 0 {
		return fmt.Errorf("mcheck: Cores %d not divisible into %d clusters", c.Cores, c.Clusters)
	}
	if c.Lines < 1 || c.Lines > 8 {
		return fmt.Errorf("mcheck: Lines %d out of range [1,8]", c.Lines)
	}
	if c.Depth < 1 || c.Depth > 32 {
		return fmt.Errorf("mcheck: Depth %d out of range [1,32]", c.Depth)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MaxOutstanding", c.MaxOutstanding}, {"L1Blocks", c.L1Blocks},
		{"LLCBlocks", c.LLCBlocks}, {"MaxStates", c.MaxStates},
	} {
		if f.v < 1 {
			return fmt.Errorf("mcheck: %s %d must be at least 1", f.name, f.v)
		}
	}
	for _, in := range c.Prelude {
		if in.Core < 0 || in.Core >= c.Cores || in.Line < 0 || in.Line >= c.Lines {
			return fmt.Errorf("mcheck: prelude access %+v out of range", in)
		}
	}
	return nil
}

// Inject is one prelude access.
type Inject struct {
	Core int
	Op   Op
	Line int
}

// wpEnabled reports whether write-protected loads are injected.
func (c *Config) wpEnabled() bool {
	switch c.WPLoads {
	case WPOn:
		return true
	case WPOff:
		return false
	}
	return c.Policy.LoadRequest(true) == coherence.MsgGETSWP
}

// sysConfig builds the hierarchy configuration: single-bank LLC, minimal
// flat DRAM timing with refresh disabled (refresh would make behaviour
// depend on absolute time, breaking the time-relative fingerprints), an
// ideal crossbar (zero occupancy and no fault hook, so the interconnect
// is stateless), and no prefetching.
func (c *Config) sysConfig() coherence.SystemConfig {
	return coherence.SystemConfig{
		NumL1: c.Cores,
		L1Params: cache.Params{
			Name: "mc-l1", SizeBytes: blockBytes * c.L1Blocks,
			Ways: c.L1Blocks, BlockSize: blockBytes,
		},
		LLCParams: cache.Params{
			Name: "mc-llc", SizeBytes: blockBytes * c.LLCBlocks,
			Ways: c.LLCBlocks, BlockSize: blockBytes,
		},
		Banks:    1,
		Clusters: c.Clusters,
		Timing: coherence.Timing{
			L1Tag: 1, Hop: 2, LLCTag: 3, RemoteL1Service: 4, RecallPenalty: 5,
		},
		Policy: c.Policy,
		DRAM: dram.Config{
			Channels: 1, Ranks: 1, BanksPerRank: 1,
			RowBytes: blockBytes, BlockBytes: blockBytes,
			TCAS: 1, TRCD: 1, TRP: 1, TBurst: 1,
			CPUCyclesPerDRAMCycleNum: 1, CPUCyclesPerDRAMCycleDen: 1,
			FrontendLatency: 1,
		},
		Prefetch: coherence.PrefetchOff,
	}
}

// Result reports one completed exploration.
type Result struct {
	Policy string

	States    int  // distinct canonical states reached
	Edges     int  // transitions explored
	Terminal  int  // states with no enabled action (all work injected and drained)
	Quiescent int  // states with an idle event engine
	MaxDepth  int  // longest action sequence to any state
	Truncated bool // MaxStates cap hit: exploration incomplete

	// Violation is nil iff every reachable state satisfied every
	// invariant (within the explored bound).
	Violation *Counterexample

	// Observed is every (state, event) cell the controllers exhibited.
	Observed Cells
	// Table is the transition relation checked against: the policy's
	// own, the one its controllers dispatch from.
	Table *proto.Table

	Elapsed time.Duration
}

// Coverage builds the transition-relation coverage report: which table
// entries the exploration exercised, which it never reached, and any
// observed pairs outside the table (the latter can only be non-empty if
// the run ended early on a violation).
func (r *Result) Coverage() *stats.Coverage {
	cov := &stats.Coverage{Name: fmt.Sprintf("%s transition coverage", r.Policy)}
	defined := definedCells(r.Table)
	for _, p := range defined.Pairs() {
		cov.Declare(p.String())
	}
	for _, p := range r.Observed.Pairs() {
		cov.Hit(p.String())
	}
	return cov
}

// Run explores every schedule of cfg and returns the result. The error
// return is for configuration problems only; protocol violations are
// reported in Result.Violation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := newChecker(cfg)
	start := time.Now()
	res := c.explore()
	res.Policy = cfg.Policy.Name()
	res.Observed = c.observed
	res.Table = cfg.Policy.Table()
	res.Elapsed = time.Since(start)
	return res, nil
}

// newChecker prepares the exploration of a filled configuration.
func newChecker(cfg Config) *checker {
	c := &checker{
		cfg:    cfg,
		sysCfg: cfg.sysConfig(),
		ops:    []Op{OpLoad, OpStore},
	}
	if cfg.wpEnabled() {
		c.ops = append(c.ops, OpLoadWP)
	}
	return c
}
