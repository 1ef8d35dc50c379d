// Package core assembles the full SwiftDir machine: CPU-facing contexts
// with per-core TLBs and address spaces (package mmu), the coherent cache
// hierarchy (package coherence), and the DRAM model (package dram), under
// the paper's Table V configuration. It is the public entry point the
// examples, the attack framework, and the benchmark harness build on.
package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Config mirrors the paper's experiment setup (Table V) plus the
// translation-timing knobs the MMU substrate needs.
type Config struct {
	// Processor.
	Cores      int     `json:"cores"` // 1..4 in the paper
	FreqGHz    float64 `json:"freq_ghz"`
	ROBEntries int     `json:"rob_entries"` // out-of-order window (DerivO3CPU)
	LQEntries  int     `json:"lq_entries"`
	SQEntries  int     `json:"sq_entries"`
	Width      int     `json:"width"` // superscalar width

	// StoreDrainDepth bounds how many stores may have in-flight coherence
	// transactions at once. Stores still issue in program order (TSO
	// store->store ordering), but their completions may overlap, modeling
	// a store buffer with ownership pipelining.
	StoreDrainDepth int `json:"store_drain_depth"`

	// Caches.
	L1     cache.Params `json:"l1d"`     // private L1 D-cache (per core)
	L1I    cache.Params `json:"l1i"`     // private L1 I-cache (per core)
	L2Bank cache.Params `json:"l2_bank"` // one shared-L2 bank per core

	// TLBs.
	ITLBEntries int `json:"itlb_entries"`
	DTLBEntries int `json:"dtlb_entries"`

	// L1Arch selects PIPT, VIPT (default), or VIVT L1 organization
	// (§IV-B); it changes when translation latency is charged and where
	// the R/W bit joins the access, never whether it arrives.
	L1Arch CacheArch `json:"l1_arch"`

	// Translation timing (CPU cycles).
	TLBHitLatency      sim.Cycle `json:"tlb_hit_latency"`       // TLB lookup (hidden under indexing on VIPT)
	TLBMissWalkLatency sim.Cycle `json:"tlb_miss_walk_latency"` // page-table walk on TLB miss (fixed model)
	PageFaultLatency   sim.Cycle `json:"page_fault_latency"`    // demand-paging fault service
	CoWLatency         sim.Cycle `json:"cow_latency"`           // copy-on-write duplication

	// WalkThroughCaches replaces the fixed TLBMissWalkLatency with a
	// real radix walk: four dependent reads of page-table cache lines
	// issued through the core's L1, so walk cost depends on page-table
	// locality.
	WalkThroughCaches bool `json:"walk_through_caches"`

	// FastCoWWrites implements the hardware direction the paper sketches
	// as future work (§II-B): treat a copy-on-write page fault as a write
	// miss and complete the store into a dedicated write buffer at a
	// small constant latency while the page duplication proceeds off the
	// critical path. Besides the speedup, this masks the write-timing
	// channel of deduplication attacks (writing a merged page is
	// otherwise an order of magnitude slower than writing a private one).
	FastCoWWrites bool `json:"fast_cow_writes"`

	// WriteBufferLatency is the constant store-completion cost under
	// FastCoWWrites.
	WriteBufferLatency sim.Cycle `json:"write_buffer_latency"`

	Timing coherence.Timing `json:"timing"`
	// Protocol is written by name (see MarshalJSON).
	Protocol coherence.Policy `json:"-"`
	DRAM     dram.Config      `json:"dram"`

	// Topology selects the interconnect: "" or "crossbar" (the paper's
	// Table V machine, a 1x1 mesh with every port on one router), or
	// "mesh" for a 2D mesh with XY dimension-order routing whose latency
	// grows with Manhattan distance. Mesh dimensions derive from the core count (a near-square
	// W x H with W*H = Cores) unless MeshW/MeshH are set explicitly. A
	// core's D- and I-cache controllers and its LLC bank share the core's
	// tile; cluster hubs sit on their cluster's first tile.
	Topology string `json:"topology,omitempty"`
	MeshW    int    `json:"mesh_w,omitempty"`
	MeshH    int    `json:"mesh_h,omitempty"`

	// MeshPerHop is the per-link latency added on top of Timing.Hop per
	// Manhattan hop. Timing.LinkOccupancy serializes each port and link
	// at the given cycles per message (0 = infinite bandwidth).
	MeshPerHop sim.Cycle `json:"mesh_per_hop,omitempty"`

	// Clusters > 1 organizes the directory hierarchically: the cores
	// partition into Clusters contiguous clusters, each with a hub
	// directory that tracks its locals exactly, while the home directory
	// tracks sharer clusters. Must divide Cores. Required beyond 32
	// cores — the flat directory addresses at most 64 L1 controllers and
	// each core contributes two (D and I).
	Clusters int `json:"clusters,omitempty"`

	// Prefetch selects the L1 next-line prefetcher mode (off by default;
	// see coherence.PrefetchMode for the naive mode's security hazard).
	Prefetch coherence.PrefetchMode `json:"prefetch"`

	// Faults, if non-nil, attaches a deterministic timing-fault injector
	// to the hierarchy (DESIGN.md §7). Runtime-only: it does not
	// serialize with the configuration — replays reconstruct it from the
	// bundled fault plan. Nil costs a single pointer check per hook site.
	Faults *fault.Injector `json:"-"`

	// Watchdog, when enabled, arms the engine's liveness watchdog: if the
	// configured event or cycle budget elapses with no architectural
	// progress (no L1 access completion), the machine panics with a
	// *fault.Violation carrying the full pending-event and transient-state
	// dump. Runtime-only, like Faults.
	Watchdog sim.WatchdogConfig `json:"-"`

	// Context, if it can be cancelled, arms cooperative cancellation on
	// the machine's engine: once the context is done (from any
	// goroutine), the next executed event aborts the run with a
	// *fault.Violation of kind "cancelled" carrying the context's cause
	// and the full pending-event dump. A nil or background context arms
	// nothing. Scope it to one job and cancel it when the job ends: the
	// machine's binding to it lives until it is done. Runtime-only, like
	// Faults.
	Context context.Context `json:"-"`
}

// MeshDims returns the default near-square mesh for cores tiles:
// W = 2^ceil(k/2), H = 2^floor(k/2) for cores = 2^k, so W*H = cores and
// W/H <= 2.
func MeshDims(cores int) (w, h int) {
	w, h = 1, 1
	for w*h < cores {
		if w <= h {
			w *= 2
		} else {
			h *= 2
		}
	}
	return w, h
}

// DefaultScaledConfig returns the Table V machine scaled to large core
// counts: the same per-core resources, on a 2D mesh sized by MeshDims,
// with a two-level directory once the flat directory can no longer
// address the machine (cores > 32). Cluster size is capped at 8 cores
// (16 L1 controllers per hub), so invalidation fan-out stays bounded as
// the machine grows.
func DefaultScaledConfig(cores int, protocol coherence.Policy) Config {
	cfg := DefaultConfig(cores, protocol)
	cfg.Topology = "mesh"
	cfg.MeshW, cfg.MeshH = MeshDims(cores)
	cfg.MeshPerHop = 1
	if cores > 32 {
		cfg.Clusters = cores / 8
	}
	return cfg
}

// DefaultConfig returns the Table V machine with the given core count and
// protocol.
func DefaultConfig(cores int, protocol coherence.Policy) Config {
	return Config{
		Cores:           cores,
		FreqGHz:         3.0,
		ROBEntries:      192,
		LQEntries:       32,
		SQEntries:       32,
		Width:           8,
		StoreDrainDepth: 8,
		L1: cache.Params{
			Name: "L1D", SizeBytes: 32 << 10, Ways: 4, BlockSize: 64,
		},
		L1I: cache.Params{
			Name: "L1I", SizeBytes: 32 << 10, Ways: 4, BlockSize: 64,
		},
		L2Bank: cache.Params{
			Name: "L2", SizeBytes: 2 << 20, Ways: 16, BlockSize: 64,
		},
		ITLBEntries:        64,
		DTLBEntries:        64,
		L1Arch:             VIPT,
		TLBHitLatency:      1,
		TLBMissWalkLatency: 20,
		PageFaultLatency:   600,
		CoWLatency:         900,
		WriteBufferLatency: 4,
		Timing:             coherence.DefaultTiming(),
		Protocol:           protocol,
		DRAM:               dram.DDR3_1600_8x8(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores&(c.Cores-1) != 0 {
		return fmt.Errorf("core: cores %d must be a positive power of two (bank mapping)", c.Cores)
	}
	if c.Protocol == nil {
		return fmt.Errorf("core: nil protocol")
	}
	if c.ROBEntries <= 0 || c.LQEntries <= 0 || c.SQEntries <= 0 || c.Width <= 0 {
		return fmt.Errorf("core: non-positive pipeline parameter")
	}
	if c.StoreDrainDepth <= 0 {
		return fmt.Errorf("core: non-positive store drain depth")
	}
	if c.ITLBEntries <= 0 || c.DTLBEntries <= 0 {
		return fmt.Errorf("core: non-positive TLB size")
	}
	switch c.Topology {
	case "", "crossbar", "mesh":
	default:
		return fmt.Errorf("core: unknown topology %q", c.Topology)
	}
	if c.Clusters > 1 && c.Cores%c.Clusters != 0 {
		return fmt.Errorf("core: clusters %d does not divide cores %d", c.Clusters, c.Cores)
	}
	if c.Cores > 32 && c.Clusters <= 1 {
		return fmt.Errorf("core: %d cores need %d L1 ports, beyond the flat directory's 64; set Clusters", c.Cores, 2*c.Cores)
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L1I.Validate(); err != nil {
		return err
	}
	return c.L2Bank.Validate()
}

// coherenceConfig derives the hierarchy configuration. Each core
// contributes two L1 controllers: port 2i is core i's D-cache and port
// 2i+1 its I-cache, both coherent peers of the banked LLC.
func (c Config) coherenceConfig() coherence.SystemConfig {
	cfg := coherence.SystemConfig{
		NumL1:     2 * c.Cores,
		L1Params:  c.L1,
		LLCParams: c.L2Bank,
		Banks:     c.Cores,
		Timing:    c.Timing,
		Policy:    c.Protocol,
		DRAM:      c.DRAM,
		Prefetch:  c.Prefetch,
		Faults:    c.Faults,
		Clusters:  c.Clusters,
	}
	if c.Topology == "mesh" {
		cfg.Topology = "mesh"
		cfg.MeshW, cfg.MeshH = c.MeshW, c.MeshH
		if cfg.MeshW == 0 || cfg.MeshH == 0 {
			cfg.MeshW, cfg.MeshH = MeshDims(c.Cores)
		}
		cfg.MeshPerHop = c.MeshPerHop
	}
	return cfg
}

// Describe renders the configuration as the paper's Table V.
func (c Config) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table V: Experiment Setup (%s)\n", c.Protocol.Name())
	fmt.Fprintf(&b, "  Processor    : %d core(s), %.1f GHz, out-of-order %d-entry ROB,\n",
		c.Cores, c.FreqGHz, c.ROBEntries)
	fmt.Fprintf(&b, "                 %d-entry LQ & %d-entry SQ, superscalar width: %d\n",
		c.LQEntries, c.SQEntries, c.Width)
	fmt.Fprintf(&b, "  Private L1   : %d-Byte block, %d-way, %d KB, RT latency: %d cycle(s)\n",
		c.L1.BlockSize, c.L1.Ways, c.L1.SizeBytes>>10, c.Timing.L1Tag)
	fmt.Fprintf(&b, "  Shared L2    : %d-Byte block, %d-way, %d-MB bank per core, RT latency: %d cycles\n",
		c.L2Bank.BlockSize, c.L2Bank.Ways, c.L2Bank.SizeBytes>>20,
		c.Timing.LLCTag+2*c.Timing.Hop)
	fmt.Fprintf(&b, "  TLB          : %d-entry ITB & %d-entry DTB, fully associative\n",
		c.ITLBEntries, c.DTLBEntries)
	fmt.Fprintf(&b, "  Memory       : DDR3_1600_8x8, %d channel, %d ranks, %d banks per rank,\n",
		c.DRAM.Channels, c.DRAM.Ranks, c.DRAM.BanksPerRank)
	fmt.Fprintf(&b, "                 %d KB row buffers, tCAS-tRCD-tRP: %d-%d-%d\n",
		c.DRAM.RowBytes>>10, c.DRAM.TCAS, c.DRAM.TRCD, c.DRAM.TRP)
	return b.String()
}
