package core

import (
	"fmt"

	"repro/internal/mmu"
	"repro/internal/sim"
)

// CacheArch selects how the L1 is indexed and tagged (§IV-B, Figure 5).
// The architecture determines when address translation happens relative to
// the L1 access and therefore where the write-protection bit becomes
// available — but in every case translation completes before the PIPT LLC
// is accessed, which is all SwiftDir requires.
type CacheArch uint8

const (
	// VIPT: virtually indexed, physically tagged (Intel Skylake, AMD Zen
	// L1D). Translation overlaps set indexing; the R/W bit arrives with
	// the physical tag at tag-comparison time. On a TLB hit the
	// translation latency is fully hidden.
	VIPT CacheArch = iota
	// PIPT: physically indexed, physically tagged (ARM Cortex-A L1D).
	// Translation precedes the L1 access; the R/W bit is available at
	// set indexing, and the TLB-hit latency is on the critical path.
	PIPT
	// VIVT: virtually indexed, virtually tagged (older ARM cores). The
	// L1 is searched with the virtual address; translation happens only
	// on the miss path, so the R/W bit joins the coherence request just
	// before it reaches the LLC.
	VIVT
)

func (a CacheArch) String() string {
	switch a {
	case VIPT:
		return "VIPT"
	case PIPT:
		return "PIPT"
	case VIVT:
		return "VIVT"
	}
	return fmt.Sprintf("CacheArch(%d)", uint8(a))
}

// MarshalText writes the architecture by name, for configuration files.
func (a CacheArch) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText reads an architecture name; empty means VIPT.
func (a *CacheArch) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*a = VIPT
		return nil
	}
	for _, v := range []CacheArch{VIPT, PIPT, VIVT} {
		if v.String() == string(b) {
			*a = v
			return nil
		}
	}
	return fmt.Errorf("core: unknown L1 architecture %q", b)
}

// WPAvailableAt describes where in the access pipeline the write-protected
// information reaches the cache hierarchy for this architecture (the
// (where, when) property of §IV-B).
func (a CacheArch) WPAvailableAt() string {
	switch a {
	case PIPT:
		return "(L1 cache, set indexing)"
	case VIPT:
		return "(L1 cache, tag comparison)"
	case VIVT:
		return "(LLC, set indexing)"
	}
	return "unknown"
}

// translationTiming computes, for one access, the latency charged before
// the L1 lookup (pre) and the latency charged only if the access misses
// the L1 (missExtra), given the architecture, the TLB outcome, and the
// fault work performed.
func (c *Context) translationTiming(res mmu.Result, tlbHit bool) (pre, missExtra sim.Cycle) {
	cfg := c.m.Cfg
	var faultWork sim.Cycle
	if res.Faulted {
		c.PageFaults++
		faultWork += cfg.PageFaultLatency
	}
	if res.CoW {
		c.CoWs++
		if cfg.FastCoWWrites {
			// Future-work mode: the store commits to a write buffer at
			// constant cost; the duplication happens in the background.
			faultWork += cfg.WriteBufferLatency
		} else {
			faultWork += cfg.CoWLatency
		}
	}
	if !tlbHit {
		c.TLBWalks++
	}
	// With the cache-coupled walker the walk cost is the four dependent
	// page-table reads issued separately (see walkThenSubmit), not a
	// fixed latency.
	walk := cfg.TLBMissWalkLatency
	if cfg.WalkThroughCaches {
		walk = 0
	}
	switch cfg.L1Arch {
	case PIPT:
		// Serial: TLB (or walk) before the cache access.
		pre = cfg.TLBHitLatency + faultWork
		if !tlbHit {
			pre += walk
		}
		return pre, 0
	case VIVT:
		// The L1 hit path never translates; the miss path pays the TLB
		// (or the walk) before the request reaches the LLC. Faults are
		// OS-level and always serialize.
		missExtra = cfg.TLBHitLatency
		if !tlbHit {
			missExtra += walk
		}
		return faultWork, missExtra
	default: // VIPT
		// The TLB-hit latency hides under set indexing; only walks and
		// faults serialize.
		pre = faultWork
		if !tlbHit {
			pre += walk
		}
		return pre, 0
	}
}
