package core

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/dram"
	"repro/internal/sim"
)

// configJSON is the serialized form of Config: the Policy is replaced by
// its name, and CacheArch by its string.
type configJSON struct {
	Cores      int     `json:"cores"`
	FreqGHz    float64 `json:"freq_ghz"`
	ROBEntries int     `json:"rob_entries"`
	LQEntries  int     `json:"lq_entries"`
	SQEntries  int     `json:"sq_entries"`
	Width      int     `json:"width"`

	StoreDrainDepth int `json:"store_drain_depth"`

	L1     cache.Params `json:"l1d"`
	L1I    cache.Params `json:"l1i"`
	L2Bank cache.Params `json:"l2_bank"`

	ITLBEntries int    `json:"itlb_entries"`
	DTLBEntries int    `json:"dtlb_entries"`
	L1Arch      string `json:"l1_arch"`

	TLBHitLatency      sim.Cycle `json:"tlb_hit_latency"`
	TLBMissWalkLatency sim.Cycle `json:"tlb_miss_walk_latency"`
	PageFaultLatency   sim.Cycle `json:"page_fault_latency"`
	CoWLatency         sim.Cycle `json:"cow_latency"`
	WalkThroughCaches  bool      `json:"walk_through_caches"`
	FastCoWWrites      bool      `json:"fast_cow_writes"`
	WriteBufferLatency sim.Cycle `json:"write_buffer_latency"`

	Timing   coherence.Timing `json:"timing"`
	Protocol string           `json:"protocol"`
	DRAM     dram.Config      `json:"dram"`
	Prefetch string           `json:"prefetch,omitempty"`

	NoFastPath bool `json:"no_fast_path,omitempty"`
}

func prefetchFromString(s string) (coherence.PrefetchMode, error) {
	switch s {
	case "", "off":
		return coherence.PrefetchOff, nil
	case "naive":
		return coherence.PrefetchNaive, nil
	case "wp-aware":
		return coherence.PrefetchWPAware, nil
	}
	return coherence.PrefetchOff, fmt.Errorf("core: unknown prefetch mode %q", s)
}

func archFromString(s string) (CacheArch, error) {
	switch s {
	case "VIPT", "":
		return VIPT, nil
	case "PIPT":
		return PIPT, nil
	case "VIVT":
		return VIVT, nil
	}
	return VIPT, fmt.Errorf("core: unknown L1 architecture %q", s)
}

// MarshalJSON implements json.Marshaler.
func (c Config) MarshalJSON() ([]byte, error) {
	proto := ""
	if c.Protocol != nil {
		proto = c.Protocol.Name()
	}
	return json.Marshal(configJSON{
		Cores: c.Cores, FreqGHz: c.FreqGHz,
		ROBEntries: c.ROBEntries, LQEntries: c.LQEntries, SQEntries: c.SQEntries,
		Width: c.Width, StoreDrainDepth: c.StoreDrainDepth,
		L1: c.L1, L1I: c.L1I, L2Bank: c.L2Bank,
		ITLBEntries: c.ITLBEntries, DTLBEntries: c.DTLBEntries,
		L1Arch:        c.L1Arch.String(),
		TLBHitLatency: c.TLBHitLatency, TLBMissWalkLatency: c.TLBMissWalkLatency,
		PageFaultLatency: c.PageFaultLatency, CoWLatency: c.CoWLatency,
		WalkThroughCaches: c.WalkThroughCaches,
		FastCoWWrites:     c.FastCoWWrites, WriteBufferLatency: c.WriteBufferLatency,
		Timing: c.Timing, Protocol: proto, DRAM: c.DRAM,
		Prefetch:   c.Prefetch.String(),
		NoFastPath: c.NoFastPath,
	})
}

// UnmarshalJSON implements json.Unmarshaler. Unknown protocol or
// architecture names are errors; a missing protocol defaults to SwiftDir.
// Unknown keys are ignored, so configurations written by older builds
// (which recorded "shards" and "prefault") still load.
func (c *Config) UnmarshalJSON(data []byte) error {
	var j configJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	arch, err := archFromString(j.L1Arch)
	if err != nil {
		return err
	}
	proto := coherence.Policy(coherence.SwiftDir)
	if j.Protocol != "" {
		proto = coherence.PolicyByName(j.Protocol)
		if proto == nil {
			return fmt.Errorf("core: unknown protocol %q", j.Protocol)
		}
	}
	pf, err := prefetchFromString(j.Prefetch)
	if err != nil {
		return err
	}
	*c = Config{
		Cores: j.Cores, FreqGHz: j.FreqGHz,
		ROBEntries: j.ROBEntries, LQEntries: j.LQEntries, SQEntries: j.SQEntries,
		Width: j.Width, StoreDrainDepth: j.StoreDrainDepth,
		L1: j.L1, L1I: j.L1I, L2Bank: j.L2Bank,
		ITLBEntries: j.ITLBEntries, DTLBEntries: j.DTLBEntries,
		L1Arch:        arch,
		TLBHitLatency: j.TLBHitLatency, TLBMissWalkLatency: j.TLBMissWalkLatency,
		PageFaultLatency: j.PageFaultLatency, CoWLatency: j.CoWLatency,
		WalkThroughCaches: j.WalkThroughCaches,
		FastCoWWrites:     j.FastCoWWrites, WriteBufferLatency: j.WriteBufferLatency,
		Timing: j.Timing, Protocol: proto, DRAM: j.DRAM,
		Prefetch:   pf,
		NoFastPath: j.NoFastPath,
	}
	return nil
}

// LoadConfig reads and validates a JSON machine configuration.
func LoadConfig(path string) (Config, error) {
	var c Config
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, err
	}
	return c, c.Validate()
}

// SaveConfig writes a configuration as indented JSON.
func SaveConfig(path string, c Config) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
