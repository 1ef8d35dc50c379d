package core

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/coherence"
	"repro/internal/sim"
)

// configFields is Config without its methods, so the marshalers below
// encode the tagged fields without recursing into themselves.
type configFields Config

// configWire is Config's JSON form: its tagged fields, plus the protocol
// by name.
type configWire struct {
	configFields
	Protocol string `json:"protocol"`
}

// MarshalJSON implements json.Marshaler.
func (c Config) MarshalJSON() ([]byte, error) {
	w := configWire{configFields: configFields(c)}
	if c.Protocol != nil {
		w.Protocol = c.Protocol.Name()
	}
	return json.Marshal(w)
}

// retiredKeys are settings older builds wrote whose mechanisms moved
// (see the hints in UnmarshalJSON). The files those builds wrote from
// their own defaults hold them at zero and still load; a nonzero value
// describes a machine this build would silently run differently, so it
// is an error.
type retiredKeys struct {
	MeshLink sim.Cycle `json:"mesh_link_occupancy"`
	Timing   struct {
		Jitter        sim.Cycle `json:"JitterMax"`
		Sockets       int       `json:"SocketCores"`
		SocketPenalty sim.Cycle `json:"CrossSocketExtra"`
	} `json:"timing"`
}

// UnmarshalJSON implements json.Unmarshaler. Unknown protocol,
// architecture or prefetch names are errors, and so is a nonzero retired
// key (see retiredKeys); a missing protocol defaults to SwiftDir. Other
// unknown keys are ignored, so configurations written by older builds
// (which recorded "shards", "prefault" and "no_fast_path", none of which
// changed a result) still load.
func (c *Config) UnmarshalJSON(data []byte) error {
	var w configWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	var old retiredKeys
	if err := json.Unmarshal(data, &old); err != nil {
		return err
	}
	const sockets = "model the sockets as a 2x1 mesh whose mesh_per_hop is the cross-socket penalty"
	for _, k := range []struct {
		key  string
		set  bool
		hint string
	}{
		{"mesh_link_occupancy", old.MeshLink != 0, "set timing.LinkOccupancy"},
		{"timing.JitterMax", old.Timing.Jitter != 0, "fuzz timing with a fault plan whose link_spike_prob is 1"},
		{"timing.SocketCores", old.Timing.Sockets != 0, sockets},
		{"timing.CrossSocketExtra", old.Timing.SocketPenalty != 0, sockets},
	} {
		if k.set {
			return fmt.Errorf("core: config key %s is no longer supported; %s", k.key, k.hint)
		}
	}
	proto := coherence.Policy(coherence.SwiftDir)
	if w.Protocol != "" {
		if proto = coherence.PolicyByName(w.Protocol); proto == nil {
			return fmt.Errorf("core: unknown protocol %q", w.Protocol)
		}
	}
	*c = Config(w.configFields)
	c.Protocol = proto
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
