package core

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/coherence"
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

// UnmarshalJSON implements json.Unmarshaler. Unknown protocol,
// architecture or prefetch names are errors; a missing protocol defaults
// to SwiftDir. Unknown keys are ignored, so configurations written by
// older builds (which recorded "shards" and "prefault") still load.
func (c *Config) UnmarshalJSON(data []byte) error {
	var w configWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
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
