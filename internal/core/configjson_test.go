package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coherence"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := DefaultConfig(4, coherence.SwiftDir)
	orig.L1Arch = VIVT
	orig.WalkThroughCaches = true
	orig.FastCoWWrites = true
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Protocol != coherence.SwiftDir {
		t.Fatalf("protocol = %v", back.Protocol)
	}
	if back.L1Arch != VIVT || !back.WalkThroughCaches || !back.FastCoWWrites {
		t.Fatalf("flags lost: %+v", back)
	}
	if back.Cores != 4 || back.ROBEntries != 192 || back.L2Bank.SizeBytes != 2<<20 {
		t.Fatalf("fields lost: %+v", back)
	}
	if back.DRAM.TCAS != 11 || back.Timing.LLCTag != orig.Timing.LLCTag {
		t.Fatal("nested configs lost")
	}
}

func TestConfigJSONErrors(t *testing.T) {
	var c Config
	if err := json.Unmarshal([]byte(`{"protocol":"NOPE"}`), &c); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if err := json.Unmarshal([]byte(`{"l1_arch":"XXXX"}`), &c); err == nil {
		t.Fatal("unknown arch accepted")
	}
	if err := json.Unmarshal([]byte(`{bad json`), &c); err == nil {
		t.Fatal("bad json accepted")
	}
}

func TestConfigJSONDefaultsProtocol(t *testing.T) {
	var c Config
	if err := json.Unmarshal([]byte(`{}`), &c); err != nil {
		t.Fatal(err)
	}
	if c.Protocol != coherence.SwiftDir {
		t.Fatalf("default protocol = %v", c.Protocol)
	}
	if c.L1Arch != VIPT {
		t.Fatalf("default arch = %v", c.L1Arch)
	}
}

func TestSaveLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "machine.json")
	orig := DefaultConfig(2, coherence.SMESI)
	if err := SaveConfig(path, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Protocol != coherence.SMESI || loaded.Cores != 2 {
		t.Fatalf("loaded = %+v", loaded)
	}
	// The file is human-readable JSON mentioning the protocol by name.
	data, _ := json.MarshalIndent(orig, "", "  ")
	if !strings.Contains(string(data), `"S-MESI"`) {
		t.Fatal("protocol name not in JSON")
	}
}

// TestScaledConfigRoundTrip: a saved scaled machine loads back as the
// same machine, mesh geometry and cluster count included (without the
// clusters, 64 cores do not even validate).
func TestScaledConfigRoundTrip(t *testing.T) {
	for _, cores := range []int{16, 64} {
		orig := DefaultScaledConfig(cores, coherence.SwiftDir)
		path := filepath.Join(t.TempDir(), "machine.json")
		if err := SaveConfig(path, orig); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadConfig(path)
		if err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
		if !reflect.DeepEqual(loaded, orig) {
			t.Errorf("%d cores: loaded\n%+v\nwant\n%+v", cores, loaded, orig)
		}
	}
}

// TestLegacyConfigLoads: a file written before the mesh and cluster keys
// existed (the protocol key in the middle, every other key as today)
// still loads as the machine it described.
func TestLegacyConfigLoads(t *testing.T) {
	loaded, err := LoadConfig(filepath.Join("testdata", "legacy-s-mesi-4.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := DefaultConfig(4, coherence.SMESI); !reflect.DeepEqual(loaded, want) {
		t.Errorf("loaded\n%+v\nwant\n%+v", loaded, want)
	}
}

func TestLoadConfigValidates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	bad := DefaultConfig(2, coherence.MESI)
	bad.Cores = 3 // invalid (not a power of two)
	data, _ := json.Marshal(bad)
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); err == nil {
		t.Fatal("invalid config loaded without error")
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestRetiredKeysRejected: a file that sets a retired key to a nonzero
// value fails to load with an error naming the key, rather than loading
// as a different machine; at zero (as every older build wrote them, see
// TestLegacyConfigLoads) the keys still load.
func TestRetiredKeysRejected(t *testing.T) {
	for key, doc := range map[string]string{
		"mesh_link_occupancy":     `{"mesh_link_occupancy": 2}`,
		"timing.JitterMax":        `{"timing": {"Hop": 3, "JitterMax": 5, "JitterSeed": 7}}`,
		"timing.SocketCores":      `{"timing": {"SocketCores": 2}}`,
		"timing.CrossSocketExtra": `{"timing": {"CrossSocketExtra": 40}}`,
	} {
		var c Config
		err := json.Unmarshal([]byte(doc), &c)
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%s: got error %v, want one naming the key", doc, err)
		}
	}
	var c Config
	zero := `{"mesh_link_occupancy": 0, "timing": {"Hop": 3, "JitterMax": 0, "JitterSeed": 9, "SocketCores": 0, "CrossSocketExtra": 0}}`
	if err := json.Unmarshal([]byte(zero), &c); err != nil {
		t.Fatalf("zero retired keys rejected: %v", err)
	}
	if c.Timing.Hop != 3 {
		t.Fatalf("timing lost: %+v", c.Timing)
	}
}
