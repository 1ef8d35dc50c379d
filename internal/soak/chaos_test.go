package soak

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/interconnect"
)

// scaledChaosBase is the 64-core mesh/two-level machine the chaos sweep
// targets: big enough that the mesh has 256 directed links and the
// directory runs two-level (8 hubs), small enough that a scaled-down
// benchmark sweep stays test-suite friendly.
func scaledChaosBase(proto string) Spec {
	return Spec{
		Benchmark: "dedup", // 4 threads, heavy sharing: real cross-tile traffic
		Protocol:  proto,
		CPU:       "DerivO3CPU",
		Scale:     0.02,
		Scaled:    true,
		Cores:     64,
		Watchdog:  DefaultWatchdog(),
	}
}

// The scaled-machine chaos property: mesh link spikes, pinned-link
// storms, and cluster-hub busy windows perturb timing on layers the flat
// Table V machine does not even have — and still must leave the
// architectural projection byte-identical to the no-fault control, for
// every protocol. This is the metamorphic oracle of the original sweep,
// re-run where the new fault classes actually bite.
func TestScaledChaosSweepMetamorphic(t *testing.T) {
	w, h := core.MeshDims(64)
	plans := fault.RandomScaledPlans(8, 0xC4A0, interconnect.MeshLinks(w, h))
	if plans[0].Name != "no-fault" {
		t.Fatalf("plan 0 is %q, want the no-fault control", plans[0].Name)
	}
	// The generator must actually cover the new classes, or the sweep
	// silently degenerates into a DRAM-only soak.
	var mesh, hub int
	for _, p := range plans[1:] {
		if p.MeshSpikeProb > 0 || len(p.MeshStorms) > 0 {
			mesh++
		}
		if p.HubBusyProb > 0 || len(p.HubStorms) > 0 {
			hub++
		}
	}
	if mesh == 0 || hub == 0 {
		t.Fatalf("scaled plans exercise mesh=%d hub=%d classes; want both > 0", mesh, hub)
	}
	for _, proto := range []string{"MESI", "S-MESI", "SwiftDir"} {
		t.Run(proto, func(t *testing.T) {
			res := Sweep(scaledChaosBase(proto), plans, t.TempDir(), 0)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			control := res.Outcomes[0].Result
			if control.Instrs == 0 || control.MemImageHash == "" {
				t.Fatalf("empty control projection: %+v", control)
			}
		})
	}
}

// recordScaledFailure sweeps one forced-failure plan on the scaled
// machine and returns the crash bundle it wrote with its violation.
func recordScaledFailure(t *testing.T) (string, *fault.Violation) {
	t.Helper()
	plans := []fault.Plan{
		{Name: "scaled-forced", Seed: 11, FailAt: 2_000,
			MeshSpikeProb: 0.05, MeshSpikeMax: 8,
			HubBusyProb: 0.05, HubBusyMax: 8},
	}
	res := Sweep(scaledChaosBase("SwiftDir"), plans, t.TempDir(), 1)
	if res.Err == nil {
		t.Fatal("forced plan did not fail the sweep")
	}
	po := res.Outcomes[0]
	if po.Bundle == "" {
		t.Fatalf("no bundle for forced plan; outcome err: %v", po.Err)
	}
	recorded, err := fault.ReadBundleViolation(po.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if recorded.Kind != fault.KindForced {
		t.Fatalf("bundled violation kind %q, want forced", recorded.Kind)
	}
	return po.Bundle, recorded
}

// checkReplay replays a bundle and requires the recorded failure back:
// same kind, cycle, message and component, on the scaled topology, with
// a byte-identical diagnostic dump.
func checkReplay(t *testing.T, bundle string, recorded *fault.Violation) {
	t.Helper()
	out, err := Replay(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation == nil {
		t.Fatalf("replay did not reproduce the violation (err=%v)", out.Err)
	}
	if !out.Spec.Scaled || out.Spec.Cores != 64 {
		t.Fatalf("replay spec lost the scaled topology: %+v", out.Spec)
	}
	if out.Violation.Kind != recorded.Kind || out.Violation.Cycle != recorded.Cycle ||
		out.Violation.Msg != recorded.Msg || out.Violation.Component != recorded.Component {
		t.Errorf("replay differs from the recording:\n  bundled:  %s\n  replayed: %s",
			recorded.Error(), out.Violation.Error())
	}
	if out.Violation.Dump != recorded.Dump {
		t.Errorf("replayed diagnostic is not byte-identical (%d vs %d bytes)",
			len(out.Violation.Dump), len(recorded.Dump))
	}
}

// A failure recorded on the scaled machine replays byte-identically: the
// replay spec carries the scaled topology, and the injector's draw order
// is the message order, so the rerun reaches the same violation with the
// same diagnostic dump.
func TestScaledBundleReplays(t *testing.T) {
	bundle, recorded := recordScaledFailure(t)
	checkReplay(t, bundle, recorded)
}

// Bundles written by older builds record "shards", "prefault" and
// "no_fast_path" in config.json. Those keys name removed engine modes
// that never changed results, so such a bundle must still decode, as the
// same configuration, and replay.
func TestLegacyShardedBundleReplays(t *testing.T) {
	bundle, recorded := recordScaledFailure(t)
	path := filepath.Join(bundle, fault.BundleConfigFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(data, []byte("{"), []byte(`{"shards":4,"prefault":true,"no_fast_path":true,`), 1)
	if bytes.Equal(legacy, data) {
		t.Fatal("config.json has no object to extend")
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	var cfg, want core.Config
	if err := json.Unmarshal(legacy, &cfg); err != nil {
		t.Fatalf("legacy config.json does not decode: %v", err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("legacy keys changed the decoded config:\n%+v\nwant\n%+v", cfg, want)
	}
	if cfg.Cores != 64 || cfg.Protocol != coherence.SwiftDir {
		t.Errorf("legacy config decoded %d cores of %v, want 64 of SwiftDir", cfg.Cores, cfg.Protocol)
	}
	// The bundle must describe the machine that failed: the scaled mesh
	// with its two-level directory, loadable as it stands.
	if cfg.Topology != "mesh" || cfg.Clusters != 8 {
		t.Errorf("config.json describes topology %q with %d clusters, want the mesh with 8", cfg.Topology, cfg.Clusters)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("config.json does not validate: %v", err)
	}
	checkReplay(t, bundle, recorded)
}
