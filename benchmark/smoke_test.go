package main

import (
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeEveryWorkload runs each workload at its minimal size against
// a swiftdir-serve built into a temporary directory, and checks that
// nothing failed and that the metrics BENCHMARK.json names come out with
// its units. Percentiles may be refused at this size. Without -short the
// runs are traced, which also checks that each profile's *.cpu_pct
// shares sum to 100.
func TestSmokeEveryWorkload(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "swiftdir-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/swiftdir-serve").CombinedOutput(); err != nil {
		t.Fatalf("build swiftdir-serve: %v\n%s", err, out)
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spec-o3", "war-inorder", "mesh256-sharing", "serve-mix"} {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{root: "..", seed: 1, seconds: 0.3, serveBin: bin}
			if name == "serve-mix" {
				cfg.seconds = 1
			}
			if !testing.Short() {
				if cfg.tr, err = newTracer(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := runWorkload(name, cfg)
			if err == nil && cfg.tr != nil {
				err = addTraceMetrics(rep, cfg.tr)
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.failures)
			}
			checkMetrics(t, rep, spec.EndToEnd, true)
			if cfg.tr == nil {
				return
			}
			checkMetrics(t, rep, spec.PerLayer, false)
			sum := 0.0
			for _, l := range cpuLayers {
				v, _ := rep.lookup(l + ".cpu_pct")
				sum += v
			}
			if math.Abs(sum-100) > 1 {
				t.Errorf("cpu_pct shares sum to %.2f, want 100 ± 1", sum)
			}
		})
	}
}

// checkMetrics checks that every listed metric was measured (or, when
// required, refused for too few samples) with the listed unit.
func checkMetrics(t *testing.T, rep *report, list []specMetric, required bool) {
	t.Helper()
	for _, m := range list {
		found := false
		for _, got := range rep.metrics {
			if got.Name == m.Name {
				found = true
				if got.Unit != m.Unit {
					t.Errorf("%s measured in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
				}
			}
		}
		if found || !required {
			continue
		}
		refused := false
		for _, r := range rep.refused {
			refused = refused || strings.HasPrefix(r, m.Name+":")
		}
		if !refused {
			t.Errorf("%s neither measured nor refused", m.Name)
		}
	}
}
