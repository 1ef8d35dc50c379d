package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/campaign"
)

// TestExpectedSeed1 runs every seed-1 simulation job once and compares
// its outcome with testdata/expected_seed1.json. Regenerate the file with
// SWIFTDIR_UPDATE_GOLDEN=1 only when a simulated behaviour change is
// intended.
func TestExpectedSeed1(t *testing.T) {
	got := map[string]map[string]outcome{}
	for name, w := range simWorkloads {
		results, _ := campaign.Run(simWorkers, campaignJobs(w.gen(1), nil, 0, nil))
		drainQueues()
		got[name] = map[string]outcome{}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s %s: %v", name, r.Name, r.Err)
			}
			got[name][r.Name] = r.Value.out
		}
	}

	if os.Getenv("SWIFTDIR_UPDATE_GOLDEN") != "" {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/expected_seed1.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("wrote testdata/expected_seed1.json; rebuild to embed it")
		return
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := expectedSeed1[name]
		if len(want) != len(got[name]) {
			t.Errorf("%s: %d pinned jobs, ran %d", name, len(want), len(got[name]))
		}
		for job, out := range got[name] {
			if w, ok := want[job]; !ok || w != out {
				t.Errorf("%s %s: outcome %+v, pinned %+v", name, job, out, w)
			}
		}
	}
}
