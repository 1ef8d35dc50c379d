package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

// Two registry experiments running at the same time on separate
// recorders each see only their own campaign jobs — the isolation
// overlapping server jobs rely on.
func TestConcurrentRunsUseSeparateRecorders(t *testing.T) {
	runs := []struct {
		name   string
		params Params
		jobs   string // campaign job-name prefix
	}{
		{"kernels", Params{WSKB: 4}, "kernels/"},
		{"fig10a", Params{Passes: 1}, "fig10/"},
	}

	recs := make([]*stats.Recorder, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		recs[i] = &stats.Recorder{Workers: 2}
		e, ok := Lookup(r.name)
		if !ok {
			t.Fatalf("%s not in the registry", r.name)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Run(stats.WithRecorder(context.Background(), recs[i]), r.params)
		}()
	}
	wg.Wait()

	for i, r := range runs {
		sum := stats.MergeCampaigns(r.name, recs[i].Campaigns())
		if len(sum.Jobs) != 9 || sum.Workers != 2 {
			t.Errorf("%s: %d jobs on %d workers, want 9 on 2", r.name, len(sum.Jobs), sum.Workers)
		}
		for _, j := range sum.Jobs {
			if !strings.HasPrefix(j.Name, r.jobs) {
				t.Errorf("%s recorder holds foreign job %q", r.name, j.Name)
			}
		}
	}
}
