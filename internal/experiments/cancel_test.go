package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// startedCtx becomes done the first time anyone asks whether it is:
// campaign.Collect asks once per job before running it, so the first job
// passes its skip check and then builds its machines on a done context.
// A context cancelled up front would skip every job before any machine
// existed and prove nothing about the machines.
type startedCtx struct {
	context.Context
	cancel context.CancelFunc
	once   sync.Once
}

func (c *startedCtx) Err() error {
	err := c.Context.Err()
	c.once.Do(c.cancel)
	return err
}

// A done ctx aborts every machine a sized experiment builds, mid-run,
// with a typed cancellation, the way it aborts workload.RunKernel: the
// covert phase of ablation, msi, moesi and arbitration, scale-attack's
// calibration and channel machines, and futurework's write-channel
// machine (which runs outside any campaign, so it gets a context
// cancelled up front). Each size is far beyond what finishes in the
// test's time; an experiment that ignores ctx runs it to the end and
// reports only skipped jobs.
func TestSizedExperimentsAbortMidRun(t *testing.T) {
	for _, tc := range []struct {
		exp      string
		p        Params
		campaign bool
	}{
		{"ablation", Params{Bits: 1_000_000, Passes: 1}, true},
		{"msi", Params{Bits: 4_000_000, Passes: 1}, true},
		{"moesi", Params{Bits: 4_000_000, Passes: 1}, true},
		{"arbitration", Params{Bits: 4_000_000}, true},
		{"scale-attack", Params{Bits: 800_000}, true},
		{"futurework", Params{Bits: 8_000}, false},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			inner, cancel := context.WithCancel(workersCtx(1))
			defer cancel()
			var ctx context.Context = &startedCtx{Context: inner, cancel: cancel}
			if !tc.campaign {
				cancel()
				ctx = inner
			}
			e, _ := Lookup(tc.exp)
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				e.Run(ctx, tc.p)
			}()
			if msg := fmt.Sprint(recovered); !strings.Contains(msg, "cancelled violation") {
				t.Fatalf("recovered %.300q, want a machine aborted with a cancelled violation", msg)
			}
		})
	}
}
