// Package campaign is the worker-pool job scheduler behind the
// evaluation. Every experiment in internal/experiments is a grid of
// independent simulations (benchmark × protocol × CPU model); campaign
// fans those jobs out across a pool of goroutines and hands the results
// back in deterministic submission order regardless of completion
// order, so a rendered report is byte-identical to a sequential run at
// any worker count.
//
// Collect sizes its pool from the stats.Recorder on its context (the
// CLIs' -j flag, the server's per-job setting), else runtime.NumCPU(),
// and appends its timing summary to that recorder, which the frontends
// read to print speedup footers (on stderr, keeping report output
// deterministic). Without a recorder nothing is retained.
//
// A job that panics does not kill the campaign: the panic is captured as
// a labelled *PanicError on that job's Result while every other job runs
// to completion.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/stats"
)

// Job is one independent unit of work: a named closure that builds its
// own simulator state (no sharing with other jobs) and returns a value.
type Job[T any] struct {
	Name string
	Run  func() (T, error)

	// OnPanic, if non-nil, runs on the worker goroutine after a panic in
	// Run has been captured as a *PanicError but before the job's Result
	// is finalized — the crash-bundle hook. It must not re-raise; if it
	// panics itself, that secondary failure is folded into the job error
	// rather than killing the campaign.
	OnPanic func(*PanicError)
}

// Result pairs one job's outcome with its wall time. Results are always
// delivered in submission order.
type Result[T any] struct {
	Name  string
	Value T
	Err   error
	Wall  time.Duration
}

// PanicError is a panic captured inside a job, labelled with the job
// that diverged so one bad simulation reads as a job error rather than a
// dead process.
type PanicError struct {
	Job   string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("campaign job %q panicked: %v\n%s", e.Job, e.Value, e.Stack)
}

// Run executes jobs on a pool of the given size (workers <= 0 uses
// runtime.NumCPU()) and returns one Result per job in submission order,
// plus the campaign's timing summary.
func Run[T any](workers int, jobs []Job[T]) ([]Result[T], stats.CampaignSummary) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]Result[T], len(jobs))
	start := time.Now()
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = execute(jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	summary := stats.CampaignSummary{Workers: workers, Wall: time.Since(start)}
	for _, r := range results {
		summary.Jobs = append(summary.Jobs, stats.JobTiming{
			Name: r.Name, Wall: r.Wall, Failed: r.Err != nil,
		})
	}
	return results, summary
}

// execute runs one job with the panic-capture fence.
func execute[T any](j Job[T]) (res Result[T]) {
	res.Name = j.Name
	start := time.Now()
	defer func() {
		res.Wall = time.Since(start)
		if r := recover(); r != nil {
			pe := &PanicError{Job: j.Name, Value: r, Stack: debug.Stack()}
			res.Err = pe
			if j.OnPanic != nil {
				if hookErr := runPanicHook(j.OnPanic, pe); hookErr != nil {
					res.Err = errors.Join(pe, fmt.Errorf("job %q OnPanic hook failed: %w", j.Name, hookErr))
				}
			}
		}
	}()
	res.Value, res.Err = j.Run()
	return res
}

// runPanicHook invokes an OnPanic hook under its own recover fence so a
// faulty bundle writer degrades to an error annotation, never a crash.
func runPanicHook(hook func(*PanicError), pe *PanicError) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	hook(pe)
	return nil
}

// Collect runs jobs on a pool sized by the stats.Recorder on ctx, records
// the campaign's summary there, and returns just the values in
// submission order. Failures (including captured panics) are joined into
// one error labelled with the failing jobs' names — after every job has
// finished, so one diverging simulation cannot strand the rest of the
// grid.
//
// Cancellation is cooperative: once ctx is done, jobs not yet picked up
// by a worker are skipped — their error carries the context's cause —
// while jobs already running finish (or abort themselves, when their
// machines carry a cancel token).
func Collect[T any](ctx context.Context, jobs []Job[T]) ([]T, error) {
	if ctx.Done() != nil {
		guarded := make([]Job[T], len(jobs))
		for i, j := range jobs {
			run := j.Run
			j.Run = func() (T, error) {
				if ctx.Err() != nil {
					var zero T
					return zero, fmt.Errorf("skipped: %w", context.Cause(ctx))
				}
				return run()
			}
			guarded[i] = j
		}
		jobs = guarded
	}
	rec := stats.RecorderFrom(ctx)
	workers := 0 // runtime.NumCPU()
	if rec != nil {
		workers = rec.Workers
	}
	results, summary := Run(workers, jobs)
	rec.RecordCampaign(summary)
	values := make([]T, len(results))
	var errs []error
	for i, r := range results {
		values[i] = r.Value
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("job %q: %w", r.Name, r.Err))
		}
	}
	return values, errors.Join(errs...)
}

// MustCollect is Collect for the experiment functions, which follow the
// package's panic-on-error convention: a failed or cancelled campaign
// panics with the joined per-job errors, which the frontends' recover
// fences classify.
func MustCollect[T any](ctx context.Context, jobs []Job[T]) []T {
	values, err := Collect(ctx, jobs)
	if err != nil {
		panic(err)
	}
	return values
}

// TakeSummaries returns nil: campaign summaries go to the
// stats.Recorder on the run's context. It remains only because
// benchmark/sim.go, which the repository benchmark builds from this
// tree, still calls it; delete it together with that call.
func TakeSummaries() []stats.CampaignSummary { return nil }
