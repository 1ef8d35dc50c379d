// Package campaign is the worker-pool job scheduler behind the
// evaluation. Every experiment in internal/experiments is a grid of
// independent simulations (benchmark × protocol × CPU model); campaign
// fans those jobs out across runtime.NumCPU() goroutines by default and
// hands the results back in deterministic submission order regardless of
// completion order, so a rendered report is byte-identical to a
// sequential run at any worker count.
//
// The worker count resolves, in priority order: the explicit workers
// argument to Run/Collect, SetWorkers (the CLIs' -j flag), the
// SWIFTDIR_JOBS environment variable, and finally runtime.NumCPU().
//
// A job that panics does not kill the campaign: the panic is captured as
// a labelled *PanicError on that job's Result while every other job runs
// to completion. Per-job wall times are recorded as
// stats.CampaignSummary values, which the CLIs drain via TakeSummaries
// to print speedup footers (on stderr, keeping report output
// deterministic).
package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
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

// workerOverride holds the SetWorkers value; 0 means "automatic".
var workerOverride atomic.Int64

// SetWorkers pins the default pool size (the CLIs' -j flag). n <= 0
// restores automatic sizing (SWIFTDIR_JOBS, then runtime.NumCPU()).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int64(n))
}

// Workers reports the pool size a workers<=0 Run would use right now.
func Workers() int {
	if v := workerOverride.Load(); v > 0 {
		return int(v)
	}
	if s := os.Getenv("SWIFTDIR_JOBS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.NumCPU()
}

// Run executes jobs on a pool of the given size (workers <= 0 uses
// Workers()) and returns one Result per job in submission order, plus
// the campaign's timing summary. The summary is also queued for
// TakeSummaries so CLI frontends can report it without threading it
// through every experiment signature.
func Run[T any](workers int, jobs []Job[T]) ([]Result[T], stats.CampaignSummary) {
	if workers <= 0 {
		workers = Workers()
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
	if len(jobs) > 0 {
		record(summary)
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

// RunCtx is Run with cooperative cancellation: once ctx is done, jobs
// not yet picked up by a worker are skipped — their Result carries the
// context's cause as Err and a zero Wall — while jobs already running
// finish (or abort themselves, when their machines carry a cancel
// token). Submission order of the results is unchanged, so a cancelled
// campaign still reads like a partial prefix of the full grid.
func RunCtx[T any](ctx context.Context, workers int, jobs []Job[T]) ([]Result[T], stats.CampaignSummary) {
	if ctx == nil || ctx.Done() == nil {
		return Run(workers, jobs)
	}
	guarded := make([]Job[T], len(jobs))
	for i, j := range jobs {
		run := j.Run
		guarded[i] = Job[T]{
			Name:    j.Name,
			OnPanic: j.OnPanic,
			Run: func() (T, error) {
				if err := ctx.Err(); err != nil {
					var zero T
					if cause := context.Cause(ctx); cause != nil {
						err = cause
					}
					return zero, fmt.Errorf("skipped: %w", err)
				}
				return run()
			},
		}
	}
	return Run(workers, guarded)
}

// CollectCtx is Collect with RunCtx's cancellation semantics.
func CollectCtx[T any](ctx context.Context, workers int, jobs []Job[T]) ([]T, error) {
	results, _ := RunCtx(ctx, workers, jobs)
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

// MustCollectCtx is CollectCtx under the experiments' panic-on-error
// convention: a cancelled campaign panics with the joined per-job
// errors, which the frontends' recover fences classify.
func MustCollectCtx[T any](ctx context.Context, workers int, jobs []Job[T]) []T {
	values, err := CollectCtx(ctx, workers, jobs)
	if err != nil {
		panic(err)
	}
	return values
}

// Collect runs jobs and returns just the values in submission order.
// Failures (including captured panics) are joined into one error
// labelled with the failing jobs' names — after every job has finished,
// so one diverging simulation cannot strand the rest of the grid.
func Collect[T any](workers int, jobs []Job[T]) ([]T, error) {
	results, _ := Run(workers, jobs)
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
// package's panic-on-error convention.
func MustCollect[T any](workers int, jobs []Job[T]) []T {
	values, err := Collect(workers, jobs)
	if err != nil {
		panic(err)
	}
	return values
}

// pending accumulates summaries of completed campaigns until a frontend
// drains them.
var (
	pendingMu sync.Mutex
	pending   []stats.CampaignSummary
)

func record(s stats.CampaignSummary) {
	pendingMu.Lock()
	defer pendingMu.Unlock()
	pending = append(pending, s)
	// An unattended frontend (tests, library use) must not leak summaries
	// without bound; keep the most recent window.
	const keep = 4096
	if len(pending) > keep {
		pending = append(pending[:0], pending[len(pending)-keep:]...)
	}
}

// TakeSummaries drains and returns the summaries of campaigns completed
// since the previous drain, in completion order.
func TakeSummaries() []stats.CampaignSummary {
	pendingMu.Lock()
	defer pendingMu.Unlock()
	out := pending
	pending = nil
	return out
}
