package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// withWorkers returns a context whose recorder sizes Collect's pool at n.
func withWorkers(n int) context.Context {
	return stats.WithRecorder(context.Background(), &stats.Recorder{Workers: n})
}

// squareJobs builds n jobs returning i*i, optionally jittering their
// runtime so completion order scrambles relative to submission order.
func squareJobs(n int, jitter bool, rng *rand.Rand) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		var d time.Duration
		if jitter {
			d = time.Duration(rng.Intn(3)) * time.Millisecond
		}
		jobs[i] = Job[int]{Name: fmt.Sprintf("sq-%d", i), Run: func() (int, error) {
			time.Sleep(d)
			return i * i, nil
		}}
	}
	return jobs
}

// Results must come back in submission order at every worker count,
// regardless of completion order — the determinism guarantee the whole
// evaluation leans on.
func TestRunDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, workers := range []int{1, 2, 4, 8, 16} {
		workers := workers
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			results, sum := Run(workers, squareJobs(23, true, rng))
			if len(results) != 23 {
				t.Fatalf("results = %d, want 23", len(results))
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("job %d: %v", i, r.Err)
				}
				if r.Value != i*i || r.Name != fmt.Sprintf("sq-%d", i) {
					t.Fatalf("slot %d holds %q=%d, want sq-%d=%d", i, r.Name, r.Value, i, i*i)
				}
			}
			if len(sum.Jobs) != 23 || sum.Failed() != 0 {
				t.Fatalf("summary: %d jobs, %d failed", len(sum.Jobs), sum.Failed())
			}
			if want := min(workers, 23); sum.Workers != want {
				t.Fatalf("summary workers = %d, want %d", sum.Workers, want)
			}
		})
	}
}

// A panicking job must surface as a labelled *PanicError on its own slot
// while every other job completes.
func TestPanicIsolation(t *testing.T) {
	jobs := squareJobs(8, false, nil)
	jobs[3] = Job[int]{Name: "diverges", Run: func() (int, error) {
		panic("simulation diverged")
	}}
	results, sum := Run(4, jobs)
	for i, r := range results {
		if i == 3 {
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("slot 3: err = %v, want *PanicError", r.Err)
			}
			if pe.Job != "diverges" || !strings.Contains(pe.Error(), "simulation diverged") {
				t.Fatalf("panic not labelled: %v", pe)
			}
			continue
		}
		if r.Err != nil || r.Value != i*i {
			t.Fatalf("job %d disturbed by sibling panic: %d, %v", i, r.Value, r.Err)
		}
	}
	if sum.Failed() != 1 {
		t.Fatalf("summary failed = %d, want 1", sum.Failed())
	}

	_, err := Collect(withWorkers(4), jobs)
	if err == nil || !strings.Contains(err.Error(), `"diverges"`) {
		t.Fatalf("Collect error not labelled: %v", err)
	}
}

func TestCollectValuesAndErrors(t *testing.T) {
	jobs := []Job[string]{
		{Name: "a", Run: func() (string, error) { return "A", nil }},
		{Name: "b", Run: func() (string, error) { return "", errors.New("boom") }},
		{Name: "c", Run: func() (string, error) { return "C", nil }},
	}
	values, err := Collect(withWorkers(2), jobs)
	if err == nil || !strings.Contains(err.Error(), `job "b"`) {
		t.Fatalf("err = %v", err)
	}
	if values[0] != "A" || values[2] != "C" {
		t.Fatalf("values = %v", values)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("MustCollect did not panic on job error")
		}
	}()
	MustCollect(withWorkers(2), jobs)
}

// Collect sizes its pool from the recorder on its context: the
// recorder's Workers when positive, else runtime.NumCPU(), clamped to
// the job count as Run does.
func TestCollectPoolSizeFromRecorder(t *testing.T) {
	for _, tc := range []struct{ workers, jobs, want int }{
		{3, 8, 3},
		{5, 2, 2},
		{0, 64, min(runtime.NumCPU(), 64)},
		{-1, 64, min(runtime.NumCPU(), 64)},
	} {
		rec := &stats.Recorder{Workers: tc.workers}
		MustCollect(stats.WithRecorder(context.Background(), rec), squareJobs(tc.jobs, false, nil))
		sums := rec.Campaigns()
		if len(sums) != 1 || sums[0].Workers != tc.want {
			t.Errorf("Workers %d over %d jobs: recorded %+v, want one summary on %d workers",
				tc.workers, tc.jobs, sums, tc.want)
		}
	}
}

// With no recorder on its context Collect runs runtime.NumCPU() jobs at
// a time: the first NumCPU jobs rendezvous, every job then holds its
// worker briefly, and no more than NumCPU are ever in flight.
func TestCollectWithoutRecorderUsesNumCPU(t *testing.T) {
	n := int64(runtime.NumCPU())
	var inflight, peak atomic.Int64
	jobs := make([]Job[int], 2*n)
	for i := range jobs {
		jobs[i] = Job[int]{Name: fmt.Sprintf("probe-%d", i), Run: func() (int, error) {
			cur := inflight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			for deadline := time.Now().Add(time.Second); peak.Load() < n && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
			time.Sleep(2 * time.Millisecond)
			inflight.Add(-1)
			return 0, nil
		}}
	}
	MustCollect(context.Background(), jobs)
	if got := peak.Load(); got != n {
		t.Fatalf("peak concurrency %d, want runtime.NumCPU() = %d", got, n)
	}
}

func TestEmptyAndSingleJobCampaigns(t *testing.T) {
	results, sum := Run[int](4, nil)
	if len(results) != 0 || len(sum.Jobs) != 0 {
		t.Fatalf("empty campaign: %d results", len(results))
	}
	values := MustCollect(withWorkers(8), squareJobs(1, false, nil))
	if len(values) != 1 || values[0] != 0 {
		t.Fatalf("single job: %v", values)
	}
}

// Every Collect call records exactly one summary on its recorder, in
// completion order; Run records nothing.
func TestCollectRecordsOneSummaryPerCall(t *testing.T) {
	rec := &stats.Recorder{Workers: 2}
	ctx := stats.WithRecorder(context.Background(), rec)
	MustCollect(ctx, squareJobs(4, false, nil))
	Run(2, squareJobs(3, false, nil))
	MustCollect(ctx, squareJobs(2, false, nil))
	got := rec.Campaigns()
	if len(got) != 2 || len(got[0].Jobs) != 4 || len(got[1].Jobs) != 2 {
		t.Fatalf("summaries = %+v, want 4 jobs then 2", got)
	}
	if got[0].Jobs[0].Name != "sq-0" {
		t.Errorf("first job %q, want sq-0", got[0].Jobs[0].Name)
	}
}

// TestCollectSkipsJobsAfterCancel: once ctx is done, jobs not yet started
// are skipped with the context's cause, while the job already running
// finishes.
func TestCollectSkipsJobsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := squareJobs(4, false, nil)
	first := jobs[0].Run
	jobs[0].Run = func() (int, error) {
		cancel()
		return first()
	}
	_, err := Collect(stats.WithRecorder(ctx, &stats.Recorder{Workers: 1}), jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Collect error %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), `job "sq-3": skipped`) || strings.Contains(err.Error(), `"sq-0"`) {
		t.Fatalf("error %v: want sq-0 run and the queued jobs skipped", err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
