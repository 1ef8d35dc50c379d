package sim

import (
	"strings"
	"sync/atomic"
	"testing"
)

// tickHandler reschedules itself and counts executions — a healthy,
// progress-marking workload for cancellation to interrupt.
type tickHandler struct {
	eng *Engine
	n   int
}

func (h *tickHandler) Handle(p Payload) {
	h.n++
	h.eng.Progress()
	h.eng.ScheduleEvent(1, h, p)
}

// Arming with no stop flag and a disabled config disarms the guard: a set
// flag armed before is no longer observed, and the engine stays runnable.
func TestCancelNilTokenIsInert(t *testing.T) {
	eng := NewEngine()
	var stop atomic.Bool
	stop.Store(true)
	eng.Arm(&stop, WatchdogConfig{}, func(TripInfo) { t.Fatal("disarmed guard tripped") })
	eng.Arm(nil, WatchdogConfig{}, nil)
	done := false
	eng.Schedule(5, func() { done = true })
	eng.Run()
	if !done {
		t.Error("engine with a disarmed guard did not run")
	}
}

// cancelAbort is the sentinel a test trip panics to stop the run — the
// same shape core.NewMachine uses (it panics a *fault.Violation). A trip
// that returns normally is a notification only and leaves the engine
// running.
type cancelAbort struct{}

// recoverCancelAbort swallows a cancelAbort panic and re-panics anything
// else. Use as `defer recoverCancelAbort(t)` around a run expected to be
// torn down by a panicking trip.
func recoverCancelAbort(t *testing.T) {
	t.Helper()
	if r := recover(); r != nil {
		if _, ok := r.(cancelAbort); !ok {
			panic(r)
		}
	}
}

// A stop flag set inside an event must trip at the next event boundary
// with the executed count so far and a pending dump naming the parked
// handler, then disarm. The trip aborts by panicking, as the production
// wiring does.
func TestCancelAbortsSequentialRun(t *testing.T) {
	eng := NewEngine()
	var stop atomic.Bool
	var info *TripInfo
	eng.Arm(&stop, WatchdogConfig{}, func(ti TripInfo) { info = &ti; panic(cancelAbort{}) })

	h := &tickHandler{eng: eng}
	eng.ScheduleEvent(0, h, Payload{Op: 9, A: 0xbeef})
	var setAt uint64
	eng.Schedule(50, func() { stop.Store(true); setAt = eng.Executed() })
	func() {
		defer recoverCancelAbort(t)
		eng.RunUntil(200)
	}()

	if info == nil {
		t.Fatal("stop flag never tripped")
	}
	if info.Bound != BoundStop {
		t.Errorf("bound = %d, want BoundStop", info.Bound)
	}
	if info.Executed != setAt || info.Now != 50 {
		t.Errorf("tripped at cycle %d after %d events; the flag was set at cycle 50 by event %d",
			info.Now, info.Executed, setAt)
	}
	if info.Pending != 1 || !strings.Contains(info.PendingDump, "tickHandler") {
		t.Errorf("pending dump missing the parked workload:\n%s", info.PendingDump)
	}
	// The trip disarmed the guard; running on must not re-fire.
	info = nil
	eng.RunUntil(300)
	if info != nil {
		t.Error("disarmed guard tripped again")
	}
	if h.n < 250 {
		t.Errorf("handler ran %d times by cycle 300, want the run to go on after the trip", h.n)
	}
}

// A stop flag and a budget armed in one call each trip as their own
// bound: the flag on a healthy run, the event and cycle budgets on
// progress-free ones. Whichever trips first disarms the whole guard, so
// each run trips exactly once.
func TestCancelComposesWithWatchdog(t *testing.T) {
	run := func(cfg WatchdogConfig, newHandler func(*Engine) Handler, stopAt Cycle) TripInfo {
		eng := NewEngine()
		var stop atomic.Bool
		var got []TripInfo
		eng.Arm(&stop, cfg, func(ti TripInfo) { got = append(got, ti) })
		eng.ScheduleEvent(0, newHandler(eng), Payload{})
		eng.Schedule(stopAt, func() { stop.Store(true) })
		eng.RunUntil(400)
		if len(got) != 1 {
			t.Fatalf("%d trips, want exactly 1: %+v", len(got), got)
		}
		return got[0]
	}
	tick := func(e *Engine) Handler { return &tickHandler{eng: e} }
	wedge := func(e *Engine) Handler { return &wedgeHandler{eng: e} }
	sparse := func(e *Engine) Handler { return &sparseHandler{eng: e} }

	budget := WatchdogConfig{MaxEvents: 25, MaxCycles: 1 << 20}
	if ti := run(budget, tick, 100); ti.Bound != BoundStop || ti.Now != 100 {
		t.Errorf("stop flag on a healthy run: bound %d at cycle %d, want BoundStop at 100", ti.Bound, ti.Now)
	}
	if ti := run(budget, wedge, 200); ti.Bound != BoundEvents || ti.EventsSinceProgress != budget.MaxEvents {
		t.Errorf("event budget on a wedge: bound %d after %d events, want BoundEvents after %d",
			ti.Bound, ti.EventsSinceProgress, budget.MaxEvents)
	}
	cycles := WatchdogConfig{MaxCycles: 50}
	if ti := run(cycles, sparse, 300); ti.Bound != BoundCycles || ti.CyclesSinceProgress < cycles.MaxCycles {
		t.Errorf("cycle budget on a sparse timer: bound %d after %d cycles, want BoundCycles after >= %d",
			ti.Bound, ti.CyclesSinceProgress, cycles.MaxCycles)
	}
}

// sparseHandler reschedules itself 20 cycles out without marking
// progress: few events, many cycles.
type sparseHandler struct{ eng *Engine }

func (s *sparseHandler) Handle(p Payload) { s.eng.ScheduleEvent(20, s, p) }
