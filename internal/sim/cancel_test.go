package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
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

func TestCancelNilTokenIsInert(t *testing.T) {
	var c *Cancel
	c.Request("ignored")
	if c.Requested() || c.Reason() != "" {
		t.Error("nil token reports a fired state")
	}
	// Arming nil disarms; the engine must stay runnable.
	eng := NewEngine()
	eng.ArmCancel(nil, nil)
	done := false
	eng.Schedule(5, func() { done = true })
	eng.Run()
	if !done {
		t.Error("engine with disarmed cancel did not run")
	}
}

func TestCancelOneShotReason(t *testing.T) {
	c := NewCancel()
	if c.Requested() {
		t.Fatal("fresh token already fired")
	}
	c.Request("first")
	c.Request("second")
	if !c.Requested() || c.Reason() != "first" {
		t.Errorf("Reason() = %q, want the first request to win", c.Reason())
	}
}

// cancelAbort is the sentinel a test trip panics to stop the run — the
// same shape core.NewMachine uses (it panics a *fault.Violation). A trip
// that returns normally is a notification only and leaves the engine
// running.
type cancelAbort struct{}

// recoverCancelAbort swallows a cancelAbort panic and re-panics anything
// else. Use as `defer recoverCancelAbort(t)` around a run expected to be
// torn down by a panicking cancel trip.
func recoverCancelAbort(t *testing.T) {
	t.Helper()
	if r := recover(); r != nil {
		if _, ok := r.(cancelAbort); !ok {
			panic(r)
		}
	}
}

// The sequential engine: a token fired mid-run must trip at the next
// event boundary with the executed count so far and a watchdog-style
// pending dump, then disarm. The trip aborts by panicking, as the
// production wiring does.
func TestCancelAbortsSequentialRun(t *testing.T) {
	eng := NewEngine()
	c := NewCancel()
	var info *CancelInfo
	eng.ArmCancel(c, func(ci CancelInfo) { info = &ci; panic(cancelAbort{}) })

	h := &tickHandler{eng: eng}
	eng.ScheduleEvent(0, h, Payload{Op: 9, A: 0xbeef})
	eng.Schedule(50, func() { c.Request("client went away") })
	func() {
		defer recoverCancelAbort(t)
		eng.RunUntil(200)
	}()

	if info == nil {
		t.Fatal("cancel never tripped")
	}
	if info.Reason != "client went away" {
		t.Errorf("reason = %q", info.Reason)
	}
	if info.Executed == 0 || h.n == 0 {
		t.Error("trip before any event executed")
	}
	if h.n > 60 {
		t.Errorf("handler ran %d times after a cycle-50 cancel", h.n)
	}
	if info.Pending != 1 || !strings.Contains(info.PendingDump, "tickHandler") {
		t.Errorf("pending dump missing the parked workload:\n%s", info.PendingDump)
	}
	// The trip disarmed the token; running on must not re-fire.
	info = nil
	eng.RunUntil(300)
	if info != nil {
		t.Error("disarmed cancel tripped again")
	}
}

// Cancellation and the watchdog ride one frame: arming both (in either
// order) keeps both live, a fired token wins the check site, and
// re-arming the watchdog must not drop the token.
func TestCancelComposesWithWatchdog(t *testing.T) {
	eng := NewEngine()
	c := NewCancel()
	var cancelled, tripped bool
	eng.ArmCancel(c, func(CancelInfo) { cancelled = true })
	eng.ArmWatchdog(WatchdogConfig{MaxEvents: 1 << 40}, func(TripInfo) { tripped = true })
	eng.ArmWatchdog(WatchdogConfig{MaxEvents: 1 << 40}, func(TripInfo) { tripped = true }) // re-arm keeps the token

	h := &tickHandler{eng: eng}
	eng.ScheduleEvent(0, h, Payload{})
	eng.Schedule(10, func() { c.Request("deadline") })
	eng.RunUntil(100)
	if !cancelled {
		t.Error("token armed alongside a watchdog never tripped")
	}
	if tripped {
		t.Error("watchdog tripped below budget")
	}

	// And the reverse: a watchdog trip must leave an armed token live.
	eng2 := NewEngine()
	c2 := NewCancel()
	var cancelled2 bool
	trips := 0
	eng2.ArmCancel(c2, func(CancelInfo) { cancelled2 = true })
	eng2.ArmWatchdog(WatchdogConfig{MaxEvents: 25}, func(TripInfo) { trips++ })
	w := &wedgeHandler{eng: eng2}
	eng2.ScheduleEvent(0, w, Payload{})
	eng2.Schedule(200, func() { c2.Request("after the trip") })
	eng2.RunUntil(400)
	if trips == 0 {
		t.Fatal("watchdog never tripped on the wedge")
	}
	if !cancelled2 {
		t.Error("cancel token was dropped by the watchdog trip")
	}
}

func TestCancelFromContext(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	c := CancelFromContext(ctx)
	if c.Requested() {
		t.Fatal("token fired before the context")
	}
	cancel(errors.New("job deadline exceeded"))
	// AfterFunc runs on its own goroutine; poll with a generous deadline.
	for d := time.Now().Add(10 * time.Second); !c.Requested() && time.Now().Before(d); {
		time.Sleep(time.Millisecond)
	}
	if !c.Requested() {
		t.Fatal("token never fired after context cancellation")
	}
	if got := c.Reason(); !strings.Contains(got, "job deadline exceeded") {
		t.Errorf("reason = %q, want the context cause", got)
	}
}
