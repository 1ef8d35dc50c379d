package sim

import (
	"strings"
	"testing"
)

// wedgeHandler reschedules itself forever without marking progress — the
// canonical livelock the watchdog exists to catch.
type wedgeHandler struct {
	eng *Engine
}

func (w *wedgeHandler) Handle(p Payload) {
	w.eng.ScheduleEvent(1, w, p)
}

func TestWatchdogTripsOnWedge(t *testing.T) {
	eng := NewEngine()
	var trip *TripInfo
	eng.Arm(nil, WatchdogConfig{MaxEvents: 100}, func(ti TripInfo) {
		trip = &ti
	})
	w := &wedgeHandler{eng: eng}
	eng.ScheduleEvent(0, w, Payload{A: 0xdead, Op: 7})
	end := eng.RunUntil(10_000)
	if trip == nil {
		t.Fatal("watchdog never tripped on a wedged handler")
	}
	if trip.EventsSinceProgress < 100 || trip.EventsSinceProgress > 101 {
		t.Errorf("tripped after %d events, want ~100", trip.EventsSinceProgress)
	}
	if end >= 10_000 {
		// a non-panicking trip disarms; the wedge keeps running to the
		// limit, which is exactly the RunUntil bound
		t.Logf("engine ran to limit after disarmed trip (expected)")
	}
	if trip.Pending != 1 {
		t.Errorf("trip saw %d pending events, want 1", trip.Pending)
	}
	if !strings.Contains(trip.PendingDump, "wedgeHandler") {
		t.Errorf("pending dump missing handler type:\n%s", trip.PendingDump)
	}
	if !strings.Contains(trip.PendingDump, "op=7") || !strings.Contains(trip.PendingDump, "A=0xdead") {
		t.Errorf("pending dump missing payload fields:\n%s", trip.PendingDump)
	}
}

func TestWatchdogTripsOnCycleBudget(t *testing.T) {
	eng := NewEngine()
	var tripped bool
	eng.Arm(nil, WatchdogConfig{MaxCycles: 500}, func(ti TripInfo) {
		tripped = true
		if ti.CyclesSinceProgress < 500 {
			t.Errorf("tripped after %d cycles, want >= 500", ti.CyclesSinceProgress)
		}
	})
	// Sparse self-rescheduling timer: few events, many cycles.
	var sparse func()
	sparse = func() { eng.Schedule(200, sparse) }
	eng.Schedule(200, sparse)
	eng.RunUntil(5_000)
	if !tripped {
		t.Fatal("watchdog never tripped on cycle budget")
	}
}

func TestWatchdogProgressResetsBudget(t *testing.T) {
	eng := NewEngine()
	eng.Arm(nil, WatchdogConfig{MaxEvents: 50, MaxCycles: 1_000}, func(ti TripInfo) {
		t.Fatalf("false positive: %+v", ti)
	})
	// A healthy loop: every event marks progress, so neither budget is
	// ever exceeded even though the run is long on both axes.
	n := 0
	var tick func()
	tick = func() {
		eng.Progress()
		if n++; n < 2_000 {
			eng.Schedule(100, tick)
		}
	}
	eng.Schedule(0, tick)
	eng.Run()
	if n != 2_000 {
		t.Errorf("ran %d ticks, want 2000", n)
	}
}

func TestWatchdogDisarm(t *testing.T) {
	eng := NewEngine()
	eng.Arm(nil, WatchdogConfig{MaxEvents: 10}, func(ti TripInfo) {
		t.Fatal("disarmed watchdog tripped")
	})
	eng.Arm(nil, WatchdogConfig{}, nil)
	w := &wedgeHandler{eng: eng}
	eng.ScheduleEvent(0, w, Payload{})
	eng.RunUntil(100)
}

func TestWatchdogNilTripPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Arm(nil, enabled, nil) did not panic")
		}
	}()
	NewEngine().Arm(nil, WatchdogConfig{MaxEvents: 1}, nil)
}

func TestWatchdogRearmAfterTrip(t *testing.T) {
	eng := NewEngine()
	trips := 0
	var arm func()
	arm = func() {
		eng.Arm(nil, WatchdogConfig{MaxEvents: 20}, func(TripInfo) {
			trips++
			if trips < 3 {
				arm()
			}
		})
	}
	arm()
	w := &wedgeHandler{eng: eng}
	eng.ScheduleEvent(0, w, Payload{})
	eng.RunUntil(1_000)
	if trips != 3 {
		t.Errorf("got %d trips, want 3 (trip disarms; re-arm from the callback works)", trips)
	}
}

func TestWatchdogConfigEnabled(t *testing.T) {
	if (WatchdogConfig{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(WatchdogConfig{MaxEvents: 1}).Enabled() || !(WatchdogConfig{MaxCycles: 1}).Enabled() {
		t.Error("bounded config reports disabled")
	}
}
