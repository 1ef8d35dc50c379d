package sim

import (
	"fmt"
	"strings"
)

// WatchdogConfig bounds how long the engine may run without anyone
// calling Progress. Zero fields disable that bound; the zero value
// disables the watchdog entirely. Both limits are deliberately generous
// defaults for callers to tighten: a wedged protocol executes thousands
// of events per retired op, so even a 10x-conservative budget trips
// quickly relative to a full run.
type WatchdogConfig struct {
	// MaxEvents is the number of events the engine may execute with no
	// progress mark before the watchdog trips.
	MaxEvents uint64 `json:"max_events,omitempty"`
	// MaxCycles is the number of simulated cycles that may elapse with no
	// progress mark before the watchdog trips.
	MaxCycles Cycle `json:"max_cycles,omitempty"`
}

// Enabled reports whether the config bounds anything.
func (c WatchdogConfig) Enabled() bool { return c.MaxEvents > 0 || c.MaxCycles > 0 }

// TripInfo is the watchdog's structured diagnostic: where the run stalled
// and the complete pending-event queue at the moment of the trip. Higher
// layers append their own state (MSHRs, directory transactions) on top.
type TripInfo struct {
	Now                 Cycle
	LastProgress        Cycle // engine time of the last Progress call
	EventsSinceProgress uint64
	CyclesSinceProgress Cycle
	Pending             int
	// PendingDump renders every pending event in execution order, one per
	// line: relative cycle, handler type, payload. Closure events carry no
	// inspectable payload and render as "closure".
	PendingDump string
}

// watchdog is the armed detector. lastCycle/lastEvents snapshot the
// engine counters at the most recent progress mark. The frame also
// carries the armed cancellation token (see cancel.go), so the
// per-event check site stays a single nil test whether zero, one, or
// both mechanisms are armed.
type watchdog struct {
	cfg        WatchdogConfig
	trip       func(TripInfo)
	lastCycle  Cycle
	lastEvents uint64

	cancel     *Cancel
	cancelTrip func(CancelInfo)
}

// ArmWatchdog installs a liveness watchdog: if the engine executes
// cfg.MaxEvents events or advances cfg.MaxCycles cycles without a
// Progress call, trip runs with a diagnostic. The watchdog disarms itself
// before calling trip, so a trip callback that does not panic leaves the
// engine runnable (and re-armable). Arming with a disabled config disarms
// any existing watchdog.
func (e *Engine) ArmWatchdog(cfg WatchdogConfig, trip func(TripInfo)) {
	if !cfg.Enabled() {
		e.DisarmWatchdog()
		return
	}
	if trip == nil {
		panic("sim: ArmWatchdog with nil trip callback")
	}
	next := &watchdog{cfg: cfg, trip: trip, lastCycle: e.now, lastEvents: e.executed}
	if old := e.wd; old != nil {
		// An armed cancellation token rides the frame; re-arming the
		// watchdog must not drop it.
		next.cancel, next.cancelTrip = old.cancel, old.cancelTrip
	}
	e.wd = next
}

// DisarmWatchdog removes the watchdog, if any. An armed cancellation
// token survives on a budget-less frame.
func (e *Engine) DisarmWatchdog() {
	if wd := e.wd; wd != nil && wd.cancel != nil {
		wd.cfg, wd.trip = WatchdogConfig{}, nil
		return
	}
	e.wd = nil
}

// Progress marks forward progress — a core retired an operation, so the
// run is not wedged. It resets the watchdog's event and cycle budgets.
// With no watchdog armed it is a single nil check, cheap enough for the
// hottest completion paths.
func (e *Engine) Progress() {
	if wd := e.wd; wd != nil {
		wd.lastCycle = e.now
		wd.lastEvents = e.executed
	}
}

// checkWatchdog runs after each executed event while a watchdog frame is
// armed: first the cancellation flag (one atomic load), then the budget.
func (e *Engine) checkWatchdog() {
	wd := e.wd
	if wd.cancel != nil && wd.cancel.Requested() {
		e.fireCancel(wd)
		return
	}
	events := e.executed - wd.lastEvents
	cycles := e.now - wd.lastCycle
	if (wd.cfg.MaxEvents == 0 || events < wd.cfg.MaxEvents) &&
		(wd.cfg.MaxCycles == 0 || cycles < wd.cfg.MaxCycles) {
		return
	}
	// Disarm before the callback: a non-panicking trip must not re-fire.
	// An armed cancellation token stays live on a budget-less frame.
	e.wd = nil
	if wd.cancel != nil {
		e.wd = &watchdog{lastCycle: e.now, lastEvents: e.executed,
			cancel: wd.cancel, cancelTrip: wd.cancelTrip}
	}
	wd.trip(TripInfo{
		Now:                 e.now,
		LastProgress:        wd.lastCycle,
		EventsSinceProgress: events,
		CyclesSinceProgress: cycles,
		Pending:             e.pending,
		PendingDump:         e.renderPending(),
	})
}

// renderPending formats the pending-event queue for a trip diagnostic.
// Failure-path only; allocation is fine here.
func (e *Engine) renderPending() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pending events (%d), execution order:\n", e.pending)
	e.ForEachPending(func(rel Cycle, h Handler, p Payload, isClosure bool) {
		if isClosure {
			fmt.Fprintf(&sb, "  +%-6d closure\n", rel)
			return
		}
		fmt.Fprintf(&sb, "  +%-6d %-28T op=%d A=%#x B=%#x X=%d Y=%d Z=%d K=%d F=%d Aux=%d\n",
			rel, h, p.Op, p.A, p.B, p.X, p.Y, p.Z, p.K, p.F, p.Aux)
	})
	return sb.String()
}
