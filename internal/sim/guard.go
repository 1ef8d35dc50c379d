package sim

import (
	"fmt"
	"strings"
	"sync/atomic"
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

// Bound names the limit whose crossing tripped the run guard.
type Bound uint8

const (
	BoundStop   Bound = iota + 1 // the stop flag was set
	BoundEvents                  // WatchdogConfig.MaxEvents without progress
	BoundCycles                  // WatchdogConfig.MaxCycles without progress
)

// TripInfo is the run guard's structured diagnostic: which bound fired,
// where the run was, and the complete pending-event queue at that moment.
// Higher layers append their own state (MSHRs, directory transactions) on
// top.
type TripInfo struct {
	Bound               Bound
	Now                 Cycle
	Executed            uint64 // events executed before the trip
	LastProgress        Cycle  // engine time of the last Progress call
	EventsSinceProgress uint64
	CyclesSinceProgress Cycle
	Pending             int
	// PendingDump renders every pending event in execution order, one per
	// line: relative cycle, handler type, payload.
	PendingDump string
}

// guard is the armed run guard. lastCycle/lastEvents snapshot the engine
// counters at the most recent progress mark.
type guard struct {
	stop       *atomic.Bool
	cfg        WatchdogConfig
	trip       func(TripInfo)
	lastCycle  Cycle
	lastEvents uint64
}

// Arm installs the run guard: trip runs with a diagnostic at the first
// event boundary after stop is set (by any goroutine), or once the engine
// executes cfg.MaxEvents events or advances cfg.MaxCycles cycles without a
// Progress call. A nil stop or a disabled cfg leaves that bound out;
// arming with neither disarms the guard. Any trip disarms the whole guard
// before calling trip, so a trip callback that does not panic leaves the
// engine runnable (and re-armable).
func (e *Engine) Arm(stop *atomic.Bool, cfg WatchdogConfig, trip func(TripInfo)) {
	if stop == nil && !cfg.Enabled() {
		e.g = nil
		return
	}
	if trip == nil {
		panic("sim: Arm with nil trip callback")
	}
	e.g = &guard{stop: stop, cfg: cfg, trip: trip, lastCycle: e.now, lastEvents: e.executed}
}

// Progress marks forward progress — a core retired an operation, so the
// run is not wedged. It resets the watchdog's event and cycle budgets.
// With no guard armed it is a single nil check, cheap enough for the
// hottest completion paths.
func (e *Engine) Progress() {
	if g := e.g; g != nil {
		g.lastCycle = e.now
		g.lastEvents = e.executed
	}
}

// check runs after each executed event while the guard is armed: first
// the stop flag (one atomic load), then the budget.
func (e *Engine) check() {
	g := e.g
	events := e.executed - g.lastEvents
	cycles := e.now - g.lastCycle
	var b Bound
	switch {
	case g.stop != nil && g.stop.Load():
		b = BoundStop
	case g.cfg.MaxEvents > 0 && events >= g.cfg.MaxEvents:
		b = BoundEvents
	case g.cfg.MaxCycles > 0 && cycles >= g.cfg.MaxCycles:
		b = BoundCycles
	default:
		return
	}
	// Disarm before the callback: a non-panicking trip must not re-fire.
	e.g = nil
	g.trip(TripInfo{
		Bound:               b,
		Now:                 e.now,
		Executed:            e.executed,
		LastProgress:        g.lastCycle,
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
	e.ForEachPending(func(rel Cycle, h Handler, p Payload) {
		fmt.Fprintf(&sb, "  +%-6d %-28T op=%d A=%#x B=%#x X=%d Y=%d Z=%d K=%d F=%d Aux=%d\n",
			rel, h, p.Op, p.A, p.B, p.X, p.Y, p.Z, p.K, p.F, p.Aux)
	})
	return sb.String()
}
