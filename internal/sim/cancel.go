// Cooperative cancellation for the event engine.
//
// A Cancel is a token shared between the engine's event loop and some
// goroutine outside the simulation — an HTTP handler whose client hung
// up, a deadline timer, a SIGTERM drain. The outside goroutine calls
// Request; the engine observes the flag at its existing per-event check
// site and aborts by invoking the armed trip callback with a full
// diagnostic, exactly like a watchdog trip.
//
// The check is piggybacked on the watchdog's single `wd != nil` test in
// the pop loop: arming a Cancel on an engine with no watchdog installs a
// budget-less watchdog frame, so the fully disarmed hot path still pays
// exactly one nil check per event and nothing else. With a Cancel armed
// the per-event cost is one atomic load.
package sim

import "sync/atomic"

// Cancel is a cooperative cancellation token. The zero value is ready to
// use; all methods are safe for concurrent use and safe on a nil
// receiver (a nil token is never cancelled). A token is one-shot: the
// first Request wins and later reasons are dropped.
type Cancel struct {
	fired  atomic.Bool
	reason atomic.Pointer[string]
}

// NewCancel returns a fresh, unfired token.
func NewCancel() *Cancel { return &Cancel{} }

// Request asks every engine the token is armed on to abort at its next
// event boundary. The first caller's reason is the one trips report;
// subsequent calls are no-ops.
func (c *Cancel) Request(reason string) {
	if c == nil {
		return
	}
	if c.reason.CompareAndSwap(nil, &reason) {
		c.fired.Store(true)
	}
}

// Requested reports whether the token has fired.
func (c *Cancel) Requested() bool { return c != nil && c.fired.Load() }

// Reason returns the first Request's reason, or "" if unfired.
func (c *Cancel) Reason() string {
	if c == nil {
		return ""
	}
	if p := c.reason.Load(); p != nil {
		return *p
	}
	return ""
}

// CancelInfo is the diagnostic handed to a cancel trip: where the run
// was interrupted and the complete pending-event queue at that point,
// rendered exactly like a watchdog TripInfo dump.
type CancelInfo struct {
	Now      Cycle
	Reason   string
	Executed uint64 // events executed before the abort took effect
	Pending  int
	// PendingDump renders every pending event in execution order, in the
	// same format as TripInfo.PendingDump.
	PendingDump string
}

// ArmCancel arms a cancellation token: once c.Request fires, the next
// per-event check invokes trip with a diagnostic and disarms the token.
// Composes with ArmWatchdog in either order — both ride the same
// per-event check. Arming a nil token disarms any existing one (and
// drops the watchdog frame too if no budget is configured).
func (e *Engine) ArmCancel(c *Cancel, trip func(CancelInfo)) {
	if c == nil {
		if wd := e.wd; wd != nil {
			wd.cancel, wd.cancelTrip = nil, nil
			if !wd.cfg.Enabled() {
				e.wd = nil
			}
		}
		return
	}
	if trip == nil {
		panic("sim: ArmCancel with nil trip callback")
	}
	if e.wd == nil {
		// Budget-less frame: checkWatchdog's budget test never fires on a
		// zero config, so this frame exists only to carry the cancel check
		// through the existing nil-check site.
		e.wd = &watchdog{lastCycle: e.now, lastEvents: e.executed}
	}
	e.wd.cancel, e.wd.cancelTrip = c, trip
}

// fireCancel disarms the token and invokes the trip callback with the
// engine's state. The watchdog frame survives iff it has a budget.
func (e *Engine) fireCancel(wd *watchdog) {
	c, trip := wd.cancel, wd.cancelTrip
	wd.cancel, wd.cancelTrip = nil, nil
	if !wd.cfg.Enabled() {
		e.wd = nil
	}
	if trip == nil {
		return
	}
	trip(CancelInfo{
		Now:         e.now,
		Reason:      c.Reason(),
		Executed:    e.executed,
		Pending:     e.pending,
		PendingDump: e.renderPending(),
	})
}
