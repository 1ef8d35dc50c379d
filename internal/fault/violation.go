// Package fault is the seeded fault-injection and failure-containment
// subsystem. It supplies three things the robustness story is built on:
//
//   - a Plan/Injector pair that perturbs the simulator's *timing* —
//     latency spikes and burst storms on crossbar ports and mesh links,
//     transient directory-bank and cluster-hub busy windows, DRAM
//     refresh/row-conflict storms — deterministically from a seed,
//     without ever reordering messages a protocol-legal network could not
//     reorder. Timing faults may move
//     cycles, never architectural values; the soak sweep asserts exactly
//     that (see internal/soak).
//   - a typed Violation error the protocol controllers panic with instead
//     of a bare string, carrying machine-readable state (cycle, component,
//     address) plus a structured diagnostic dump.
//   - a crash Bundle writer that turns any captured failure into a
//     directory with the config, fault plan, diagnostic, and a replay
//     spec that `swiftdir-sim -replay` re-executes deterministically.
package fault

import (
	"encoding/json"
	"fmt"
)

// Kind classifies a Violation.
type Kind string

const (
	// KindProtocol: a coherence controller observed a state/event pair the
	// protocol's transition relation does not allow.
	KindProtocol Kind = "protocol"
	// KindResource: a bounded structural resource was exhausted past its
	// retry limit (e.g. no evictable LLC way after the stall bound).
	KindResource Kind = "resource"
	// KindLiveness: the watchdog detected no forward progress within its
	// event/cycle budget.
	KindLiveness Kind = "liveness"
	// KindForced: a synthetic violation injected by a fault plan's FailAt
	// trigger, for exercising the capture/replay pipeline itself.
	KindForced Kind = "forced"
	// KindPanic: a captured panic whose value was not already a Violation —
	// an untyped failure wrapped so the bundle pipeline can still record it.
	KindPanic Kind = "panic"
	// KindCancelled: the run was aborted cooperatively — a client hung up,
	// a deadline expired, or a drain requested the stop. Not a simulator
	// failure: the result is simply incomplete, which is exactly why it
	// must never reach the result cache.
	KindCancelled Kind = "cancelled"
)

// Violation is a contained simulator failure: instead of a bare
// panic(fmt.Sprintf(...)) that kills a campaign with only a stack trace,
// the protocol hot paths panic with *Violation, which the campaign fence
// captures and the crash-bundle writer serializes. Cycle, Component, and
// Addr are machine-readable; Dump is the human-readable structured
// diagnostic (pending events, MSHRs, directory transactions, message
// tail) rendered at the instant of failure.
type Violation struct {
	Kind      Kind   `json:"kind"`
	Cycle     uint64 `json:"cycle"`
	Component string `json:"component"`      // "bank 3", "L1 0", "watchdog", "injector"
	Addr      uint64 `json:"addr,omitempty"` // block address, when one is implicated
	Msg       string `json:"msg"`
	Dump      string `json:"dump,omitempty"`
}

// Error implements error. The dump is excluded — it is often thousands of
// characters and belongs in the bundle's diagnostic file, not in a log
// line — but everything needed to identify the failure is present.
func (v *Violation) Error() string {
	if v.Addr != 0 {
		return fmt.Sprintf("fault: %s violation at cycle %d in %s: %s (addr %#x)",
			v.Kind, v.Cycle, v.Component, v.Msg, v.Addr)
	}
	return fmt.Sprintf("fault: %s violation at cycle %d in %s: %s",
		v.Kind, v.Cycle, v.Component, v.Msg)
}

// AsViolation extracts a *Violation from a recovered panic value or a
// wrapped error chain, or returns nil. Campaign panic fences hold the raw
// panic value, so both shapes appear in practice.
func AsViolation(r any) *Violation {
	switch v := r.(type) {
	case *Violation:
		return v
	case Violation:
		return &v
	case error:
		for err := v; err != nil; {
			if vio, ok := err.(*Violation); ok {
				return vio
			}
			u, ok := err.(interface{ Unwrap() error })
			if !ok {
				return nil
			}
			err = u.Unwrap()
		}
	}
	return nil
}

// MarshalIndentJSON renders the violation for a bundle file.
func (v *Violation) MarshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(v, "", "  ")
}
