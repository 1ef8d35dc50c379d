package mcheck

import (
	"fmt"
	"strings"
)

// Counterexample is a minimal action schedule reaching a violating
// state, plus the message transcript of replaying it through the real
// controllers (via the coherence trace machinery).
type Counterexample struct {
	Violation Violation
	Policy    string
	Actions   []Action
	Trace     string // rendered message transcript of the replay
}

// Script renders the schedule one action per line, numbered.
func (cx *Counterexample) Script() string {
	var b strings.Builder
	for i, a := range cx.Actions {
		fmt.Fprintf(&b, "%3d. %s\n", i+1, a)
	}
	return b.String()
}

// String renders the full report: violation, schedule, transcript.
func (cx *Counterexample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "counterexample for %s (%d actions)\n", cx.Policy, len(cx.Actions))
	fmt.Fprintf(&b, "violation: %s: %s\n\n", cx.Violation.Kind, cx.Violation.Detail)
	b.WriteString("schedule:\n")
	b.WriteString(cx.Script())
	b.WriteByte('\n')
	b.WriteString(cx.Trace)
	return b.String()
}

// counterexample replays the violating schedule with a tracer attached
// and packages the transcript. The replay tolerates the final action
// panicking (the trace still holds every message delivered before it).
func (c *checker) counterexample(actions []Action, v *Violation) *Counterexample {
	r := c.newRunner()
	// The replay must not double-report into the shared observation
	// state, and needs no table checks (we want the transcript up to and
	// including the bad delivery).
	r.sys.Observe = nil
	tr := r.sys.AttachTracer()
	for _, a := range actions {
		r.apply(a)
	}
	return &Counterexample{
		Violation: *v,
		Policy:    c.cfg.Policy.Name(),
		Actions:   append([]Action{}, actions...),
		Trace: tr.Render(fmt.Sprintf("message transcript (%s, %d actions):",
			c.cfg.Policy.Name(), len(actions))),
	}
}
