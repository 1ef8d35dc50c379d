package coherence

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// TraceEvent is one observed coherence message, for protocol visualization
// and for tests that assert exact transaction structure (the paper's
// Figures 1-4).
type TraceEvent struct {
	When sim.Cycle
	Msg  Msg
	Dst  int // receiving L1 id, or DirID for the directory
}

// endpoint renders an L1 id or the directory for human-readable traces.
func endpoint(id int) string {
	if id == DirID {
		return "LLC/Dir"
	}
	return fmt.Sprintf("L1(%d)", id)
}

// String renders "cycle  src -> dst  Kind addr [flags]".
func (e TraceEvent) String() string {
	var flags []string
	if e.Msg.WP {
		flags = append(flags, "WP")
	}
	if e.Msg.Dirty {
		flags = append(flags, "dirty")
	}
	if e.Msg.Excl {
		flags = append(flags, "excl")
	}
	if e.Msg.FromWB {
		flags = append(flags, "fromWB")
	}
	f := ""
	if len(flags) > 0 {
		f = " [" + strings.Join(flags, ",") + "]"
	}
	return fmt.Sprintf("%6d  %-8s -> %-8s %-17s %#x%s",
		e.When, endpoint(e.Msg.Src), endpoint(e.Dst), e.Msg.Kind.String(), uint64(e.Msg.Addr), f)
}

// Tracer collects coherence messages. Attach with System.AttachTracer.
type Tracer struct {
	Events []TraceEvent
}

// Reset clears collected events.
func (t *Tracer) Reset() { t.Events = nil }

// Kinds returns the message kinds in order, for compact assertions.
func (t *Tracer) Kinds() []MsgKind {
	out := make([]MsgKind, len(t.Events))
	for i, e := range t.Events {
		out[i] = e.Msg.Kind
	}
	return out
}

// KindSeq renders the kinds as a single space-separated string.
func (t *Tracer) KindSeq() string {
	parts := make([]string, len(t.Events))
	for i, e := range t.Events {
		parts[i] = e.Msg.Kind.String()
	}
	return strings.Join(parts, " ")
}

// Render produces a readable transcript.
func (t *Tracer) Render(title string) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	b.WriteString(" cycle  from     -> to       message           block\n")
	b.WriteString(" -----  --------    -------- ----------------- -----\n")
	for _, e := range t.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Count returns how many events of kind were seen.
func (t *Tracer) Count(kind MsgKind) int {
	n := 0
	for _, e := range t.Events {
		if e.Msg.Kind == kind {
			n++
		}
	}
	return n
}

// AttachTracer starts recording every coherence message delivered in the
// system (at delivery time, in delivery order). It returns the tracer;
// pass nil checks aside, a system supports one tracer at a time.
func (s *System) AttachTracer() *Tracer {
	t := &Tracer{}
	s.tracer = t
	return t
}

// DetachTracer stops recording.
func (s *System) DetachTracer() { s.tracer = nil }

// trace records a delivered coherence message at the current cycle.
func (s *System) trace(m Msg, dst int) {
	now := s.Eng.Now()
	s.msgCounts[m.Kind]++
	s.lastMsgs[s.msgPos&(msgTailN-1)] = TraceEvent{When: now, Msg: m, Dst: dst}
	s.msgPos++
	if s.Observe != nil {
		s.Observe(m, dst)
	}
	if s.tracer != nil {
		s.tracer.Events = append(s.tracer.Events, TraceEvent{When: now, Msg: m, Dst: dst})
	}
}

// MsgCount returns how many messages of kind have been delivered since
// construction (coherence traffic accounting).
func (s *System) MsgCount(kind MsgKind) uint64 { return s.msgCounts[kind] }

// TotalMessages returns the total delivered coherence messages.
func (s *System) TotalMessages() uint64 {
	var n uint64
	for _, c := range s.msgCounts {
		n += c
	}
	return n
}
