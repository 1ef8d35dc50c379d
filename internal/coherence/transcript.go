package coherence

import (
	"fmt"

	"repro/internal/proto"
)

// TransitionRecorder captures every observed controller transition as a
// canonical text line:
//
//	L1(1)  0x000040  S     <- Store             -> SM^A   [StoreShared]
//	Dir    0x000040  DirS  <- Upgrade           -> DirBusy [UpgradeS]
//
// and cross-checks each against the policy's canonical table while
// recording: the (state, event) pair must be Defined or Defensive
// (defensive lines are tagged), and the post-transition state must be
// inside the entry's next-state mask. Violations land in Errs instead of
// panicking so a golden run reports every divergence at once.
//
// The recorder is the System's Observe hook, which fires after each
// dispatch with the receiver's pre- and post-dispatch states, so lines
// appear in completion order (a data grant's line follows the lines of the
// merged accesses it replayed).
type TransitionRecorder struct {
	tab   *proto.Table
	Lines []string
	Errs  []string
}

// AttachRecorder installs a recorder as sys's Observe hook.
func AttachRecorder(sys *System) *TransitionRecorder {
	tr := &TransitionRecorder{tab: sys.Policy.Table()}
	sys.Observe = tr.observe
	return tr
}

// observe validates one transition against the table and appends its
// canonical line.
func (tr *TransitionRecorder) observe(t Transition) {
	var who, state, next, action string
	var class proto.Class
	var nextOK bool
	if t.Ctrl == DirID {
		who = "Dir"
		pre, post := proto.DirState(t.Pre), proto.DirState(t.Post)
		ent := tr.tab.Dir[pre][t.Ev]
		state, next = pre.String(), post.String()
		action, class = ent.Act.String(), ent.Class
		nextOK = proto.HasDir(ent.Next, post)
	} else {
		who = fmt.Sprintf("L1(%d)", t.Ctrl)
		pre, post := proto.L1State(t.Pre), proto.L1State(t.Post)
		ent := tr.tab.L1[pre][t.Ev]
		state, next = pre.String(), post.String()
		action, class = ent.Act.String(), ent.Class
		nextOK = proto.HasL1(ent.Next, post)
	}
	tag := ""
	switch class {
	case proto.Defined:
	case proto.Defensive:
		tag = " (defensive)"
	default:
		tr.errf("%s %#x: (%s, %v) is %v in the %s table",
			who, t.Block, state, t.Ev, class, tr.tab.Policy)
	}
	if !nextOK && (class == proto.Defined || class == proto.Defensive) {
		tr.errf("%s %#x: (%s, %v) -> %s outside the next-state mask",
			who, t.Block, state, t.Ev, next)
	}
	tr.Lines = append(tr.Lines, fmt.Sprintf("%-6s %#08x  %-5s <- %-17s -> %-5s  [%s]%s",
		who, uint64(t.Block), state, t.Ev, next, action, tag))
}

func (tr *TransitionRecorder) errf(format string, args ...any) {
	tr.Errs = append(tr.Errs, fmt.Sprintf(format, args...))
}
