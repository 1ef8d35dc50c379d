package mcheck

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/proto"
)

// Violation is one invariant failure.
type Violation struct {
	Kind   string // "panic", "swmr", "wp-exclusive", "data-value", "deadlock", "invariant", "unexpected-transition", "next-state"
	Detail string
}

func (v *Violation) Error() string { return v.Kind + ": " + v.Detail }

// pendAcc is the specification's view of one injected, not-yet-completed
// access.
type pendAcc struct {
	core  int
	line  int
	op    Op
	token uint64 // the value a store commits

	// legal is the set of values a load may return: the value committed
	// when it was injected, plus every value committed while it was
	// outstanding (any of them is a sequentially consistent outcome).
	legal map[uint64]bool
}

// runner executes one action sequence against a fresh system, tracking
// the value specification and recording transitions. It is single-use:
// the only way to "rewind" is to build a new runner and replay.
type runner struct {
	cfg   *Config
	sys   *coherence.System
	addrs []cache.Addr

	committed []uint64     // per line: last committed store value
	out       [][]*pendAcc // per core: outstanding accesses in issue order
	perCore   []int        // per core: accesses injected so far (token stream)
	injected  int

	table    *Table
	observed map[Pair]bool // shared across runners

	vio *Violation // first violation raised
}

// tokenFor derives the unique value core's idx-th store writes. The bias
// keeps tokens disjoint from the address-derived initial tokens.
func tokenFor(core, idx int) uint64 {
	return 0xA0000000 + uint64(core)<<16 + uint64(idx)
}

func (c *checker) newRunner() *runner {
	sys := coherence.MustNewSystem(c.sysCfg)
	r := &runner{
		cfg:       &c.cfg,
		sys:       sys,
		addrs:     make([]cache.Addr, c.cfg.Lines),
		committed: make([]uint64, c.cfg.Lines),
		out:       make([][]*pendAcc, c.cfg.Cores),
		perCore:   make([]int, c.cfg.Cores),
		table:     c.table,
		observed:  c.observed,
	}
	for i := range r.addrs {
		r.addrs[i] = cache.Addr(i * blockBytes)
		r.committed[i] = coherence.InitialToken(r.addrs[i])
	}
	sys.Observe = r.observe
	r.runPrelude(c.cfg.Prelude)
	return r
}

// runPrelude executes the directed setup sequence, draining the engine
// after each access so exploration starts from a stable prepared state.
// Prelude accesses go through the same inject/complete machinery (so the
// value specification and transition recording see them), but do not
// count against the exploration depth budget.
func (r *runner) runPrelude(pre []Inject) {
	defer func() {
		if p := recover(); p != nil {
			r.fail("panic", fmt.Sprintf("controller panic in prelude: %v", p))
		}
	}()
	for _, in := range pre {
		r.inject(Action{Core: uint8(in.Core), Op: in.Op, Line: uint8(in.Line)})
		r.sys.Quiesce()
		if r.vio != nil {
			return
		}
	}
	r.injected = 0 // prelude accesses are free; Depth bounds exploration only
}

func (r *runner) fail(kind, detail string) {
	if r.vio == nil {
		r.vio = &Violation{Kind: kind, Detail: detail}
	}
}

// apply executes one action. Controller panics (protocol assertion
// failures, e.g. an Unblock with no transaction) are converted into
// violations rather than crashing the search.
func (r *runner) apply(a Action) {
	defer func() {
		if p := recover(); p != nil {
			r.fail("panic", fmt.Sprintf("controller panic: %v", p))
		}
	}()
	if a.Step {
		r.sys.Eng.Step()
		return
	}
	r.inject(a)
}

func (r *runner) inject(a Action) {
	core, line := int(a.Core), int(a.Line)
	pa := &pendAcc{
		core: core,
		line: line,
		op:   a.Op,
	}
	acc := coherence.Access{Addr: r.addrs[line]}
	switch a.Op {
	case OpStore:
		pa.token = tokenFor(core, r.perCore[core])
		acc.Write = true
		acc.Value = pa.token
	case OpLoadWP:
		acc.WP = true
		fallthrough
	case OpLoad:
		pa.legal = map[uint64]bool{r.committed[line]: true}
	}
	acc.Done = func(res coherence.AccessResult) { r.complete(pa, res) }
	r.perCore[core]++
	r.injected++
	r.out[core] = append(r.out[core], pa)
	r.sys.Submit(core, acc)
}

// complete is the Done callback: it retires the access from the
// outstanding set, commits store values, and checks loads against their
// legal value sets.
func (r *runner) complete(pa *pendAcc, res coherence.AccessResult) {
	lst := r.out[pa.core]
	for i, q := range lst {
		if q == pa {
			r.out[pa.core] = append(lst[:i], lst[i+1:]...)
			break
		}
	}
	if pa.op == OpStore {
		if res.Value != pa.token {
			r.fail("data-value", fmt.Sprintf(
				"core%d store x%d: completed with value %#x, stored %#x",
				pa.core, pa.line, res.Value, pa.token))
			return
		}
		// The store is now the committed value; every load still in
		// flight anywhere may legally observe it.
		r.committed[pa.line] = pa.token
		for _, outs := range r.out {
			for _, q := range outs {
				if q.line == pa.line && q.legal != nil {
					q.legal[pa.token] = true
				}
			}
		}
		return
	}
	if !pa.legal[res.Value] {
		r.fail("data-value", fmt.Sprintf(
			"core%d %s x%d returned %#x; legal values %s",
			pa.core, pa.op, pa.line, res.Value, fmtTokens(pa.legal)))
	}
}

func fmtTokens(set map[uint64]bool) string {
	keys := make([]uint64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%#x", k)
	}
	return s + "}"
}

// observe is the System.Observe hook, fired after every dispatch: it
// records the receiver's pre-dispatch (state, event) pair, checks it for
// membership in the Defined relation, and checks the post-dispatch state
// against the table cell's next-state mask. An Illegal or Impossible pair
// never reaches the hook: dispatch raises a protocol violation first.
func (r *runner) observe(t coherence.Transition) {
	pt := r.table.Proto
	if t.Ctrl == coherence.DirID {
		pre, post := proto.DirState(t.Pre), proto.DirState(t.Post)
		r.record(Pair{CtrlDir, pre.String(), t.Ev.String()})
		if !proto.HasDir(pt.Dir[pre][t.Ev].Next, post) {
			r.fail("next-state", fmt.Sprintf(
				"Dir[%s] <- %s dispatched to %s, outside the %s next-state mask",
				pre, t.Ev, post, r.table.Policy))
		}
		return
	}
	pre, post := proto.L1State(t.Pre), proto.L1State(t.Post)
	r.record(Pair{CtrlL1, pre.String(), t.Ev.String()})
	if !proto.HasL1(pt.L1[pre][t.Ev].Next, post) {
		r.fail("next-state", fmt.Sprintf(
			"L1(%d)[%s] <- %s dispatched to %s, outside the %s next-state mask",
			t.Ctrl, pre, t.Ev, post, r.table.Policy))
	}
}

func (r *runner) record(p Pair) {
	r.observed[p] = true
	if !r.table.Allowed[p] {
		r.fail("unexpected-transition", fmt.Sprintf(
			"%s not in the %s transition relation", p, r.table.Policy))
	}
}

// checkState runs the per-state invariants after an action.
func (r *runner) checkState() *Violation {
	if r.vio != nil {
		return r.vio
	}
	r.checkSWMR()
	if r.vio == nil && r.sys.Eng.Pending() == 0 {
		r.checkQuiescent()
	}
	return r.vio
}

// checkSWMR enforces single-writer/multiple-reader in EVERY state, not
// just quiescent ones: at most one copy in an exclusive-like state
// (E/M/O), and no writer-capable copy alongside any other copy. A copy
// is writer-capable if it can be written without a directory round trip:
// M always, E iff the policy allows silent upgrades for it. (An E copy
// coexisting with fresh S copies is legal mid-serve for S-MESI, where E
// is read-only until an explicit upgrade; an O copy coexists with the
// sharers it supplies by design — MOESI stores on O pay an explicit
// Upgrade, so O is dirty but not writer-capable.)
func (r *runner) checkSWMR() {
	for li, addr := range r.addrs {
		var exclusive, copies, forwards int
		writers := 0
		for id := range r.sys.L1s {
			ln := r.sys.L1s[id].Array().Lookup(addr)
			if ln == nil {
				continue
			}
			copies++
			switch ln.State {
			case cache.Exclusive:
				exclusive++
				if r.cfg.Policy.SilentUpgrade(ln.WP) {
					writers++
				}
			case cache.Modified:
				exclusive++
				writers++
			case cache.Owned:
				exclusive++
			case cache.Forward:
				forwards++
			}
		}
		if exclusive > 1 {
			r.fail("swmr", fmt.Sprintf(
				"x%d: %d exclusive-like (E/M/O) copies", li, exclusive))
			return
		}
		if forwards > 1 {
			r.fail("swmr", fmt.Sprintf("x%d: %d Forward copies", li, forwards))
			return
		}
		if writers > 0 && copies > 1 {
			r.fail("swmr", fmt.Sprintf(
				"x%d: writer-capable copy coexists with %d other copies",
				li, copies-1))
			return
		}
		// SwiftDir's security invariant, checked in every state: a
		// policy that refuses exclusive grants for write-protected data
		// must never produce a non-Shared write-protected line (the same
		// predicate System.CheckInvariants applies at quiescence).
		if !r.cfg.Policy.GrantExclusiveOnLoad(true) {
			for id := range r.sys.L1s {
				ln := r.sys.L1s[id].Array().Lookup(addr)
				if ln != nil && ln.WP && ln.State != cache.Shared {
					r.fail("wp-exclusive", fmt.Sprintf(
						"x%d: write-protected line in %s at L1(%d)",
						li, ln.State, id))
					return
				}
			}
		}
	}
}

// checkQuiescent runs when the engine has drained: every access must
// have completed (deadlock freedom), the system's own structural
// invariants must hold, and every surviving copy must equal the
// committed value.
func (r *runner) checkQuiescent() {
	for core, outs := range r.out {
		if len(outs) > 0 {
			pa := outs[0]
			r.fail("deadlock", fmt.Sprintf(
				"engine drained with core%d %s x%d incomplete (%d outstanding total)",
				core, pa.op, pa.line, r.totalOut()))
			return
		}
	}
	if err := r.sys.CheckInvariants(); err != nil {
		r.fail("invariant", err.Error())
		return
	}
	for li, addr := range r.addrs {
		want := r.committed[li]
		for id := range r.sys.L1s {
			if ln := r.sys.L1s[id].Array().Lookup(addr); ln != nil && ln.Data != want {
				r.fail("data-value", fmt.Sprintf(
					"quiescent: L1(%d) holds x%d=%#x, committed %#x",
					id, li, ln.Data, want))
				return
			}
		}
		if e, ok := r.sys.DirEntryOf(addr); ok {
			// With no L1 writer (DirP/DirS) the LLC copy must be
			// current; under DirE/DirM/DirO a dirty L1 copy may have
			// left it stale, which the checks above already cover.
			if e.State == coherence.DirPresent || e.State == coherence.DirShared {
				ln := r.sys.BankArray(0).Lookup(addr)
				if ln == nil {
					r.fail("invariant", fmt.Sprintf(
						"quiescent: x%d has a directory entry but no LLC line", li))
					return
				}
				if ln.Data != want {
					r.fail("data-value", fmt.Sprintf(
						"quiescent: LLC holds x%d=%#x, committed %#x",
						li, ln.Data, want))
					return
				}
			}
		} else if got := r.sys.MemRead(addr); got != want {
			r.fail("data-value", fmt.Sprintf(
				"quiescent: memory holds x%d=%#x, committed %#x", li, got, want))
			return
		}
	}
}

func (r *runner) totalOut() int {
	n := 0
	for _, outs := range r.out {
		n += len(outs)
	}
	return n
}
