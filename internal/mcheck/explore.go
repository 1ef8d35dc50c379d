package mcheck

import (
	"fmt"

	"repro/internal/coherence"
)

// checker holds the shared exploration state of one Run.
type checker struct {
	cfg      Config
	sysCfg   coherence.SystemConfig
	observed Cells
	ops      []Op
}

// node is one reached state. The deterministic engine makes the action
// path from the root a complete description of the state, so a node
// stores only its incoming edge plus the tiny summary needed to
// enumerate enabled actions without a replay.
type node struct {
	parent *node
	act    Action
	depth  int32

	injected int16
	pending  bool // engine has pending events (Step is enabled)
	outs     [maxCores]int8
}

// path reconstructs the action sequence from the root to n.
func (n *node) path(buf []Action) []Action {
	buf = buf[:0]
	for m := n; m.parent != nil; m = m.parent {
		buf = append(buf, m.act)
	}
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// enabled lists the actions applicable in n's state: one engine step if
// events are pending, plus every injection that respects the depth and
// per-core outstanding bounds.
func (c *checker) enabled(n *node, buf []Action) []Action {
	buf = buf[:0]
	if n.pending {
		buf = append(buf, stepAction)
	}
	if int(n.injected) < c.cfg.Depth {
		for core := 0; core < c.cfg.Cores; core++ {
			if int(n.outs[core]) >= c.cfg.MaxOutstanding {
				continue
			}
			for _, op := range c.ops {
				for line := 0; line < c.cfg.Lines; line++ {
					buf = append(buf, Action{
						Core: uint8(core), Op: op, Line: uint8(line),
					})
				}
			}
		}
	}
	return buf
}

// summarize fills a node's enabled-action summary from a runner that
// just reached its state.
func summarize(n *node, r *runner) {
	n.injected = int16(r.injected)
	n.pending = r.sys.Eng.Pending() > 0
	for core, outs := range r.out {
		n.outs[core] = int8(len(outs))
	}
}

// explore runs the BFS. It returns a Result with either a violation (at
// minimal action depth, by BFS order) or the exhaustive-state counts.
func (c *checker) explore() *Result {
	res := &Result{}

	root := &node{}
	rootRunner := c.newRunner()
	if v := rootRunner.checkState(); v != nil {
		// A fresh idle system violating an invariant means the harness
		// itself is broken; surface it as a zero-action counterexample.
		res.Violation = c.counterexample(nil, v)
		return res
	}
	summarize(root, rootRunner)

	seen := map[fp]struct{}{c.fingerprint(rootRunner): {}}
	queue := []*node{root}
	res.States = 1
	res.Quiescent = 1

	var pathBuf, actBuf []Action
	for qi := 0; qi < len(queue); qi++ {
		n := queue[qi]
		actions := c.enabled(n, actBuf)
		actBuf = actions // reuse backing array next iteration
		if len(actions) == 0 {
			res.Terminal++
			continue
		}
		pathBuf = n.path(pathBuf)
		for _, a := range actions {
			res.Edges++
			r := c.newRunner()
			for i, pa := range pathBuf {
				r.apply(pa)
				if r.vio != nil {
					// The prefix was violation-free when first explored;
					// a violation during replay means determinism broke.
					res.Violation = c.counterexample(pathBuf[:i+1], &Violation{
						Kind: "nondeterminism",
						Detail: fmt.Sprintf(
							"replayed prefix raised %s (%s); the engine is not deterministic",
							r.vio.Kind, r.vio.Detail),
					})
					return res
				}
			}
			r.apply(a)
			if v := r.checkState(); v != nil {
				trace := append(append([]Action{}, pathBuf...), a)
				res.Violation = c.counterexample(trace, v)
				return res
			}
			f := c.fingerprint(r)
			if _, dup := seen[f]; dup {
				continue
			}
			if len(seen) >= c.cfg.MaxStates {
				res.Truncated = true
				return res
			}
			seen[f] = struct{}{}
			child := &node{parent: n, act: a, depth: n.depth + 1}
			summarize(child, r)
			res.States++
			if !child.pending {
				res.Quiescent++
			}
			if int(child.depth) > res.MaxDepth {
				res.MaxDepth = int(child.depth)
			}
			queue = append(queue, child)
		}
		// Release explored nodes' queue slots for GC; the node itself
		// stays reachable through its children's parent pointers.
		queue[qi] = nil
	}
	return res
}
