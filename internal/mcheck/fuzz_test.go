package mcheck

import (
	"testing"

	"repro/internal/coherence"
)

// fuzzEnabled mirrors checker.enabled for a live runner: one engine step
// if events are pending, plus every injection respecting the depth and
// per-core outstanding bounds. The fuzzer only ever picks from this set,
// so every fuzzed schedule is a legal schedule the BFS explorer could
// itself have generated — just much longer than any exhaustive bound.
func fuzzEnabled(r *runner, cfg *Config, ops []Op, buf []Action) []Action {
	buf = buf[:0]
	if r.sys.Eng.Pending() > 0 {
		buf = append(buf, stepAction)
	}
	if r.injected < cfg.Depth {
		for core := 0; core < cfg.Cores; core++ {
			if len(r.out[core]) >= cfg.MaxOutstanding {
				continue
			}
			for _, op := range ops {
				for line := 0; line < cfg.Lines; line++ {
					buf = append(buf, Action{
						Core: uint8(core), Op: op, Line: uint8(line),
					})
				}
			}
		}
	}
	return buf
}

// FuzzTableDispatch drives random legal event sequences through the
// table-driven dispatchers and cross-checks every reached state with the
// explorer's full invariant battery: SWMR, data-value/sequential
// consistency, transition-relation membership, next-state masks, and
// deadlock freedom once drained. The first input byte selects the
// policy, so one corpus exercises every shipped table; each remaining
// byte selects one enabled action, so inputs stay meaningful under the
// fuzzer's mutations (no wasted illegal prefixes).
func FuzzTableDispatch(f *testing.F) {
	f.Add(uint8(0), []byte{0})
	f.Add(uint8(1), []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(2), []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9})
	f.Add(uint8(3), []byte{0xFF, 0x00, 0xFF, 0x00, 0xFF, 0x00, 0xFF, 0x00,
		0x7F, 0x3F, 0x1F, 0x0F, 0x07, 0x03, 0x01, 0x00})
	f.Add(uint8(9), []byte{2, 2, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0, 6, 6, 6, 6})

	f.Fuzz(func(t *testing.T, pb uint8, seq []byte) {
		policies := coherence.ExtendedPolicies
		p := policies[int(pb)%len(policies)]
		cfg := Config{Policy: p, Cores: 2, Lines: 2, Depth: 24}
		if err := cfg.fill(); err != nil {
			t.Fatal(err)
		}
		c := newChecker(cfg)
		if len(seq) > 96 {
			seq = seq[:96]
		}

		r := c.newRunner()
		if v := r.checkState(); v != nil {
			t.Fatalf("%s: fresh system: %s", p.Name(), v)
		}
		var taken []Action
		var buf []Action
		for _, b := range seq {
			legal := fuzzEnabled(r, &cfg, c.ops, buf)
			buf = legal
			if len(legal) == 0 {
				break
			}
			a := legal[int(b)%len(legal)]
			r.apply(a)
			taken = append(taken, a)
			if v := r.checkState(); v != nil {
				t.Fatalf("%s: %s\nschedule: %v", p.Name(), v, taken)
			}
		}
		// Drain the engine so the quiescent checks (deadlock freedom,
		// committed-value agreement) run on every input, not only those
		// whose last byte happened to land on an idle system.
		for i := 0; r.sys.Eng.Pending() > 0; i++ {
			if i > 100000 {
				t.Fatalf("%s: engine failed to drain\nschedule: %v", p.Name(), taken)
			}
			r.apply(stepAction)
			if v := r.checkState(); v != nil {
				t.Fatalf("%s: %s\nschedule: %v", p.Name(), v, taken)
			}
		}
	})
}
