package coherence_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Coherence-level litmus tests. Each hardware thread issues its accesses
// in program order (the next access is submitted from the previous one's
// completion callback), so any relaxation observed here would be a
// protocol bug, not a memory-model artifact: per-location coherence
// (CoRR), write atomicity (IRIW), and store visibility (MP, SB) must all
// hold on every protocol, with and without network timing fuzz.

const (
	litmusX = cache.Addr(0x1000)
	litmusY = cache.Addr(0x9040) // different block, different bank
	tokenW  = uint64(1)          // distinguishable from initialToken values
)

// litmusSystem builds the litmus machine. A nonzero jitterSeed fuzzes
// its timing: a link spike on every message holds the crossbar ports 1..5
// cycles longer, preserving each port pair's delivery order.
func litmusSystem(t *testing.T, p coherence.Policy, jitterSeed uint64) *coherence.System {
	t.Helper()
	cfg := coherence.SystemConfig{
		NumL1:     4,
		L1Params:  cache.Params{Name: "L1", SizeBytes: 4 << 10, Ways: 2, BlockSize: 64},
		LLCParams: cache.Params{Name: "LLC", SizeBytes: 64 << 10, Ways: 8, BlockSize: 64},
		Banks:     2,
		Timing:    coherence.DefaultTiming(),
		Policy:    p,
		DRAM:      dram.DDR3_1600_8x8(),
	}
	if jitterSeed != 0 {
		cfg.Faults = fault.MustNewInjector(fault.Plan{Name: "jitter", Seed: jitterSeed, LinkSpikeProb: 1, LinkSpikeMax: 5})
	}
	return coherence.MustNewSystem(cfg)
}

type litmusOp struct {
	addr  cache.Addr
	write bool
	value uint64
}

// runSeq issues ops on port strictly in program order starting after
// delay, appending each load's observed value to out.
func runSeq(s *coherence.System, port int, delay sim.Cycle, ops []litmusOp, out *[]uint64) {
	var issue func(i int)
	issue = func(i int) {
		if i >= len(ops) {
			return
		}
		op := ops[i]
		s.Submit(port, coherence.Access{
			Addr: op.addr, Write: op.write, Value: op.value,
			Done: func(r coherence.AccessResult) {
				if !op.write {
					*out = append(*out, r.Value)
				}
				issue(i + 1)
			},
		})
	}
	s.Eng.Schedule(delay, func() { issue(0) })
}

// TestLitmusMP: writer stores data then flag; reader polls flag and,
// once it observes the flag store, must observe the data store too.
func TestLitmusMP(t *testing.T) {
	for _, p := range coherence.AllPolicies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			rng := sim.NewRNG(0x11717)
			for trial := 0; trial < 40; trial++ {
				var jitter uint64
				if trial%2 == 1 {
					jitter = uint64(trial)
				}
				s := litmusSystem(t, p, jitter)
				wDelay := sim.Cycle(rng.Intn(80))
				rDelay := sim.Cycle(rng.Intn(80))

				runSeq(s, 0, wDelay, []litmusOp{
					{addr: litmusX, write: true, value: tokenW},
					{addr: litmusY, write: true, value: tokenW},
				}, nil)

				var data uint64
				sawFlag := false
				polls := 0
				var poll func()
				poll = func() {
					polls++
					if polls > 10000 {
						t.Fatal("reader never observed the flag store")
					}
					s.Submit(1, coherence.Access{Addr: litmusY, Done: func(r coherence.AccessResult) {
						if r.Value != tokenW {
							s.Eng.Schedule(1, poll)
							return
						}
						sawFlag = true
						s.Submit(1, coherence.Access{Addr: litmusX, Done: func(r coherence.AccessResult) {
							data = r.Value
						}})
					}})
				}
				s.Eng.Schedule(rDelay, poll)
				s.Quiesce()

				if !sawFlag {
					t.Fatalf("trial %d: flag store lost", trial)
				}
				if data != tokenW {
					t.Fatalf("trial %d: flag observed but data stale (%#x)", trial, data)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		})
	}
}

// TestLitmusSB: store buffering. With per-access completion ordering,
// at least one of the two cross-reads must observe the other thread's
// store (both-stale is forbidden).
func TestLitmusSB(t *testing.T) {
	for _, p := range coherence.AllPolicies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			rng := sim.NewRNG(0x5B5B)
			for trial := 0; trial < 40; trial++ {
				var jitter uint64
				if trial%2 == 0 {
					jitter = uint64(trial + 1)
				}
				s := litmusSystem(t, p, jitter)
				var r0, r1 []uint64
				runSeq(s, 0, sim.Cycle(rng.Intn(40)), []litmusOp{
					{addr: litmusX, write: true, value: tokenW},
					{addr: litmusY},
				}, &r0)
				runSeq(s, 1, sim.Cycle(rng.Intn(40)), []litmusOp{
					{addr: litmusY, write: true, value: tokenW},
					{addr: litmusX},
				}, &r1)
				s.Quiesce()

				if len(r0) != 1 || len(r1) != 1 {
					t.Fatalf("trial %d: loads did not complete (%d, %d)", trial, len(r0), len(r1))
				}
				if r0[0] != tokenW && r1[0] != tokenW {
					t.Fatalf("trial %d: both threads read stale values (%#x, %#x) — store visibility violated",
						trial, r0[0], r1[0])
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		})
	}
}

// TestLitmusCoRR: per-location coherence — a thread reading the same
// block twice must never observe the new value then the old one, no
// matter how a concurrent writer's store lands between the reads.
func TestLitmusCoRR(t *testing.T) {
	for _, p := range coherence.AllPolicies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			rng := sim.NewRNG(0xC0BB)
			for trial := 0; trial < 60; trial++ {
				var jitter uint64
				if trial%3 == 0 {
					jitter = uint64(trial + 7)
				}
				s := litmusSystem(t, p, jitter)
				runSeq(s, 2, sim.Cycle(rng.Intn(120)), []litmusOp{
					{addr: litmusX, write: true, value: tokenW},
				}, nil)
				var reads []uint64
				runSeq(s, 3, sim.Cycle(rng.Intn(120)), []litmusOp{
					{addr: litmusX}, {addr: litmusX}, {addr: litmusX},
				}, &reads)
				s.Quiesce()

				if len(reads) != 3 {
					t.Fatalf("trial %d: reads incomplete", trial)
				}
				seenNew := false
				for i, v := range reads {
					if v == tokenW {
						seenNew = true
					} else if seenNew {
						t.Fatalf("trial %d: read %d went back in time: %v", trial, i, reads)
					}
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		})
	}
}

// TestLitmusIRIW: write atomicity — two readers must agree on the order
// in which two independent writers' stores become visible. Observing
// (x new, y old) on one reader and (y new, x old) on the other would
// mean the stores propagated in different orders to different cores.
func TestLitmusIRIW(t *testing.T) {
	for _, p := range coherence.AllPolicies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			rng := sim.NewRNG(0x141F)
			for trial := 0; trial < 40; trial++ {
				var jitter uint64
				if trial%2 == 1 {
					jitter = uint64(trial * 3)
				}
				s := litmusSystem(t, p, jitter)
				runSeq(s, 0, sim.Cycle(rng.Intn(60)), []litmusOp{{addr: litmusX, write: true, value: tokenW}}, nil)
				runSeq(s, 1, sim.Cycle(rng.Intn(60)), []litmusOp{{addr: litmusY, write: true, value: tokenW}}, nil)
				var ra, rb []uint64
				runSeq(s, 2, sim.Cycle(rng.Intn(60)), []litmusOp{{addr: litmusX}, {addr: litmusY}}, &ra)
				runSeq(s, 3, sim.Cycle(rng.Intn(60)), []litmusOp{{addr: litmusY}, {addr: litmusX}}, &rb)
				s.Quiesce()

				if len(ra) != 2 || len(rb) != 2 {
					t.Fatalf("trial %d: reads incomplete", trial)
				}
				aForward := ra[0] == tokenW && ra[1] != tokenW // saw x before y
				bForward := rb[0] == tokenW && rb[1] != tokenW // saw y before x
				if aForward && bForward {
					t.Fatalf("trial %d: readers disagree on store order: ra=%v rb=%v", trial, ra, rb)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		})
	}
}
