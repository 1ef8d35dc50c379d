package attack

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/sim"
)

// SideChannel implements the access-detection side channel of §II-B: two
// colluding attacker threads bracket a victim's execution interval and
// infer whether the victim touched a shared line.
//
//  1. attacker thread 1 accesses the victim line (E under MESI);
//  2. the victim may or may not access its own mapping of the line
//     (E -> S if it does);
//  3. attacker thread 2 times an access: fast (LLC, S) means the victim
//     was there; slow (three-hop, E) means it was not.
//
// Such probes are the primitive behind website-fingerprinting, password-
// hash leakage, and ASLR breaks cited by the paper.
type SideChannel struct {
	attacker1 *core.Context
	attacker2 *core.Context
	victim    *core.Context

	attackerBase mmu.VAddr
	victimBase   mmu.VAddr

	Threshold sim.Cycle
	m         *core.Machine
}

// NewSideChannel builds the scenario on a fresh machine (needs >=3 cores:
// two attacker threads and the victim).
func NewSideChannel(cfg core.Config, trials int) (*SideChannel, error) {
	pt, err := newParties(cfg, trials)
	if err != nil {
		return nil, err
	}
	lib := mmu.NewFile("libvictim.so", 0x51DE)
	return &SideChannel{
		attacker1:    pt.p0,
		attacker2:    pt.p1,
		victim:       pt.q2,
		attackerBase: pt.p.MmapLibrary(lib, pt.length),
		victimBase:   pt.q.MmapLibrary(lib, pt.length),
		Threshold:    pt.threshold,
		m:            pt.m,
	}, nil
}

// Trial runs one detection round on line i. victimAccesses controls
// whether the victim touches the line during the interval. It returns the
// attacker's verdict.
func (s *SideChannel) Trial(i int, victimAccesses bool) (detected bool, err error) {
	// Prime.
	if _, err := s.attacker1.AccessSync(lineAddr(s.attackerBase, i), false, 0); err != nil {
		return false, err
	}
	// Victim's interval.
	if victimAccesses {
		if _, err := s.victim.AccessSync(lineAddr(s.victimBase, i), false, 0); err != nil {
			return false, err
		}
	}
	// Probe from the second attacker thread.
	if _, err := s.attacker2.AccessSync(pageAddr(s.attackerBase, i), false, 0); err != nil {
		return false, err
	}
	r, err := s.attacker2.AccessSync(lineAddr(s.attackerBase, i), false, 0)
	if err != nil {
		return false, err
	}
	// Fast (LLC) => the line was Shared => the victim accessed it.
	return r.Latency <= s.Threshold, nil
}

// SideResult summarizes a side-channel run.
type SideResult struct {
	Protocol string
	Trials   int
	Correct  int
	Accuracy float64 // 1.0 = perfect inference; ~0.5 = defended
	Works    bool
}

// Run performs trials rounds with randomized victim behaviour.
func (s *SideChannel) Run(trials int, seed uint64) (SideResult, error) {
	return infer(s.m.Cfg.Protocol.Name(), trials, seed, s.Trial)
}

// infer runs trials detection rounds, victim behaviour drawn from seed:
// trial(i, victim) plays round i, in which the victim acts if victim is
// true, and returns the attacker's verdict. The result scores the
// verdicts against the truth.
func infer(protocol string, trials int, seed uint64, trial func(i int, victim bool) (bool, error)) (SideResult, error) {
	rng := sim.NewRNG(seed)
	res := SideResult{Protocol: protocol, Trials: trials}
	for i := 0; i < trials; i++ {
		truth := rng.Bool(0.5)
		got, err := trial(i, truth)
		if err != nil {
			return res, err
		}
		if got == truth {
			res.Correct++
		}
	}
	res.Accuracy = float64(res.Correct) / float64(trials)
	res.Works = res.Accuracy > 0.75
	return res, nil
}

// Describe renders the result for reports.
func (r SideResult) Describe() string {
	status := "DEFENDED (inference at chance)"
	if r.Works {
		status = "VULNERABLE (victim behaviour inferred)"
	}
	return fmt.Sprintf("%-9s trials=%d correct=%d accuracy=%.3f => %s",
		r.Protocol, r.Trials, r.Correct, r.Accuracy, status)
}
