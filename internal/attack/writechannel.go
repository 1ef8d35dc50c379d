package attack

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/sim"
)

// WriteChannel implements the deduplication write-timing side channel of
// Bosman et al. (cited by the paper in §II-B): writing a merged
// (deduplicated) page triggers a copy-on-write fault and is an order of
// magnitude slower than writing a private page, so an attacker who writes
// a page of guessed content learns whether some victim held the same
// content. The paper's suggested future-work defense — treating the CoW
// fault as a write miss completed through a write buffer
// (core.Config.FastCoWWrites) — makes the write latency constant and
// closes this channel.
type WriteChannel struct {
	m        *core.Machine
	attacker *core.Process
	attCtx   *core.Context
	victim   *core.Process

	attackerBase mmu.VAddr
	victimBase   mmu.VAddr
	pages        int

	// Threshold separating a plain store from a CoW-faulting store.
	Threshold sim.Cycle
}

// NewWriteChannel builds the scenario: attacker on core 0, victim process
// alongside; trials pages of capacity.
func NewWriteChannel(cfg core.Config, trials int) (*WriteChannel, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("attack: non-positive trial count")
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	attacker := m.NewProcess()
	victim := m.NewProcess()
	w := &WriteChannel{
		m:        m,
		attacker: attacker,
		attCtx:   attacker.AttachContext(0),
		victim:   victim,
		pages:    trials,
	}
	w.attackerBase = attacker.MmapAnon(trials * mmu.PageSize)
	w.victimBase = victim.MmapAnon(trials * mmu.PageSize)
	// Threshold: the CoW path costs at least CoWLatency (or the write
	// buffer under the defense); anything above half the CoW cost reads
	// as "merged".
	w.Threshold = cfg.CoWLatency / 2
	return w, nil
}

// Trial runs one detection round on page i: the attacker guesses that the
// victim holds content K; if victimHasContent, the victim's page indeed
// holds K. After a dedup pass, the attacker writes its own copy and times
// the store.
func (w *WriteChannel) Trial(i int, victimHasContent bool) (detected bool, err error) {
	content := 0xC0_0000 + uint64(i)
	av := w.attackerBase + mmu.VAddr(i)*mmu.PageSize
	vv := w.victimBase + mmu.VAddr(i)*mmu.PageSize
	if err := w.attacker.AS.WritePage(av, content); err != nil {
		return false, err
	}
	victimContent := content
	if !victimHasContent {
		victimContent = ^content // distinct content: no merge
	}
	if err := w.victim.AS.WritePage(vv, victimContent); err != nil {
		return false, err
	}
	// The dedup daemon runs; merged pages are write-protected and the
	// TLBs shot down.
	w.m.KSM.Scan()
	w.attCtx.DTLB.Flush()

	// Warm the attacker's read path so only the write fault matters.
	if _, err := w.attCtx.AccessSync(av, false, 0); err != nil {
		return false, err
	}
	r, err := w.attCtx.AccessSync(av, true, 0xDEAD)
	if err != nil {
		return false, err
	}
	return r.Latency > w.Threshold, nil
}

// Run performs trials rounds with randomized victim behaviour and returns
// the inference accuracy.
func (w *WriteChannel) Run(seed uint64) (SideResult, error) {
	protocol := w.m.Cfg.Protocol.Name()
	if w.m.Cfg.FastCoWWrites {
		protocol += "+FastCoW"
	}
	return infer(protocol, w.pages, seed, w.Trial)
}
