package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/stats"
)

// Arbitration evaluates Phase-Priority, the policy added to demonstrate
// the table-driven engine: its transition relation is MESI's verbatim —
// the same internal/proto table drives dispatch and the model checker —
// and the only new behavior is a bank-queue discipline that replays
// queued Upgrades ahead of GETX ahead of loads when a busy block
// completes. The study shows (1) arbitration is security-neutral: the
// E/S covert channel stays exactly as open as MESI's, because the leak
// is in the transition relation, not the service order; and (2) under
// writer/reader contention the discipline shortens store latency by
// letting pending owners drain before the next wave of readers re-shares
// the line.
func Arbitration(ctx context.Context, bits int) string {
	var b strings.Builder
	b.WriteString("Phase-priority directory arbitration (table-shared MESI variant)\n\n")

	// 1. Security: reordering the bank queue neither opens nor closes
	// the channel — Phase-Priority leaks like MESI, SwiftDir still does
	// not. Protection lives in the transition relation alone.
	b.WriteString("Covert channel (arbitration is security-orthogonal):\n")
	protos := []coherence.Policy{coherence.MESI, coherence.PhasePriority, coherence.SwiftDir}
	for _, line := range campaign.MustCollect(ctx, 0, covertJobs(protos, "arbitration", bits, 0x9AB)) {
		b.WriteString(line)
	}

	// 2. Contended hot line: each round a non-owning writer opens a long
	// busy window (its GETX needs the old owner's copy forwarded), the
	// two readers queue GETS behind it, and the freshly invalidated old
	// owner re-stores last. FIFO serves the reads first and makes the
	// late store wait out two full service rounds; phase-priority
	// promotes it ahead of the queued reads.
	b.WriteString("\nContended hot-line mix (2 writers + 2 readers, 96 rounds):\n")
	tb := stats.NewTable("", "protocol", "cycles", "mean store lat", "queued wakeups", "promotions")
	var jobs []campaign.Job[[]any]
	for _, p := range []coherence.Policy{coherence.MESI, coherence.PhasePriority} {
		jobs = append(jobs, campaign.Job[[]any]{
			Name: "arbitration/contended/" + p.Name(),
			Run: func() ([]any, error) {
				return contendedMix(p, 96), nil
			},
		})
	}
	for _, row := range campaign.MustCollect(ctx, 0, jobs) {
		tb.AddRowF(row...)
	}
	b.WriteString(tb.Render())
	b.WriteString("\nPromotions count queued requests the arbiter replayed ahead of an\n")
	b.WriteString("earlier arrival; they are zero unless the policy installs a queue\n")
	b.WriteString("discipline. Both runs dispatch from the same proto table MESI uses,\n")
	b.WriteString("so mcheck's proof of MESI's relation covers Phase-Priority for free.\n")
	return b.String()
}

// contendedMix runs the writer/reader contention loop under p and
// returns the report row: protocol, total cycles, mean store latency,
// queued wakeups, and arbiter promotions.
func contendedMix(p coherence.Policy, rounds int) []any {
	cfg := core.DefaultConfig(4, p)
	s := coherence.MustNewSystem(coherence.SystemConfig{
		NumL1:     4,
		L1Params:  cfg.L1,
		LLCParams: cfg.L2Bank,
		Banks:     1, // one bank so every access contends on one queue
		Timing:    coherence.DefaultTiming(),
		Policy:    p,
		DRAM:      cfg.DRAM,
	})
	const a = cache.Addr(0x200040)
	var storeLat, stores, token uint64
	record := func(res coherence.AccessResult) {
		storeLat += uint64(res.Latency)
		stores++
	}
	// Warm past DRAM and leave core 1 the M owner.
	token++
	s.AccessSync(1, a, true, false, token)
	start := s.Eng.Now()
	owner := 1
	for r := 0; r < rounds; r++ {
		w := 1 - owner
		old := owner
		// t+0: the non-owner's GETX opens the busy window (the dir must
		// recall/forward the old owner's modified copy).
		token++
		s.Submit(w, coherence.Access{Addr: a, Write: true, Value: token, Done: record})
		// t+10: both readers (invalidated last round) queue GETS behind
		// the busy block.
		s.Eng.Schedule(10, func() {
			s.Submit(2, coherence.Access{Addr: a})
			s.Submit(3, coherence.Access{Addr: a})
		})
		// t+24: the old owner, by now invalidated by the forward, stores
		// again; its GETX arrives after the queued reads. FIFO serves it
		// last; phase-priority replays it first.
		tk := token + 1
		token++
		s.Eng.Schedule(24, func() {
			s.Submit(old, coherence.Access{Addr: a, Write: true, Value: tk, Done: record})
		})
		s.Quiesce()
		// Reset to a clean M copy at this round's first writer so the
		// next round re-runs the same race with the roles swapped.
		owner = w
		token++
		s.AccessSync(owner, a, true, false, token)
	}
	s.Quiesce()
	return []any{
		p.Name(),
		int(s.Eng.Now() - start),
		fmt.Sprintf("%.1f", float64(storeLat)/float64(stores)),
		s.BankStatsTotal().QueuedWakeups,
		s.ArbPromotions(),
	}
}
