package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/snoop"
	"repro/internal/stats"
)

// SnoopStudy demonstrates the E/S channel on the other coherence
// architecture the paper describes (§II-A3): bus-based snooping. There the
// timing difference inverts — E/M data are supplied cache-to-cache (fast)
// while S data come from memory (slow) — but it is equally exploitable,
// and SwiftDir's I→S rule closes it the same way: write-protected loads
// are always granted Shared, so the probe latency no longer depends on the
// sender's access pattern. Each protocol's bus is independent, so both
// loops fan out as campaigns.
func SnoopStudy(ctx context.Context, bits int) string {
	var b strings.Builder
	b.WriteString("Snooping-bus study (§II-A3): the channel on the other architecture\n\n")

	snoopProtos := []snoop.Protocol{snoop.MESI, snoop.SwiftDir}

	tb := stats.NewTable("Probe latencies (cycles)",
		"protocol", "after 1 toucher", "after 2 touchers", "gap", "channel")
	var probeJobs []campaign.Job[[]any]
	for _, p := range snoopProtos {
		probeJobs = append(probeJobs, campaign.Job[[]any]{
			Name: "snoop/probe/" + p.String(),
			Run: func() ([]any, error) {
				one := snoop.MustNewSystem(snoop.DefaultConfig(4, p))
				one.Access(1, 0x4000, false, true, 0)
				r1 := one.Access(0, 0x4000, false, true, 0)

				two := snoop.MustNewSystem(snoop.DefaultConfig(4, p))
				two.Access(1, 0x4000, false, true, 0)
				two.Access(2, 0x4000, false, true, 0)
				r2 := two.Access(0, 0x4000, false, true, 0)

				gap := int64(r2.Latency) - int64(r1.Latency)
				verdict := "CLOSED"
				if gap != 0 {
					verdict = "OPEN (inverted: E faster than S)"
				}
				return []any{p.String(), r1.Latency, r2.Latency, gap, verdict}, nil
			},
		})
	}
	for _, row := range campaign.MustCollect(ctx, probeJobs) {
		tb.AddRowF(row...)
	}
	b.WriteString(tb.Render())

	// Covert-channel BER on the snooping bus.
	b.WriteString("\nCovert channel over the snooping bus:\n")
	tm := snoop.DefaultTiming()
	var berJobs []campaign.Job[string]
	for _, p := range snoopProtos {
		berJobs = append(berJobs, campaign.Job[string]{
			Name: "snoop/covert/" + p.String(),
			Run: func() (string, error) {
				s := snoop.MustNewSystem(snoop.DefaultConfig(4, p))
				rng := sim.NewRNG(0x5B)
				threshold := (tm.CacheToCache + tm.Memory) / 2
				errors := 0
				for i := 0; i < bits; i++ {
					line := cache.Addr(0x100000 + i*64)
					bit := rng.Bool(0.5)
					s.Access(1, line, false, true, 0)
					if !bit {
						s.Access(2, line, false, true, 0)
					}
					r := s.Access(0, line, false, true, 0)
					got := r.Latency < tm.L1Tag+tm.Arbitration+tm.Broadcast+tm.SnoopCheck+threshold
					if got != bit {
						errors++
					}
				}
				ber := float64(errors) / float64(bits)
				status := "CHANNEL OPEN"
				if ber > 0.25 {
					status = "CHANNEL CLOSED"
				}
				return fmt.Sprintf("  %-14s BER=%.3f => %s\n", p.String(), ber, status), nil
			},
		})
	}
	for _, line := range campaign.MustCollect(ctx, berJobs) {
		b.WriteString(line)
	}
	return b.String()
}
