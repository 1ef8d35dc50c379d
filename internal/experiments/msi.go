package experiments

import (
	"context"
	"strings"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MSIStudy evaluates the naive fix the paper's design implicitly argues
// against: closing the E/S channel by dropping the Exclusive state
// altogether (plain MSI). MSI is exactly as secure as SwiftDir — there is
// no E to distinguish — but it taxes *every* private read-then-write with
// an Upgrade round trip, for all data, forever. S-MESI narrows that tax
// to first-write-after-read; SwiftDir narrows it to zero by scoping the
// state change to data that cannot be written at all.
func MSIStudy(ctx context.Context, bits, passes int) string {
	protos := []coherence.Policy{coherence.MESI, coherence.MSI, coherence.SMESI, coherence.SwiftDir}
	var b strings.Builder
	b.WriteString("MSI baseline: dropping the E state vs scoping it (SwiftDir)\n\n")

	// 1. Security: all three defenses close the covert channel.
	b.WriteString("Covert channel:\n")
	for _, line := range campaign.MustCollect(ctx, covertJobs(protos, "msi", bits, 0x351)) {
		b.WriteString(line)
	}

	// 2. The private read-then-write tax: N private lines, load then
	// store each. MESI and SwiftDir upgrade silently; MSI and S-MESI pay
	// a round trip per line.
	b.WriteString("\nPrivate read-then-write microbenchmark (128 lines):\n")
	tb := stats.NewTable("", "protocol", "cycles", "Upgrade msgs", "silent upgrades")
	var rmwJobs []campaign.Job[[]any]
	for _, p := range protos {
		rmwJobs = append(rmwJobs, campaign.Job[[]any]{
			Name: "msi/rmw/" + p.Name(),
			Run: func() ([]any, error) {
				sys, cycles := privateRMW(p, 128)
				return []any{p.Name(), cycles,
					sys.MsgCount(coherence.MsgUpgrade),
					sys.L1s[0].Stats.SilentUpgrades}, nil
			},
		})
	}
	for _, row := range campaign.MustCollect(ctx, rmwJobs) {
		tb.AddRowF(row...)
	}
	b.WriteString(tb.Render())

	// 3. WAR applications (Figure 10's workloads) with MSI added.
	b.WriteString("\nWAR execution time normalized to MESI (DerivO3CPU):\n")
	wt := stats.NewTable("", "application", "MESI", "MSI", "S-MESI", "SwiftDir")
	apps := workload.WARApps()
	warProtos := []coherence.Policy{coherence.MESI, coherence.MSI, coherence.SMESI, coherence.SwiftDir}
	metrics := warMetrics(ctx, "msi", apps, warProtos, workload.DerivO3CPU, passes)
	for i, app := range apps {
		wt.AddRowF(normalizedWARRow(app.Name, metrics[i*len(warProtos):(i+1)*len(warProtos)])...)
	}
	b.WriteString(wt.Render())
	b.WriteString("\nMSI buys MESI-grade security at S-MESI-grade (or worse) cost, paid on\n")
	b.WriteString("all data; SwiftDir pays nothing because the protected data are exactly\n")
	b.WriteString("those that cannot be written.\n")
	return b.String()
}

// privateRMW loads then stores n private lines on core 0 and returns the
// quiesced system plus total cycles.
func privateRMW(p coherence.Policy, n int) (*coherence.System, int) {
	cfg := core.DefaultConfig(2, p)
	s := coherence.MustNewSystem(coherence.SystemConfig{
		NumL1:     2,
		L1Params:  cfg.L1,
		LLCParams: cfg.L2Bank,
		Banks:     2,
		Timing:    coherence.DefaultTiming(),
		Policy:    p,
		DRAM:      cfg.DRAM,
	})
	total := 0
	for i := 0; i < n; i++ {
		addr := cache.Addr(0x400000 + i*64)
		// Warm past DRAM so the comparison isolates coherence cost.
		s.AccessSync(0, addr, false, false, 0)
	}
	for i := 0; i < n; i++ {
		addr := cache.Addr(0x400000 + i*64)
		r := s.AccessSync(0, addr, false, false, 0)
		total += int(r.Latency)
		w := s.AccessSync(0, addr, true, false, uint64(i)|1)
		total += int(w.Latency)
	}
	s.Quiesce()
	return s, total
}
