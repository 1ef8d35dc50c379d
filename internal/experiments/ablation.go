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

// AblationEwp compares SwiftDir against the E_wp alternative the paper
// considers and rejects in §III-B3: both close the E/S channel, both keep
// silent upgrade for unshared data, but E_wp retains exclusivity for
// write-protected data and therefore needs an extra stable state, a
// Downgrade flow, and a restriction on silent upgrade for E_wp lines —
// protection by complication instead of simplification.
func AblationEwp(ctx context.Context, bits int) string {
	var b strings.Builder
	b.WriteString("Ablation (§III-B3): SwiftDir vs the rejected E_wp design\n\n")

	// Security: both must close the covert channel.
	b.WriteString("Covert channel:\n")
	for _, line := range campaign.MustCollect(ctx, 0, covertJobs(
		[]coherence.Policy{coherence.SwiftDir, coherence.SwiftDirEwp}, "ablation", bits, 0xEE)) {
		b.WriteString(line)
	}

	// Traffic: messages per protocol on a WP-read-heavy workload.
	b.WriteString("\nCoherence traffic on a shared-read workload (messages delivered):\n")
	tb := stats.NewTable("", "protocol", "GETS_WP", "Data", "Data_Excl", "Downgrade", "Fwd_GETS", "total")
	var jobs []campaign.Job[[]any]
	for _, p := range []coherence.Policy{coherence.MESI, coherence.SwiftDir, coherence.SwiftDirEwp, coherence.SMESI} {
		jobs = append(jobs, campaign.Job[[]any]{
			Name: "ablation/traffic/" + p.Name(),
			Run: func() ([]any, error) {
				s := trafficSystem(p)
				return []any{p.Name(),
					s.MsgCount(coherence.MsgGETSWP),
					s.MsgCount(coherence.MsgData),
					s.MsgCount(coherence.MsgDataExclusive),
					s.MsgCount(coherence.MsgDowngrade),
					s.MsgCount(coherence.MsgFwdGETS),
					s.TotalMessages()}, nil
			},
		})
	}
	for _, row := range campaign.MustCollect(ctx, 0, jobs) {
		tb.AddRowF(row...)
	}
	b.WriteString(tb.Render())
	b.WriteString("\nE_wp matches SwiftDir's security but adds Downgrade traffic and a\n")
	b.WriteString("fourth load-grant flavour; SwiftDir's I->S transition needs neither.\n")
	return b.String()
}

// trafficSystem runs a fixed two-core shared-read-then-WAR workload and
// returns the quiesced system for traffic inspection.
func trafficSystem(p coherence.Policy) *coherence.System {
	s := coherence.MustNewSystem(coherence.SystemConfig{
		NumL1:     2,
		L1Params:  core.DefaultConfig(2, p).L1,
		LLCParams: core.DefaultConfig(2, p).L2Bank,
		Banks:     2,
		Timing:    coherence.DefaultTiming(),
		Policy:    p,
		DRAM:      core.DefaultConfig(2, p).DRAM,
	})
	// 64 shared write-protected lines read by both cores...
	for i := 0; i < 64; i++ {
		addr := cache.Addr(0x100000 + i*64)
		s.AccessSync(0, addr, false, true, 0)
		s.AccessSync(1, addr, false, true, 0)
	}
	// ...and a private WAR loop on core 0.
	for i := 0; i < 64; i++ {
		addr := cache.Addr(0x200000 + i*64)
		s.AccessSync(0, addr, false, false, 0)
		s.AccessSync(0, addr, true, false, uint64(i))
	}
	s.Quiesce()
	return s
}

// Traffic renders the coherence-message breakdown for a mixed workload
// under all protocols (including E_wp), quantifying the paper's
// qualitative traffic arguments: S-MESI adds Upgrade round trips; MESI
// adds forwards and owner writebacks; SwiftDir adds neither.
func Traffic(ctx context.Context) string {
	tb := stats.NewTable(
		"Coherence traffic: messages delivered on a mixed shared-read + WAR workload",
		"protocol", "GETS", "GETS_WP", "Upgrade", "Upgrade_ACK", "Fwd_GETS", "WB_Data", "Downgrade", "total")
	var jobs []campaign.Job[[]any]
	for _, p := range coherence.AllPolicies {
		jobs = append(jobs, campaign.Job[[]any]{
			Name: "traffic/" + p.Name(),
			Run: func() ([]any, error) {
				s := trafficSystem(p)
				return []any{p.Name(),
					s.MsgCount(coherence.MsgGETS),
					s.MsgCount(coherence.MsgGETSWP),
					s.MsgCount(coherence.MsgUpgrade),
					s.MsgCount(coherence.MsgUpgradeAck),
					s.MsgCount(coherence.MsgFwdGETS),
					s.MsgCount(coherence.MsgWBData),
					s.MsgCount(coherence.MsgDowngrade),
					s.TotalMessages()}, nil
			},
		})
	}
	for _, row := range campaign.MustCollect(ctx, 0, jobs) {
		tb.AddRowF(row...)
	}
	return tb.Render()
}

// AblationWAR extends Figure 10 with the E_wp protocol, verifying that the
// rejected design also avoids the WAR slowdown (its cost is complexity and
// traffic, not WAR latency).
func AblationWAR(ctx context.Context, passes int) string {
	tb := stats.NewTable(
		"Ablation: WAR execution time normalized to MESI (DerivO3CPU)",
		"application", "MESI", "SwiftDir", "SwiftDir-Ewp", "S-MESI")
	apps := workload.WARApps()
	protos := []coherence.Policy{coherence.MESI, coherence.SwiftDir, coherence.SwiftDirEwp, coherence.SMESI}
	metrics := warMetrics(ctx, "ablation", apps, protos, workload.DerivO3CPU, passes)
	for i, app := range apps {
		tb.AddRowF(normalizedWARRow(app.Name, metrics[i*len(protos):(i+1)*len(protos)])...)
	}
	return tb.Render()
}
