package experiments

import (
	"context"
	"strings"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/stats"
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
	b.WriteString(covertLines(ctx, "ablation", []coherence.Policy{coherence.SwiftDir, coherence.SwiftDirEwp}, bits, 0xEE))

	// Traffic: messages per protocol on a WP-read-heavy workload.
	b.WriteString("\nCoherence traffic on a shared-read workload (messages delivered):\n")
	tb := stats.NewTable("", "protocol", "GETS_WP", "Data", "Data_Excl", "Downgrade", "Fwd_GETS", "total")
	protos := []coherence.Policy{coherence.MESI, coherence.SwiftDir, coherence.SwiftDirEwp, coherence.SMESI}
	for _, row := range byPolicy(ctx, "ablation/traffic", protos, func(p coherence.Policy) ([]any, error) {
		s := trafficSystem(p)
		return []any{p.Name(),
			s.MsgCount(coherence.MsgGETSWP),
			s.MsgCount(coherence.MsgData),
			s.MsgCount(coherence.MsgDataExclusive),
			s.MsgCount(coherence.MsgDowngrade),
			s.MsgCount(coherence.MsgFwdGETS),
			s.TotalMessages()}, nil
	}) {
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
	s := coherence.MustNewSystem(tableV(p, 2, 2))
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
	for _, row := range byPolicy(ctx, "traffic", coherence.AllPolicies, func(p coherence.Policy) ([]any, error) {
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
	}) {
		tb.AddRowF(row...)
	}
	return tb.Render()
}

// AblationWAR extends Figure 10 with the E_wp protocol, verifying that the
// rejected design also avoids the WAR slowdown (its cost is complexity and
// traffic, not WAR latency).
func AblationWAR(ctx context.Context, passes int) string {
	return warTable(ctx, "ablation", "Ablation: WAR execution time normalized to MESI (DerivO3CPU)",
		[]coherence.Policy{coherence.MESI, coherence.SwiftDir, coherence.SwiftDirEwp, coherence.SMESI}, passes)
}
