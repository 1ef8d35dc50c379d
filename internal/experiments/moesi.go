package experiments

import (
	"context"
	"strings"

	"repro/internal/campaign"
	"repro/internal/coherence"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MOESIStudy extends the evaluation to the protocol families the paper
// notes "prevail in most modern processors" (§II-A2): MOESI (AMD Opteron)
// and MESIF (Intel). The E/S channel exists on both — MOESI adds an O/S
// flavour, MESIF a forwarder-present flavour — and SwiftDir's I→S rule
// composes with either optimization unchanged.
func MOESIStudy(ctx context.Context, bits, passes int) string {
	var b strings.Builder
	b.WriteString("Protocol-family study: the channel and the defense on MOESI and MESIF\n\n")

	b.WriteString("Covert channel:\n")
	for _, line := range campaign.MustCollect(ctx, 0, covertJobs(
		[]coherence.Policy{coherence.MOESI, coherence.SwiftDirMOESI, coherence.MESIF, coherence.SwiftDirMESIF},
		"moesi", bits, 0x30E5)) {
		b.WriteString(line)
	}

	b.WriteString("\nWrite-after-read performance (normalized execution time, DerivO3CPU):\n")
	tb := stats.NewTable("", "application", "MOESI", "SwiftDir-MOESI", "MESI")
	apps := workload.WARApps()
	warProtos := []coherence.Policy{coherence.MOESI, coherence.SwiftDirMOESI, coherence.MESI}
	metrics := warMetrics(ctx, "moesi", apps, warProtos, workload.DerivO3CPU, passes)
	for i, app := range apps {
		tb.AddRowF(normalizedWARRow(app.Name, metrics[i*len(warProtos):(i+1)*len(warProtos)])...)
	}
	b.WriteString(tb.Render())
	b.WriteString("\nSwiftDir-MOESI keeps both the silent upgrade and the O-state dirty\n")
	b.WriteString("migration for unshared data while pinning write-protected data in S.\n")
	return b.String()
}
