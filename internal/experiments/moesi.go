package experiments

import (
	"context"
	"strings"

	"repro/internal/coherence"
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
	b.WriteString(covertLines(ctx, "moesi",
		[]coherence.Policy{coherence.MOESI, coherence.SwiftDirMOESI, coherence.MESIF, coherence.SwiftDirMESIF}, bits, 0x30E5))

	b.WriteString("\nWrite-after-read performance (normalized execution time, DerivO3CPU):\n")
	b.WriteString(warTable(ctx, "moesi", "", []coherence.Policy{coherence.MOESI, coherence.SwiftDirMOESI, coherence.MESI}, passes))
	b.WriteString("\nSwiftDir-MOESI keeps both the silent upgrade and the O-state dirty\n")
	b.WriteString("migration for unshared data while pinning write-protected data in S.\n")
	return b.String()
}
