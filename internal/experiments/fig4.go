package experiments

import (
	"strings"

	"repro/internal/cache"
	"repro/internal/coherence"
)

// Fig4 renders the paper's Figure 4 protocol diagrams as live message
// transcripts: each panel is executed on the real protocol engine and the
// traced coherence messages are printed.
func Fig4() string {
	const block = cache.Addr(0x4000)
	var b strings.Builder
	b.WriteString("Figure 4: SwiftDir coherence, as executed message transcripts\n\n")

	panel := func(title string, p coherence.Policy, setup, measure func(s *coherence.System)) {
		s := coherence.MustNewSystem(tableV(p, 3, 1))
		if setup != nil {
			setup(s)
			s.Quiesce()
		}
		tr := s.AttachTracer()
		measure(s)
		s.Quiesce()
		b.WriteString(tr.Render(title))
		b.WriteByte('\n')
	}

	panel("(a) Initial load of write-protected data (SwiftDir: I->S, no exclusivity)",
		coherence.SwiftDir,
		nil,
		func(s *coherence.System) { s.AccessSync(0, block, false, true, 0) })

	panel("(b) Remote load after initial load of write-protected data (served from LLC)",
		coherence.SwiftDir,
		func(s *coherence.System) { s.AccessSync(1, block, false, true, 0) },
		func(s *coherence.System) { s.AccessSync(0, block, false, true, 0) })

	panel("(c) Initial load of non-write-protected data (I->E, unchanged from MESI)",
		coherence.SwiftDir,
		nil,
		func(s *coherence.System) { s.AccessSync(0, block, false, false, 0) })

	panel("(d) Store after initial load of non-write-protected data (silent E->M: no messages)",
		coherence.SwiftDir,
		func(s *coherence.System) { s.AccessSync(0, block, false, false, 0) },
		func(s *coherence.System) { s.AccessSync(0, block, true, false, 1) })

	panel("(e) Remote load after initial load of non-write-protected data (three-hop forward)",
		coherence.SwiftDir,
		func(s *coherence.System) { s.AccessSync(1, block, false, false, 0) },
		func(s *coherence.System) { s.AccessSync(0, block, false, false, 0) })

	panel("(Figure 2) S-MESI's explicit E->M transition (EM^A round trip)",
		coherence.SMESI,
		func(s *coherence.System) { s.AccessSync(0, block, false, false, 0) },
		func(s *coherence.System) { s.AccessSync(0, block, true, false, 1) })

	return b.String()
}
