package experiments

import (
	"strings"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/sim"
	"repro/internal/stats"
)

// NUMA studies the channel on a 2-socket machine: a 2x1 mesh, one router
// per socket, whose one hop costs the cross-socket penalty. Under MESI
// the receiver's probe latency reveals not only that a prior access
// happened (the E/S bit) but WHICH SOCKET the accessor was on — the
// forward path length differs. Under SwiftDir every probe of
// write-protected data is served by the block's (fixed) home LLC bank,
// so the latency is independent of the prior accessor entirely.
func NUMA() string {
	probe := func(p coherence.Policy, owner int) sim.Cycle {
		// Cores 0-1 and bank 0 on socket 0, cores 2-3 and bank 1 on
		// socket 1.
		cfg := tableV(p, 4, 2)
		cfg.Topology, cfg.MeshW, cfg.MeshH, cfg.MeshPerHop = "mesh", 2, 1, 40
		s := coherence.MustNewSystem(cfg)
		block := cache.Addr(0x20000) // home bank 0 (socket 0)
		s.AccessSync(owner, block, false, true, 0)
		s.Quiesce()
		// Receiver on socket 0, core 1.
		return s.AccessSync(1, block, false, true, 0).Latency
	}

	var b strings.Builder
	b.WriteString("NUMA study: 2 sockets x 2 cores, +40 cycles per cross-socket hop\n\n")
	tb := stats.NewTable(
		"Receiver probe latency of a write-protected line, by prior accessor",
		"protocol", "owner on same socket", "owner on other socket", "socket leaked?")
	for _, p := range []coherence.Policy{coherence.MESI, coherence.SwiftDir, coherence.SMESI} {
		near := probe(p, 0)
		far := probe(p, 2)
		leak := "no"
		if near != far {
			leak = "YES"
		}
		tb.AddRowF(p.Name(), near, far, leak)
	}
	b.WriteString(tb.Render())
	b.WriteString("\nMESI's forwarded probes traverse the owner's socket, so their length\n")
	b.WriteString("encodes the accessor's location; SwiftDir's home-bank service does not.\n")
	return b.String()
}
