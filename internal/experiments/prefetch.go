package experiments

import (
	"strings"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Prefetch studies a hazard the paper does not discuss but any deployment
// of SwiftDir would hit: hardware prefetchers issue requests without a
// fresh translation, so an unmodified (naive) next-line prefetcher drops
// the write-protection bit. Under SwiftDir the prefetched copies of
// write-protected lines are then granted Exclusive, and the E/S channel
// reopens over exactly those lines. Propagating the demand access's WP
// bit to same-page prefetches (the WP-aware mode) restores the defense.
func Prefetch(bits int) string {
	var b strings.Builder
	b.WriteString("Prefetcher study: the WP bit must survive prefetching\n\n")

	tb := stats.NewTable("Covert channel over naively-prefetched lines (SwiftDir)",
		"prefetcher", "prefetched WP line", "probe(sent 1)", "probe(sent 0)", "BER", "channel")
	for _, mode := range []coherence.PrefetchMode{coherence.PrefetchOff, coherence.PrefetchNaive, coherence.PrefetchWPAware} {
		state, l1, l0, ber := prefetchChannel(mode, bits)
		verdict := "CLOSED"
		if ber < 0.25 {
			verdict = "OPEN"
		}
		tb.AddRowF(mode.String(), state, l1, l0, ber, verdict)
	}
	b.WriteString(tb.Render())
	b.WriteString("\n(the sender transmits through the line its demand miss prefetches;\n")
	b.WriteString(" `off` reads as closed because unprefetched probe lines are plain misses)\n")
	return b.String()
}

// prefetchChannel runs the covert channel over prefetch-target lines.
// Lines come in pairs: the sender demand-loads line 2k (write-protected),
// which prefetches line 2k+1; bit 1 = one sender thread (prefetch grabs E
// under the naive mode), bit 0 = both sender threads (the second demand
// miss forces the pair to S). The receiver probes line 2k+1.
func prefetchChannel(mode coherence.PrefetchMode, bits int) (lineState string, mean1, mean0, ber float64) {
	cfg := tableV(coherence.SwiftDir, 3, 1)
	cfg.Prefetch = mode
	s := coherence.MustNewSystem(cfg)
	tm := cfg.Timing
	threshold := (tm.LLCLoadLatency() + tm.RemoteLoadLatency()) / 2

	rng := sim.NewRNG(0x9F)
	var sum1, sum0 float64
	var n1, n0, errs int
	stateSeen := ""
	for i := 0; i < bits; i++ {
		// Pair k occupies two consecutive blocks within one page.
		page := cache.Addr(0x400000 + (i/32)*4096)
		demand := page + cache.Addr(i%32)*128
		target := demand + 64
		bit := rng.Bool(0.5)
		s.AccessSync(0, demand, false, true, 0)
		if !bit {
			s.AccessSync(1, demand, false, true, 0)
		}
		s.Quiesce()
		if stateSeen == "" {
			stateSeen = s.L1StateOf(0, target).String()
		}
		r := s.AccessSync(2, target, false, true, 0)
		got := r.Latency > threshold
		if got != bit {
			errs++
		}
		if bit {
			sum1 += float64(r.Latency)
			n1++
		} else {
			sum0 += float64(r.Latency)
			n0++
		}
	}
	if n1 > 0 {
		mean1 = sum1 / float64(n1)
	}
	if n0 > 0 {
		mean0 = sum0 / float64(n0)
	}
	return stateSeen, mean1, mean0, float64(errs) / float64(bits)
}
