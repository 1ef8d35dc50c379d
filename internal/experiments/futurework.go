package experiments

import (
	"context"
	"strings"

	"repro/internal/attack"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/stats"
)

// FutureWork evaluates the hardware direction the paper sketches in its
// threat-model discussion (§II-B): handling copy-on-write page faults as
// write misses completed through a dedicated write buffer. Two effects
// are measured: the dedup write-timing side channel (Bosman et al.)
// closes, and CoW-write-intensive execution accelerates. A done ctx
// aborts its machines mid-simulation.
func FutureWork(ctx context.Context, trials int) string {
	var b strings.Builder
	b.WriteString("Future work (§II-B): copy-on-write faults as write misses\n\n")

	b.WriteString("Dedup write-timing side channel (attacker infers victim page contents):\n")
	for _, fast := range []bool{false, true} {
		cfg := core.DefaultConfig(2, coherence.SwiftDir)
		cfg.FastCoWWrites = fast
		cfg.Context = ctx
		w, err := attack.NewWriteChannel(cfg, trials)
		if err != nil {
			panic(err)
		}
		r, err := w.Run(0xF7)
		if err != nil {
			panic(err)
		}
		b.WriteString("  " + r.Describe() + "\n")
	}

	b.WriteString("\nCoW-write-intensive execution (first store to each of 256 private library pages):\n")
	tb := stats.NewTable("", "mode", "total store cycles", "per store")
	for _, fast := range []bool{false, true} {
		cfg := core.DefaultConfig(1, coherence.SwiftDir)
		cfg.FastCoWWrites = fast
		cfg.Context = ctx
		m := core.MustNewMachine(cfg)
		lib := mmu.NewFile("fw.so", 0xF0)
		p := m.NewProcess()
		ctx := p.AttachContext(0)
		base := p.MmapLibraryData(lib, 256*mmu.PageSize, 0)
		var total uint64
		for i := 0; i < 256; i++ {
			r := ctx.MustAccessSync(base+mmu.VAddr(i)*mmu.PageSize, true, uint64(i))
			total += uint64(r.Latency)
		}
		mode := "baseline CoW fault"
		if fast {
			mode = "FastCoW write buffer"
		}
		tb.AddRowF(mode, total, float64(total)/256)
	}
	b.WriteString(tb.Render())
	return b.String()
}
