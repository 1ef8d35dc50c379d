package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AblationLRU tests the paper's §V-B explanation for S-MESI's occasional
// speedups: the explicit M-state synchronization touches the LLC line,
// making it look recently used to the LRU replacement policy and improving
// retention for memory-bound codes. If that explanation is causal, the
// effect must disappear when the LLC's replacement policy ignores recency.
// We re-run the memory-bound SPEC benchmarks with an LRU LLC and a Random
// LLC and compare S-MESI's normalized IPC under each.
func AblationLRU(ctx context.Context, scale float64) string {
	memBound := []string{"mcf", "bwaves", "cactuBSSN", "lbm", "wrf", "cam4"}

	normIPC := func(name string, repl cache.ReplPolicy, proto coherence.Policy) float64 {
		p, ok := workload.ProfileByName(name)
		if !ok {
			panic("unknown benchmark " + name)
		}
		cfg := core.DefaultConfig(1, proto)
		cfg.Context = ctx
		cfg.L2Bank.Replacement = repl
		// The mem-bound working sets (384-512 KB) must overflow the LLC
		// for replacement policy to matter at this scale; a 256 KB bank
		// keeps the benchmarks LLC-pressured as their full-size inputs
		// pressure the 2 MB bank.
		cfg.L2Bank.SizeBytes = 256 << 10
		r, _, err := workload.RunDetailed(p.Scale(scale), cfg, workload.DerivO3CPU)
		if err != nil {
			panic(err)
		}
		return r.IPC
	}

	// Four independent simulations per benchmark: {LRU, Random} ×
	// {S-MESI, MESI}. Flatten the grid into one campaign.
	cells := []struct {
		repl  cache.ReplPolicy
		proto coherence.Policy
	}{
		{cache.LRU, coherence.SMESI}, {cache.LRU, coherence.MESI},
		{cache.Random, coherence.SMESI}, {cache.Random, coherence.MESI},
	}
	var jobs []campaign.Job[float64]
	for _, name := range memBound {
		for _, c := range cells {
			jobs = append(jobs, campaign.Job[float64]{
				Name: fmt.Sprintf("lru/%s/%v/%s", name, c.repl, c.proto.Name()),
				Run:  func() (float64, error) { return normIPC(name, c.repl, c.proto), nil },
			})
		}
	}
	ipc := campaign.MustCollect(ctx, jobs)

	tb := stats.NewTable(
		"Ablation (§V-B): S-MESI's LRU-retention side effect, normalized IPC over MESI (x100)",
		"benchmark", "S-MESI w/ LRU LLC", "S-MESI w/ Random LLC")
	var lru, rnd []float64
	for i, name := range memBound {
		l := stats.Normalize(ipc[i*4+0], ipc[i*4+1])
		r := stats.Normalize(ipc[i*4+2], ipc[i*4+3])
		lru = append(lru, l)
		rnd = append(rnd, r)
		tb.AddRowF(name, l, r)
	}
	tb.AddRowF("average", stats.Mean(lru), stats.Mean(rnd))
	return tb.Render() +
		"(if the average S-MESI advantage shrinks under Random replacement, the\n" +
		" paper's LRU-touch explanation is confirmed causally)\n"
}
