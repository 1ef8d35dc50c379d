package experiments

import (
	"context"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// grid fans a rows × protos grid of cells out as one campaign, rows
// outer and protocols inner, naming each job label+name(row)+"/"+
// protocol. It returns the cells row by row, in protocol order.
func grid[R, T any](ctx context.Context, label string, rows []R, name func(R) string,
	protos []coherence.Policy, cell func(R, coherence.Policy) (T, error)) [][]T {
	var jobs []campaign.Job[T]
	for _, r := range rows {
		for _, p := range protos {
			jobs = append(jobs, campaign.Job[T]{
				Name: label + name(r) + "/" + p.Name(),
				Run:  func() (T, error) { return cell(r, p) },
			})
		}
	}
	flat := campaign.MustCollect(ctx, jobs)
	out := make([][]T, len(rows))
	for i := range out {
		out[i] = flat[i*len(protos) : (i+1)*len(protos)]
	}
	return out
}

// byPolicy is the grid of one unnamed row: run under each protocol, with
// jobs named label+"/"+protocol.
func byPolicy[T any](ctx context.Context, label string, protos []coherence.Policy, run func(coherence.Policy) (T, error)) []T {
	return grid(ctx, label, []string{""}, func(string) string { return "" }, protos,
		func(_ string, p coherence.Policy) (T, error) { return run(p) })[0]
}

// covert runs a covert channel from open (attack.NewChannel or
// attack.NewTextChannel) under each protocol on the 4-core Table V
// machine, with ctx on every machine so a done context aborts the run
// mid-simulation — the campaign shared by the security, ablation, MSI,
// MOESI and arbitration studies.
func covert(ctx context.Context, label string, open func(core.Config, int) (*attack.Channel, error),
	protos []coherence.Policy, bits int, seed uint64) []attack.Result {
	return byPolicy(ctx, label, protos, func(p coherence.Policy) (attack.Result, error) {
		cfg := core.DefaultConfig(4, p)
		cfg.Context = ctx
		ch, err := open(cfg, bits)
		if err != nil {
			return attack.Result{}, err
		}
		return ch.Run(bits, seed)
	})
}

// covertLines runs the data channel under each protocol and renders one
// report line per result.
func covertLines(ctx context.Context, label string, protos []coherence.Policy, bits int, seed uint64) string {
	var s string
	for _, r := range covert(ctx, label+"/covert", attack.NewChannel, protos, bits, seed) {
		s += "  " + r.Describe() + "\n"
	}
	return s
}

// suite runs the grid of rows under the paper's three protocols and
// normalizes each row's metric against MESI (x100).
func suite[R any](ctx context.Context, label string, rows []R, name func(R) string,
	metric func(R, coherence.Policy) (float64, error)) []SuiteRow {
	out := make([]SuiteRow, len(rows))
	for i, m := range grid(ctx, label, rows, name, protocols, metric) {
		out[i] = SuiteRow{
			Benchmark: name(rows[i]),
			MESI:      100,
			SwiftDir:  stats.Normalize(m[1], m[0]),
			SMESI:     stats.Normalize(m[2], m[0]),
		}
	}
	return out
}

// warTable renders the Figure 10 applications' execution time under
// protos on DerivO3CPU, normalized against the first protocol (x100);
// the column headers are the protocol names.
func warTable(ctx context.Context, label, title string, protos []coherence.Policy, passes int) string {
	apps := workload.WARApps()
	metrics := grid(ctx, label+"/war/", apps, appName, protos, func(app workload.WARApp, p coherence.Policy) (float64, error) {
		r, err := workload.RunWAR(ctx, app, p, workload.DerivO3CPU, passes)
		return float64(r.ExecCycles), err
	})
	header := []string{"application"}
	for _, p := range protos {
		header = append(header, p.Name())
	}
	tb := stats.NewTable(title, header...)
	for i, app := range apps {
		row := []any{app.Name, 100.0}
		for _, m := range metrics[i][1:] {
			row = append(row, stats.Normalize(m, metrics[i][0]))
		}
		tb.AddRowF(row...)
	}
	return tb.Render()
}

func appName(app workload.WARApp) string { return app.Name }
