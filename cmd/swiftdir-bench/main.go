// Command swiftdir-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	swiftdir-bench [-exp all|table5|table4|fig4|fig5|fig6|fig6jitter|security
//	               |fig7|fig8|fig9|fig10a|fig10b|ablation|traffic|futurework
//	               |moesi|snoop|multiprogram|lru|prefetch|numa|kernels|sweep
//	               |msi|overhead|arbitration|scale|scale-attack]
//	               [-scale f] [-samples n] [-bits n] [-passes n] [-j n] [-out file]
//	swiftdir-bench -policy
//
// -exp also accepts a comma-separated list (e.g. -exp fig6,security);
// the selected experiments run in report order, deduplicated. The valid
// names come from the internal/experiments registry — the same dispatch
// table the swiftdir-serve HTTP server executes, so a CLI run and a
// server request with the same parameters render identical report bytes.
//
// -policy lists every selectable coherence policy with the size of its
// transition table (the internal/proto relation shared by the dispatchers
// and the model checker) and exits.
//
// -scale shrinks the SPEC/PARSEC instruction budgets (1.0 = the default
// 200k/120k instructions per thread); the protocol comparison is stable
// well below that.
//
// -j sets the number of concurrent simulation jobs (default: the
// SWIFTDIR_JOBS environment variable, else runtime.NumCPU()). Reports are
// byte-identical at every worker count; the per-experiment campaign
// accounting (wall time, busy time, speedup) goes to stderr so the
// report stream stays deterministic.
//
// A knob an experiment consumes must be positive: a selected experiment
// that would read a zero-or-negative -scale, -samples, -bits or -passes
// is a usage error (exit 2), the same rejection the server answers 400.
//
// An experiment that diverges (a simulation panic) is reported as FAILED
// and the sweep continues; the exit status is then 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/coherence"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/resultcache"
	"repro/internal/stats"
)

// experimentNames lists every -exp value, in report order — straight from
// the internal/experiments registry, the single dispatch table shared with
// the HTTP server. The flag help and the package doc comment above are
// kept in lockstep with it (TestUsageListsAllExperiments enforces it).
var experimentNames = experiments.Names()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit code) made
// explicit so tests can assert the report bytes at different -j values.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swiftdir-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all",
		"experiment(s) to run, comma-separated (all, "+strings.Join(experimentNames, ", ")+")")
	scale := fs.Float64("scale", 0.25, "instruction-budget scale for fig7/fig8")
	samples := fs.Int("samples", 2000, "latency samples for fig6")
	bits := fs.Int("bits", 1024, "covert-channel bits for security")
	passes := fs.Int("passes", 4, "measured passes for fig10")
	jobs := fs.Int("j", 0, "concurrent simulation jobs (0 = $SWIFTDIR_JOBS, else NumCPU)")
	outPath := fs.String("out", "", "also append the report to this file")
	listPolicies := fs.Bool("policy", false,
		"list the selectable coherence policies with their transition-table sizes, then exit")
	var pf prof.Flags
	pf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listPolicies {
		for _, p := range coherence.ExtendedPolicies {
			defined, defensive, impossible, illegal := p.Table().Counts()
			fmt.Fprintf(stdout, "%-16s table: %3d defined, %3d defensive, %3d impossible, %3d illegal\n",
				p.Name(), defined, defensive, impossible, illegal)
		}
		return 0
	}

	selected, err := experiments.ParseNames(*exp)
	if err != nil {
		fmt.Fprintf(stderr, "swiftdir-bench: %v\n", err)
		fs.Usage()
		return 2
	}
	// The flag knobs map onto registry Params; Normalize resolves the
	// knobs each experiment ignores (kernels' working set, overhead's
	// core count, fig9's sweep points keep their registry defaults, as
	// they always have in this CLI). Validating through the cache key
	// rejects exactly what the server rejects.
	params := experiments.Params{Scale: *scale, Samples: *samples, Bits: *bits, Passes: *passes}
	for _, name := range selected {
		if _, err := resultcache.NewKey(name, params); err != nil {
			fmt.Fprintf(stderr, "swiftdir-bench: %v\n", err)
			fs.Usage()
			return 2
		}
	}

	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintf(stderr, "swiftdir-bench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "swiftdir-bench: profile: %v\n", err)
		}
	}()

	campaign.SetWorkers(*jobs)
	defer campaign.SetWorkers(0)
	campaign.TakeSummaries() // start from a clean accounting slate
	stats.TakeFastPaths()

	var out io.Writer = stdout
	if *outPath != "" {
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "swiftdir-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}

	var campaignTotal stats.CampaignSummary
	var fpTotal stats.FastPathSummary
	totalStart := time.Now()
	failed := 0
	for _, name := range selected {
		e, _ := experiments.Lookup(name)
		start := time.Now()
		report, err := func() (r string, err error) {
			// The experiment functions panic on error (including labelled
			// campaign job panics); recover here so one diverging experiment
			// doesn't kill the rest of an -exp all sweep.
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("%v", p)
				}
			}()
			return e.Run(context.Background(), params), nil
		}()
		if err != nil {
			failed++
			// The error text can embed a goroutine stack, which varies with
			// -j; keep stdout deterministic with a fixed marker and put the
			// details on stderr.
			fmt.Fprintf(out, "experiment %s FAILED (details on stderr)\n", name)
			fmt.Fprintf(stderr, "swiftdir-bench: experiment %s: %v\n", name, err)
		} else {
			fmt.Fprintln(out, report)
		}
		fmt.Fprintln(out, strings.Repeat("=", 78))
		// The campaign footer carries wall-clock measurements, so it goes
		// to stderr: stdout stays byte-identical at any -j.
		sum := stats.MergeCampaigns(name, campaign.TakeSummaries())
		sum.Wall = time.Since(start)
		if len(sum.Jobs) > 0 {
			fmt.Fprintln(stderr, sum.Footer())
			campaignTotal.Jobs = append(campaignTotal.Jobs, sum.Jobs...)
			if sum.Workers > campaignTotal.Workers {
				campaignTotal.Workers = sum.Workers
			}
		}
		// Same rule for the fast-path split: observability only, stderr
		// only, so stdout stays byte-identical with the fast path on or
		// off (and at any -j).
		if fp := stats.MergeFastPaths(name, stats.TakeFastPaths()); fp.Total() > 0 {
			fmt.Fprintln(stderr, fp.Footer())
			fpTotal.Fast += fp.Fast
			fpTotal.Slow += fp.Slow
		}
	}

	if len(selected) > 1 && len(campaignTotal.Jobs) > 0 {
		campaignTotal.Label = "all"
		campaignTotal.Wall = time.Since(totalStart)
		fmt.Fprintln(stderr, campaignTotal.Footer())
	}
	if len(selected) > 1 && fpTotal.Total() > 0 {
		fpTotal.Label = "all"
		fmt.Fprintln(stderr, fpTotal.Footer())
	}
	if failed > 0 {
		return 1
	}
	return 0
}
