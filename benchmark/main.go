// Command benchmark is the repository's end-to-end benchmark. One
// invocation runs one workload, sized from a wall-clock budget, checks every
// simulated outcome and served byte against pinned values, prints every
// metric as "name value unit", writes a host-stamped JSON result, and
// ends with the one-line JSON summary BENCHMARK.json describes: the
// end_to_end metrics on an untraced run, the per_layer metrics on a
// traced one.
//
// Build and run it from the repository root with the launcher, which
// also builds the swiftdir-serve binary serve-mix drives:
//
//	bash benchmark/run.sh --workload spec-o3 --seed 1 --seconds 20 --trace 0
//
// A second mode aggregates saved results into medians and spreads:
//
//	.bench_build/bin/benchmark -summarize .bench_build/results
//
// README.md lists the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// runConfig is what a workload needs to run.
type runConfig struct {
	root     string // repository root: BENCHMARK.json, golden reports
	seed     uint64
	seconds  float64
	serveBin string
	tr       *tracer // nil unless tracing
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// simWorkload is a simulation workload: its input generator, and the wall
// time of one round on the reference host at the commit that defined the
// benchmark. A run's round count is sized from that constant and the
// budget alone, so every commit does the same work.
type simWorkload struct {
	gen          func(seed uint64) []simJob
	roundSeconds float64
}

// simWorkloads are the simulation workloads; serve-mix is the fourth.
var simWorkloads = map[string]simWorkload{
	"spec-o3":         {specJobs, 2.5},
	"war-inorder":     {warJobs, 0.22},
	"mesh256-sharing": {meshJobs, 0.55},
}

// runWorkload runs the named workload.
func runWorkload(name string, cfg runConfig) (*report, error) {
	if w, ok := simWorkloads[name]; ok {
		return runSim(cfg, name, w)
	}
	return runServeMix(cfg)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: spec-o3, war-inorder, mesh256-sharing, serve-mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured wall-clock budget on the reference host (sizes a fixed amount of work)")
	trace := fs.Int("trace", 0, "1 = traced run: spans and CPU profiles, per-layer metrics")
	serveBin := fs.String("serve", ".bench_build/bin/swiftdir-serve", "swiftdir-serve binary for serve-mix")
	outDir := fs.String("out", ".bench_build/results", "directory for result JSON and trace output")
	summarize := fs.String("summarize", "", "print medians and spreads of the results saved in this directory, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarize != "" {
		if err := summarizeResults(*summarize, stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	if _, ok := simWorkloads[*name]; !ok && *name != "serve-mix" || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of spec-o3, war-inorder, mesh256-sharing, serve-mix), -seconds > 0, -trace 0|1\n")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	cfg := runConfig{root: ".", seed: *seed, seconds: *seconds, serveBin: *serveBin}
	stem := fmt.Sprintf("%s-seed%d-%d", *name, *seed, time.Now().UnixNano())
	if *trace == 1 {
		stem += "-trace"
		if cfg.tr, err = newTracer(filepath.Join(*outDir, stem)); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	rep, err := runWorkload(*name, cfg)
	if err == nil && cfg.tr != nil {
		err = addTraceMetrics(rep, cfg.tr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "benchmark: FAIL %s\n", f)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stderr, "benchmark: NOTE %s\n", n)
	}
	if len(rep.refused) > 0 {
		fmt.Fprintf(stderr, "benchmark: refused percentiles (run longer): %s\n", strings.Join(rep.refused, "; "))
		return 1
	}

	line, err := summaryFor(rep, spec, cfg.tr != nil)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}

	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "%s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	if err := writeResult(filepath.Join(*outDir, stem+".json"), *name, cfg, rep, line); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !line.Correct {
		return 1
	}
	return 0
}

// benchSpec is the part of BENCHMARK.json the program reads: which
// metrics the summary line carries, and their units.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// summaryFor builds the summary line: every end_to_end metric of an
// untraced run, which must all have been measured, or every per_layer
// metric of a traced one, 0 where the workload does not exercise the
// layer.
func summaryFor(rep *report, spec benchSpec, traced bool) (summaryLine, error) {
	line := summaryLine{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	if rep.attempted == 0 {
		return line, fmt.Errorf("attempted nothing")
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	for _, m := range list {
		v, ok := rep.lookup(m.Name)
		if !ok && !traced {
			return line, fmt.Errorf("measured no %s", m.Name)
		}
		line.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return line, nil
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// addTraceMetrics adds what only a traced run measures: per-layer CPU
// shares from the profile, AccessSync latency percentiles, and span self
// times.
func addTraceMetrics(rep *report, tr *tracer) error {
	self, err := tr.write()
	if err != nil {
		return err
	}
	for name, ms := range self {
		rep.add("selftime."+name, ms, "ms")
	}
	if tr.hist != (histogram{}) {
		for _, q := range []struct {
			name string
			q    float64
		}{{"coherence.accesssync_ns_p50", 0.50}, {"coherence.accesssync_ns_p99", 0.99}} {
			v, err := tr.hist.percentile(q.q)
			if err != nil {
				rep.refused = append(rep.refused, q.name+": "+err.Error())
				continue
			}
			rep.add(q.name, v, "ns")
		}
	}
	profile := filepath.Join(tr.dir, "bench.cpu.pprof")
	if _, err := os.Stat(filepath.Join(tr.dir, "server.cpu.pprof")); err == nil {
		profile = filepath.Join(tr.dir, "server.cpu.pprof")
	}
	shares, gc, err := foldProfile(profile)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		rep.add(l+".cpu_pct", shares[l], "%")
	}
	rep.add("runtime.gc_cpu_pct", gc, "%")
	return nil
}

// hostStamp identifies the machine and build a result was measured on.
type hostStamp struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Date       string `json:"date"`
}

func stampHost() hostStamp {
	h := hostStamp{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Revision = rev
			if modified == "true" {
				h.Revision += "+dirty"
			}
		}
	}
	return h
}

// result is the saved record of one run.
type result struct {
	Host     hostStamp      `json:"host"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Traced   bool           `json:"traced"`
	Sizes    map[string]any `json:"sizes"`
	Metrics  []metric       `json:"metrics"`
	Summary  summaryLine    `json:"summary"`
	Failures []string       `json:"failures,omitempty"`
	Notes    []string       `json:"notes,omitempty"`
}

func writeResult(path, name string, cfg runConfig, rep *report, line summaryLine) error {
	r := result{
		Host: stampHost(), Workload: name, Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.tr != nil, Sizes: rep.sizes, Metrics: rep.metrics, Summary: line,
		Failures: rep.failures, Notes: rep.notes,
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
