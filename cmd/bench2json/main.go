// Command bench2json converts `go test -bench -benchmem` output on stdin
// into the BENCH_<date>.json record the repo commits to track its perf
// trajectory across PRs (see `make bench`).
//
// Repeated runs of the same benchmark (-count=N) are folded into one
// entry: ns/op keeps the minimum across runs (the least-noise estimate),
// allocs/op and B/op keep the maximum (a regression in any run counts).
//
// Usage:
//
//	go test -bench=. -benchmem -count=6 -run='^$' . | bench2json > BENCH_2026-08-05.json
//
// Each record is stamped with the host it was measured on: CPU count,
// the GOMAXPROCS the benchmarks ran at (the -N name suffix), CPU model,
// Go version, and the git revision of the working directory. A number
// means little without its host, so -diff warns when the baseline was
// measured on a different one. Records written before the stamp existed
// are plain JSON arrays of entries; both formats are read.
//
// With -diff it compares stdin against a committed baseline instead of
// emitting JSON, printing per-benchmark ns/op deltas (`make benchdiff`).
// Two gate flags make it a CI tripwire (`make bench-gate`): -ceiling
// fails the run when a named benchmark exceeds its ns/op budget, and
// -zeroalloc fails it when a benchmark matching the regexp allocates.
//
//	... | bench2json -diff BENCH_2026-08-05.json
//	... | bench2json -ceiling 'BenchmarkAccessMESI=2500' -zeroalloc '^BenchmarkAccess' > /dev/null
//
// -zeroalloc gates on allocs/op ONLY, never B/op. `go test -benchmem`
// reports both as total/N with B/op truncated to an integer, so a fixed
// one-time warmup cost inside the timed region (page-table growth, free
// lists) reads as 0 or 1 B/op purely depending on the iteration count the
// framework picks — exactly the BENCH_2026-08-05 (0 B/op) vs
// BENCH_2026-08-08-shards (1 B/op) drift on the BenchmarkAccess* rows,
// with allocs/op identically 0 in both records. allocs/op counts discrete
// allocation events, so a genuinely allocation-free steady state pins at
// 0 regardless of N; benchmarks should still hoist warmup before
// b.ResetTimer so the committed B/op numbers stay stable too.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Entry is one benchmark's folded result.
type Entry struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Host identifies the machine and code a record was measured on.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu,omitempty"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision,omitempty"`
}

// Record is one committed BENCH_*.json file. Host is nil for records
// written before host stamping (bare arrays of entries).
type Record struct {
	Host       *Host    `json:"host,omitempty"`
	Benchmarks []*Entry `json:"benchmarks"`
}

func main() {
	diffPath := flag.String("diff", "", "compare against this baseline JSON instead of emitting JSON")
	ceilings := flag.String("ceiling", "", "comma-separated name=ns/op budgets that fail the run when exceeded")
	zeroAlloc := flag.String("zeroalloc", "", "regexp of benchmarks that must report 0 allocs/op")
	flag.Parse()

	raw, err := io.ReadAll(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench2json: %v\n", err)
		os.Exit(1)
	}
	entries, err := parse(bufio.NewScanner(bytes.NewReader(raw)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench2json: %v\n", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "bench2json: no benchmark lines on stdin")
		os.Exit(1)
	}

	violations := gate(entries, *ceilings, *zeroAlloc)
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "bench2json: GATE: %s\n", v)
	}

	if *diffPath != "" {
		if err := printDiff(os.Stdout, *diffPath, entries, hostOf(raw)); err != nil {
			fmt.Fprintf(os.Stderr, "bench2json: %v\n", err)
			os.Exit(1)
		}
	} else {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		host := hostOf(raw)
		if err := enc.Encode(Record{Host: &host, Benchmarks: entries}); err != nil {
			fmt.Fprintf(os.Stderr, "bench2json: %v\n", err)
			os.Exit(1)
		}
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}

// gate checks the budgets and returns a description of every violation.
// The ceiling spec is "Name=ns,Name=ns"; zeroAlloc is a regexp (empty
// disables). An unknown ceiling name is itself a violation, so a renamed
// benchmark cannot silently disarm the gate.
func gate(entries []*Entry, ceilings, zeroAlloc string) []string {
	var out []string
	byName := make(map[string]*Entry, len(entries))
	for _, e := range entries {
		byName[e.Name] = e
	}
	if ceilings != "" {
		for _, spec := range strings.Split(ceilings, ",") {
			name, limitStr, ok := strings.Cut(strings.TrimSpace(spec), "=")
			if !ok {
				out = append(out, fmt.Sprintf("bad -ceiling entry %q (want Name=ns)", spec))
				continue
			}
			limit, err := strconv.ParseFloat(limitStr, 64)
			if err != nil {
				out = append(out, fmt.Sprintf("bad -ceiling budget %q: %v", spec, err))
				continue
			}
			e := byName[name]
			if e == nil {
				out = append(out, fmt.Sprintf("%s: not found in benchmark output", name))
				continue
			}
			if e.NsPerOp > limit {
				out = append(out, fmt.Sprintf("%s: %.1f ns/op exceeds the %.1f ns/op ceiling", name, e.NsPerOp, limit))
			}
		}
	}
	if zeroAlloc != "" {
		re, err := regexp.Compile(zeroAlloc)
		if err != nil {
			return append(out, fmt.Sprintf("bad -zeroalloc regexp: %v", err))
		}
		matched := false
		for _, e := range entries {
			if !re.MatchString(e.Name) {
				continue
			}
			matched = true
			if e.AllocsPerOp != 0 {
				out = append(out, fmt.Sprintf("%s: %.0f allocs/op, pinned at 0", e.Name, e.AllocsPerOp))
			}
		}
		if !matched {
			out = append(out, fmt.Sprintf("-zeroalloc %q matched no benchmarks", zeroAlloc))
		}
	}
	return out
}

// hostOf stamps the current host. GOMAXPROCS is read from the
// benchmark names' -N suffix (absent when it was 1), so it is the value
// the benchmarks ran at rather than this process's; the CPU model comes
// from `go test`'s "cpu:" header.
func hostOf(raw []byte) Host {
	h := Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: 1, GoVersion: runtime.Version()}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			h.CPU = strings.TrimSpace(cpu)
		}
		if name, _, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "Benchmark") {
			if i := strings.LastIndexByte(name, '-'); i > 0 {
				if n, err := strconv.Atoi(name[i+1:]); err == nil {
					h.GOMAXPROCS = n
				}
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Revision = strings.TrimSpace(string(out))
	}
	return h
}

// readRecord loads a committed record in either format: the stamped
// object or the legacy bare array.
func readRecord(path string) (Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '[' {
		err = json.Unmarshal(data, &rec.Benchmarks)
	} else {
		err = json.Unmarshal(data, &rec)
	}
	if err != nil {
		return Record{}, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// hostMismatch describes why two hosts' numbers are not comparable, or
// returns "" when they match. The revision is expected to differ.
func hostMismatch(base *Host, cur Host) string {
	if base == nil {
		return "baseline has no host stamp; it may have been measured on a different machine"
	}
	if base.NumCPU != cur.NumCPU || base.GOMAXPROCS != cur.GOMAXPROCS || base.CPU != cur.CPU || base.GoVersion != cur.GoVersion {
		return fmt.Sprintf("hosts differ: baseline nproc=%d GOMAXPROCS=%d cpu=%q %s, this run nproc=%d GOMAXPROCS=%d cpu=%q %s",
			base.NumCPU, base.GOMAXPROCS, base.CPU, base.GoVersion, cur.NumCPU, cur.GOMAXPROCS, cur.CPU, cur.GoVersion)
	}
	return ""
}

// printDiff renders per-benchmark ns/op deltas of entries vs the
// baseline record, in the fresh run's order, then lists baseline
// benchmarks that no longer exist. A host mismatch is printed first as
// a warning: the deltas may then measure the machines, not the code.
func printDiff(w io.Writer, baselinePath string, entries []*Entry, host Host) error {
	rec, err := readRecord(baselinePath)
	if err != nil {
		return err
	}
	if msg := hostMismatch(rec.Host, host); msg != "" {
		fmt.Fprintf(w, "WARNING: %s\n", msg)
	}
	baseline := rec.Benchmarks
	base := make(map[string]*Entry, len(baseline))
	for _, e := range baseline {
		base[e.Name] = e
	}
	fmt.Fprintf(w, "%-40s %12s %12s %9s\n", "benchmark (vs "+baselinePath+")", "old ns/op", "new ns/op", "delta")
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		seen[e.Name] = true
		b := base[e.Name]
		if b == nil {
			fmt.Fprintf(w, "%-40s %12s %12.1f %9s\n", e.Name, "-", e.NsPerOp, "new")
			continue
		}
		delta := "0.0%"
		if b.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(e.NsPerOp-b.NsPerOp)/b.NsPerOp)
		}
		fmt.Fprintf(w, "%-40s %12.1f %12.1f %9s\n", e.Name, b.NsPerOp, e.NsPerOp, delta)
	}
	for _, b := range baseline {
		if !seen[b.Name] {
			fmt.Fprintf(w, "%-40s %12.1f %12s %9s\n", b.Name, b.NsPerOp, "-", "removed")
		}
	}
	return nil
}

// parse folds benchmark result lines in first-seen order. Lines that are
// not benchmark results (headers, PASS, campaign footers, ReportMetric
// units it does not know) are ignored.
func parse(sc *bufio.Scanner) ([]*Entry, error) {
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	byName := make(map[string]*Entry)
	var order []*Entry
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		// Strip the -GOMAXPROCS suffix so entries are machine-portable.
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i]
		}
		e := byName[name]
		if e == nil {
			e = &Entry{Name: name}
			byName[name] = e
			order = append(order, e)
		}
		e.Runs++
		// fields[1] is the iteration count; the rest are (value, unit)
		// pairs: "17.44 ns/op  0 B/op  0 allocs/op" plus any ReportMetric
		// extras, which are skipped.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				if e.Runs == 1 || v < e.NsPerOp {
					e.NsPerOp = v
				}
			case "allocs/op":
				if v > e.AllocsPerOp {
					e.AllocsPerOp = v
				}
			case "B/op":
				if v > e.BytesPerOp {
					e.BytesPerOp = v
				}
			}
		}
	}
	return order, sc.Err()
}
