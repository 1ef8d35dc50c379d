package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records the traced run's spans in memory, around the calls the
// benchmark makes into each layer, and writes them when the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	dir     string
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	hist    histogram // per-access AccessSync host time
	profile *os.File
}

// span is one timed call: times are nanoseconds since the run started;
// Job names the simulation job or request the span belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer(dir string) (*tracer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &tracer{dir: dir, t0: time.Now()}, nil
}

type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) start(name string, parent int64, job string) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, s: span{ID: t.nextID.Add(1), Parent: parent, Name: name, Job: job, Start: int64(time.Since(t.t0))}}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// record adds a span whose bounds are known only after the fact.
func (t *tracer) record(name string, parent int64, job string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	s := span{ID: t.nextID.Add(1), Parent: parent, Name: name, Job: job,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

func (t *tracer) addHistogram(h *histogram) {
	if t == nil || h == nil {
		return
	}
	t.mu.Lock()
	for i, n := range h {
		t.hist[i] += n
	}
	t.mu.Unlock()
}

// startProfile starts this process's CPU profile into the trace directory.
func (t *tracer) startProfile(name string) error {
	f, err := os.Create(filepath.Join(t.dir, name))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.profile = f
	return nil
}

func (t *tracer) stopProfile() {
	if t == nil || t.profile == nil {
		return
	}
	pprof.StopCPUProfile()
	t.profile.Close()
	t.profile = nil
}

// write saves the spans and their per-name self times (spans.json,
// selftime.json) and returns the self times in milliseconds.
func (t *tracer) write() (map[string]float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	for name, v := range map[string]any{"spans.json": t.spans, "selftime.json": self} {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(t.dir, name), b, 0o644); err != nil {
			return nil, err
		}
	}
	return self, nil
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover (their union, clipped to the span), in ms.
func selfTimes(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// histogram counts durations in fixed log-linear buckets: exact below
// 8 ns, then 8 buckets per power of two, so any reading is within 12.5%.
type histogram [62 * 8]uint64

func bucketOf(ns uint64) int {
	if ns < 8 {
		return int(ns)
	}
	e := bits.Len64(ns) - 1
	return (e-2)*8 + int(ns>>(e-3)&7)
}

// bucketLow is the smallest duration (ns) bucket i counts.
func bucketLow(i int) uint64 {
	if i < 8 {
		return uint64(i)
	}
	e, sub := i/8+2, uint64(i%8)
	return (8 + sub) << (e - 3)
}

func (h *histogram) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h[bucketOf(uint64(d))]++
}

// percentile returns the lower bound (ns) of the bucket holding the
// nearest-rank q-quantile, under the same ten-beyond rule as percentile.
func (h *histogram) percentile(q float64) (float64, error) {
	var n uint64
	for _, c := range h {
		n += c
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n < rank+minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, n-min(n, rank), minTail)
	}
	var cum uint64
	for i, c := range h {
		if cum += c; cum >= rank {
			return float64(bucketLow(i)), nil
		}
	}
	return 0, fmt.Errorf("histogram percentile out of range")
}

// cpuLayers are the buckets a CPU profile folds into: the repository's
// modules, coherence split by receiver type (L1 / directory bank / cluster
// hub / the rest), the HTTP stack down to its system calls, the Go
// runtime, and everything else. Their *.cpu_pct shares sum to 100.
var cpuLayers = []string{
	"sim", "coherence.l1", "coherence.directory", "coherence.hub", "coherence.system",
	"interconnect", "cpu", "workload", "mmu", "dram", "cache", "proto", "core",
	"campaign", "experiments", "server", "resultcache", "nethttp", "runtime", "other",
}

// layerOf maps a profiled function name to its cpuLayers bucket.
func layerOf(fn string) string {
	pkg, rest := splitFunc(fn)
	switch {
	case pkg == "repro/internal/coherence":
		switch {
		case hasReceiver(rest, "L1"):
			return "coherence.l1"
		case hasReceiver(rest, "bank"):
			return "coherence.directory"
		case hasReceiver(rest, "hub"), hasReceiver(rest, "hubDirect"):
			return "coherence.hub"
		}
		return "coherence.system"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, l := range cpuLayers {
			if l == name {
				return l
			}
		}
	case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "internal/poll",
		pkg == "syscall", pkg == "internal/runtime/syscall":
		return "nethttp"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// splitFunc splits a Go symbol into its package path and the rest,
// ignoring generic type arguments (which may themselves hold paths).
func splitFunc(fn string) (pkg, rest string) {
	var b strings.Builder
	depth := 0
	for _, r := range fn {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	fn = b.String()
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+2+dot:]
}

func hasReceiver(rest, typ string) bool {
	return strings.HasPrefix(rest, "(*"+typ+")") || strings.HasPrefix(rest, typ+".")
}

// gcRoots are the functions whose cumulative samples are garbage
// collection: background mark workers and allocation-time assists.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc"}

// foldTop folds the text of `go tool pprof -top` into per-layer shares of
// flat samples, in percent, plus the garbage collector's share.
func foldTop(text string) (shares map[string]float64, gcPct float64, err error) {
	flat := map[string]float64{}
	var total, gc float64
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		fv, err1 := parseSampleTime(f[0])
		cv, err2 := parseSampleTime(f[3])
		if err1 != nil || err2 != nil {
			return nil, 0, fmt.Errorf("pprof -top row %q: %v", sc.Text(), errors.Join(err1, err2))
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		flat[layerOf(name)] += fv
		total += fv
		for _, root := range gcRoots {
			if name == root {
				gc += cv
			}
		}
	}
	if !inTable || total == 0 {
		return nil, 0, fmt.Errorf("pprof -top output has no samples")
	}
	shares = map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = 100 * flat[l] / total
	}
	return shares, 100 * gc / total, nil
}

// parseSampleTime reads a pprof duration cell such as "0", "120ms",
// "1.25s", "2.50mins" or "1.10hrs".
func parseSampleTime(s string) (float64, error) {
	for suffix, unit := range map[string]float64{"mins": 60, "hrs": 3600} {
		if v, ok := strings.CutSuffix(s, suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f * unit, err
		}
	}
	d, err := time.ParseDuration(s)
	return d.Seconds(), err
}

// foldProfile runs the toolchain's offline pprof on a CPU profile and
// folds its flat samples by layer.
func foldProfile(path string) (map[string]float64, float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return foldTop(string(out))
}
