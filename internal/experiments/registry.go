package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/workload"
)

// Params is the full knob set an experiment run can be parameterized
// with. It is the wire format of cmd/swiftdir-serve and the input half
// of the result-cache key, so the zero value of every field means "use
// the experiment's default" and fields an experiment does not consume
// are canonicalized away by Experiment.Normalize — two requests that
// differ only in knobs the experiment ignores memoize to the same entry.
//
// The JSON names are the server's request vocabulary; omitempty keeps
// the canonical (normalized) encoding free of irrelevant zero fields.
type Params struct {
	Scale   float64 `json:"scale,omitempty"`   // instruction-budget scale (suite runs)
	Samples int     `json:"samples,omitempty"` // latency samples (fig6 family)
	Bits    int     `json:"bits,omitempty"`    // covert-channel bits (attack studies)
	Trials  int     `json:"trials,omitempty"`  // side-channel trials (security; default Bits)
	Passes  int     `json:"passes,omitempty"`  // measured WAR passes (fig10, studies)
	Amounts []int   `json:"amounts,omitempty"` // shared-data sweep points (fig9)
	WSKB    int     `json:"ws_kb,omitempty"`   // kernel-study working set, KB
	Cores   int     `json:"cores,omitempty"`   // hardware-cost table core count
}

// DefaultParams are the values the zero Params resolves to, experiment
// by experiment: they mirror cmd/swiftdir-bench's flag defaults so a
// bare server request reproduces exactly what a bare CLI run prints.
func DefaultParams() Params {
	return Params{
		Scale:   0.25,
		Samples: 2000,
		Bits:    1024,
		Trials:  0, // resolved to Bits by the security experiment
		Passes:  4,
		Amounts: nil, // resolved to Fig9Amounts by fig9
		WSKB:    512,
		Cores:   4,
	}
}

// paramUse is the bitmask of Params fields one experiment consumes.
type paramUse uint16

const (
	usesScale paramUse = 1 << iota
	usesSamples
	usesBits
	usesTrials
	usesPasses
	usesAmounts
	usesWSKB
	usesCores
)

// Experiment is one registry entry: a named, parameterized, deterministic
// report generator. Run renders the same bytes for the same normalized
// Params at any worker count (the repo's headline guarantee), which is
// what makes memoizing on (Name, Normalize(p)) sound.
type Experiment struct {
	Name  string
	Title string // one-line description for listings
	uses  paramUse

	// min holds the smallest accepted value of a consumed integer knob
	// where the experiment needs more than 1 (zero fields mean 1).
	min Params

	// run renders the report for normalized Params. Cancellation-aware
	// experiments hand ctx to every machine they build
	// (core.Config.Context), so a done context aborts the simulations
	// mid-run with a typed "cancelled" violation. Every experiment that
	// fans out over the campaign pool also skips its queued jobs once ctx
	// is done; a job already running finishes.
	run func(ctx context.Context, p Params) string
}

// Normalize canonicalizes p for this experiment: fields the experiment
// consumes resolve zero values to DefaultParams, every other field is
// cleared. The result is the Params half of a content-addressed cache
// key — requests that cannot change the report normalize identically.
func (e Experiment) Normalize(p Params) Params {
	def := DefaultParams()
	var n Params
	if e.uses&usesScale != 0 {
		n.Scale = p.Scale
		if n.Scale == 0 {
			n.Scale = def.Scale
		}
	}
	if e.uses&usesSamples != 0 {
		n.Samples = p.Samples
		if n.Samples == 0 {
			n.Samples = def.Samples
		}
	}
	if e.uses&usesBits != 0 {
		n.Bits = p.Bits
		if n.Bits == 0 {
			n.Bits = def.Bits
		}
	}
	if e.uses&usesTrials != 0 {
		n.Trials = p.Trials
		if n.Trials == 0 {
			n.Trials = n.Bits // security's CLI default: trials = bits
		}
	}
	if e.uses&usesPasses != 0 {
		n.Passes = p.Passes
		if n.Passes == 0 {
			n.Passes = def.Passes
		}
	}
	if e.uses&usesAmounts != 0 {
		if len(p.Amounts) > 0 {
			n.Amounts = append([]int(nil), p.Amounts...)
			sort.Ints(n.Amounts)
		} else {
			n.Amounts = append([]int(nil), Fig9Amounts...)
		}
	}
	if e.uses&usesWSKB != 0 {
		n.WSKB = p.WSKB
		if n.WSKB == 0 {
			n.WSKB = def.WSKB
		}
	}
	if e.uses&usesCores != 0 {
		n.Cores = p.Cores
		if n.Cores == 0 {
			n.Cores = def.Cores
		}
	}
	return n
}

// Validate normalizes p and rejects any knob the experiment consumes
// that is not positive — every fig9 amount included — or below the
// experiment's own minimum. Defaults fill only zero values, so a
// negative knob survives normalization and would reach the simulator
// as a nonsense run. There are no upper bounds: request deadlines
// already bound the compute.
func (e Experiment) Validate(p Params) error {
	n := e.Normalize(p)
	if e.uses&usesScale != 0 && !(n.Scale > 0) {
		return &InvalidParamsError{Experiment: e.Name, Field: "scale", Value: n.Scale, Min: "positive"}
	}
	for _, k := range []struct {
		use        paramUse
		field      string
		value, min int
	}{
		{usesSamples, "samples", n.Samples, e.min.Samples},
		{usesBits, "bits", n.Bits, e.min.Bits},
		{usesTrials, "trials", n.Trials, e.min.Trials},
		{usesPasses, "passes", n.Passes, e.min.Passes},
		{usesWSKB, "ws_kb", n.WSKB, e.min.WSKB},
		{usesCores, "cores", n.Cores, e.min.Cores},
	} {
		if e.uses&k.use == 0 || k.value >= max(k.min, 1) {
			continue
		}
		want := "positive"
		if k.min > 1 {
			want = fmt.Sprintf("at least %d", k.min)
		}
		return &InvalidParamsError{Experiment: e.Name, Field: k.field, Value: k.value, Min: want}
	}
	for _, a := range n.Amounts {
		if a <= 0 {
			return &InvalidParamsError{Experiment: e.Name, Field: "amounts", Value: a, Min: "positive"}
		}
	}
	return nil
}

// InvalidParamsError names a consumed knob whose value the experiment
// cannot run with.
type InvalidParamsError struct {
	Experiment string
	Field      string // the JSON name of the knob
	Value      any
	Min        string // the accepted range: "positive" or "at least N"
}

func (e *InvalidParamsError) Error() string {
	return fmt.Sprintf("experiment %s: %s must be %s, got %v", e.Experiment, e.Field, e.Min, e.Value)
}

// Run normalizes p and renders the experiment's report. It panics on a
// diverging simulation (the package's convention); frontends recover. A
// done ctx aborts cancellation-aware experiments at their next executed
// event, as a panic with a *fault.Violation of kind "cancelled" — the
// same convention, so existing recover fences classify it. The report of
// an uncancelled run is byte-identical whatever ctx is: the cancel token
// rides the engine's existing watchdog check and injects no events.
func (e Experiment) Run(ctx context.Context, p Params) string {
	return e.run(ctx, e.Normalize(p))
}

// registry lists every experiment in report order — the order
// `swiftdir-bench -exp all` prints and the only dispatch table: the
// bench CLI, the HTTP server, and the cache key derivation all read it.
var registry = []Experiment{
	{Name: "table5", Title: "Table V: experiment setup", run: func(context.Context, Params) string { return Table5() }},
	{Name: "table4", Title: "Table IV: qualitative E-state handling matrix",
		run: func(context.Context, Params) string { _, s := Table4(); return s }},
	{Name: "fig4", Title: "Figure 4: directory organizations", run: func(context.Context, Params) string { return Fig4() }},
	{Name: "fig5", Title: "Figure 5: cache architectures", run: func(context.Context, Params) string { return Fig5() }},
	{Name: "fig6", Title: "Figure 6: coherence-request latency CDF", uses: usesSamples,
		run: func(ctx context.Context, p Params) string { return Fig6(ctx, p.Samples).Rendered }},
	{Name: "fig6jitter", Title: "Figure 6 on a contended interconnect", uses: usesSamples,
		run: func(ctx context.Context, p Params) string { return Fig6Jitter(ctx, p.Samples/4).Rendered }},
	{Name: "security", Title: "covert/side-channel attack suite", uses: usesBits | usesTrials,
		run: func(ctx context.Context, p Params) string { _, _, s := Security(ctx, p.Bits, p.Trials); return s }},
	{Name: "fig7", Title: "Figure 7: SPEC 2017 normalized IPC", uses: usesScale,
		run: func(ctx context.Context, p Params) string { _, s := Fig7(ctx, p.Scale); return s }},
	{Name: "fig8", Title: "Figure 8: PARSEC 3.0 normalized execution time", uses: usesScale,
		run: func(ctx context.Context, p Params) string { _, s := Fig8(ctx, p.Scale); return s }},
	{Name: "fig9", Title: "Figure 9: read-only shared-data sweep", uses: usesAmounts,
		run: func(ctx context.Context, p Params) string { _, s := Fig9(ctx, p.Amounts); return s }},
	{Name: "fig10a", Title: "Figure 10(a): WAR apps, TimingSimpleCPU", uses: usesPasses,
		run: func(ctx context.Context, p Params) string {
			_, s := Fig10(ctx, workload.TimingSimpleCPU, p.Passes)
			return s
		}},
	{Name: "fig10b", Title: "Figure 10(b): WAR apps, DerivO3CPU", uses: usesPasses,
		run: func(ctx context.Context, p Params) string {
			_, s := Fig10(ctx, workload.DerivO3CPU, p.Passes)
			return s
		}},
	{Name: "ablation", Title: "E_wp and WAR ablations", uses: usesBits | usesPasses,
		run: func(ctx context.Context, p Params) string {
			return AblationEwp(ctx, p.Bits) + "\n" + AblationWAR(ctx, p.Passes)
		}},
	{Name: "traffic", Title: "interconnect message breakdown", run: func(ctx context.Context, _ Params) string { return Traffic(ctx) }},
	{Name: "futurework", Title: "fast CoW sharing study", uses: usesBits, min: Params{Bits: 4},
		run: func(_ context.Context, p Params) string { return FutureWork(p.Bits / 4) }},
	{Name: "moesi", Title: "MOESI/MESIF family study", uses: usesBits | usesPasses,
		run: func(ctx context.Context, p Params) string { return MOESIStudy(ctx, p.Bits/4, p.Passes) }},
	{Name: "snoop", Title: "snooping-bus comparison", uses: usesBits,
		run: func(ctx context.Context, p Params) string { return SnoopStudy(ctx, p.Bits/4) }},
	{Name: "multiprogram", Title: "multiprogrammed mixes", uses: usesScale,
		run: func(ctx context.Context, p Params) string { _, s := Multiprogram(ctx, p.Scale); return s }},
	{Name: "lru", Title: "replacement-policy ablation", uses: usesScale,
		run: func(ctx context.Context, p Params) string { return AblationLRU(ctx, p.Scale) }},
	{Name: "prefetch", Title: "prefetcher interaction study", uses: usesBits,
		run: func(_ context.Context, p Params) string { return Prefetch(p.Bits / 4) }},
	{Name: "numa", Title: "NUMA latency study", run: func(context.Context, Params) string { return NUMA() }},
	{Name: "kernels", Title: "compute-kernel study", uses: usesWSKB, min: Params{WSKB: 4},
		run: func(ctx context.Context, p Params) string { return KernelStudy(ctx, p.WSKB) }},
	{Name: "sweep", Title: "timing-parameter sweep", run: func(ctx context.Context, _ Params) string { return TimingSweep(ctx) }},
	{Name: "msi", Title: "MSI downgrade study", uses: usesBits | usesPasses,
		run: func(ctx context.Context, p Params) string { return MSIStudy(ctx, p.Bits/4, p.Passes) }},
	{Name: "overhead", Title: "hardware cost table", uses: usesCores,
		run: func(_ context.Context, p Params) string { return Overhead(p.Cores) }},
	{Name: "arbitration", Title: "phase-priority arbitration study", uses: usesBits,
		run: func(ctx context.Context, p Params) string { return Arbitration(ctx, p.Bits/4) }},
	{Name: "scale", Title: "machine-scaling study: mesh + two-level directory",
		run: func(ctx context.Context, _ Params) string { return Scale(ctx) }},
	{Name: "scale-attack", Title: "covert channel vs machine scale", uses: usesBits,
		run: func(ctx context.Context, p Params) string { return ScaleAttack(ctx, p.Bits/8) }},
}

// Registry returns every experiment in report order. The slice is
// shared; callers must not mutate it.
func Registry() []Experiment { return registry }

// Names returns the experiment names in report order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// PolicyNames returns the coherence policies every registry experiment
// compares, in the paper's presentation order. It is part of the result
// cache's key derivation: a future change to the compared-policy set
// must fork the cache keys.
func PolicyNames() []string {
	names := make([]string, len(protocols))
	for i, p := range protocols {
		names[i] = p.Name()
	}
	return names
}

// ParseNames splits a comma-separated -exp value into registry names,
// in registry (report) order and deduplicated. "all" selects everything;
// an unknown name is reported with the full valid list.
func ParseNames(spec string) ([]string, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if f == "all" {
			return Names(), nil
		}
		if _, ok := Lookup(f); !ok {
			return nil, &UnknownExperimentError{Name: f}
		}
		want[f] = true
	}
	if len(want) == 0 {
		return nil, &UnknownExperimentError{Name: spec}
	}
	var out []string
	for _, e := range registry {
		if want[e.Name] {
			out = append(out, e.Name)
		}
	}
	return out, nil
}

// UnknownExperimentError names a rejected -exp / server spec value and
// renders the valid vocabulary, so every frontend lists the registry the
// same way.
type UnknownExperimentError struct{ Name string }

func (e *UnknownExperimentError) Error() string {
	return "unknown experiment " + strconvQuote(e.Name) + " (valid: all, " + strings.Join(Names(), ", ") + ")"
}

func strconvQuote(s string) string { return "\"" + s + "\"" }
