package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// The registry is the one dispatch table; it must cover every experiment
// the CLI historically exposed, in report order, with no duplicates.
func TestRegistryNamesCompleteAndUnique(t *testing.T) {
	want := []string{
		"table5", "table4", "fig4", "fig5", "fig6", "fig6jitter", "security",
		"fig7", "fig8", "fig9", "fig10a", "fig10b", "ablation", "traffic",
		"futurework", "moesi", "snoop", "multiprogram", "lru", "prefetch",
		"numa", "kernels", "sweep", "msi", "overhead", "arbitration",
		"scale", "scale-attack",
	}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v\nwant %v", got, want)
	}
	for _, e := range Registry() {
		if e.Title == "" {
			t.Errorf("%s: empty title", e.Name)
		}
		if e.run == nil {
			t.Errorf("%s: nil runner", e.Name)
		}
	}
}

func TestLookup(t *testing.T) {
	if e, ok := Lookup("fig6"); !ok || e.Name != "fig6" {
		t.Errorf("Lookup(fig6) = %+v, %v", e, ok)
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}

func TestNormalizeClearsUnusedAndResolvesDefaults(t *testing.T) {
	// table5 consumes nothing: every knob normalizes away.
	e, _ := Lookup("table5")
	if got := e.Normalize(Params{Scale: 0.9, Bits: 7, Amounts: []int{1}}); !reflect.DeepEqual(got, Params{}) {
		t.Errorf("table5 normalize = %+v, want zero", got)
	}

	// fig7 consumes only Scale; zero resolves to the default, other knobs
	// are cleared.
	f, _ := Lookup("fig7")
	if got := f.Normalize(Params{Bits: 7}); !reflect.DeepEqual(got, Params{Scale: 0.25}) {
		t.Errorf("fig7 normalize = %+v, want {Scale:0.25}", got)
	}
	if got := f.Normalize(Params{Scale: 0.02}); !reflect.DeepEqual(got, Params{Scale: 0.02}) {
		t.Errorf("fig7 explicit scale = %+v", got)
	}

	// security's Trials default is its Bits value (the CLI's historical
	// behaviour), tracking an explicit Bits override.
	s, _ := Lookup("security")
	if got := s.Normalize(Params{Bits: 64}); got.Trials != 64 || got.Bits != 64 {
		t.Errorf("security normalize = %+v, want trials=bits=64", got)
	}
	if got := s.Normalize(Params{Bits: 64, Trials: 8}); got.Trials != 8 {
		t.Errorf("security explicit trials = %+v", got)
	}

	// fig9's empty sweep resolves to the paper's grid, and explicit
	// amounts are copied and sorted (cache keys must not depend on
	// request-side ordering or later mutation).
	g, _ := Lookup("fig9")
	if got := g.Normalize(Params{}); !reflect.DeepEqual(got.Amounts, Fig9Amounts) {
		t.Errorf("fig9 default amounts = %v", got.Amounts)
	}
	in := []int{3000, 1000}
	got := g.Normalize(Params{Amounts: in})
	if !reflect.DeepEqual(got.Amounts, []int{1000, 3000}) {
		t.Errorf("fig9 amounts not sorted: %v", got.Amounts)
	}
	in[0] = 99
	if got.Amounts[1] == 99 {
		t.Error("normalize aliased the caller's amounts slice")
	}
}

func TestPolicyNames(t *testing.T) {
	if got := PolicyNames(); !reflect.DeepEqual(got, []string{"MESI", "SwiftDir", "S-MESI"}) {
		t.Errorf("PolicyNames() = %v", got)
	}
}

func TestParseNames(t *testing.T) {
	if got, err := ParseNames("all"); err != nil || len(got) != len(Names()) {
		t.Errorf("ParseNames(all) = %v, %v", got, err)
	}
	// Report order and dedup, regardless of request order.
	got, err := ParseNames("overhead, traffic ,overhead")
	if err != nil || !reflect.DeepEqual(got, []string{"traffic", "overhead"}) {
		t.Errorf("ParseNames(list) = %v, %v", got, err)
	}
	if _, err := ParseNames("table5,fig99"); err == nil {
		t.Error("unknown name in list accepted")
	} else if !strings.Contains(err.Error(), "valid: all,") {
		t.Errorf("error does not list the vocabulary: %v", err)
	}
	if _, err := ParseNames(""); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := ParseNames(" , "); err == nil {
		t.Error("blank spec accepted")
	}
}

// Registry runs must match the direct experiment calls byte for byte —
// the CLI and server dispatch through here, the golden suite calls the
// functions directly, and both must pin the same bytes.
func TestRegistryRunMatchesDirectCall(t *testing.T) {
	e, _ := Lookup("overhead")
	if got, want := e.Run(context.Background(), Params{}), Overhead(4); got != want {
		t.Errorf("overhead via registry differs from direct call")
	}
	k, _ := Lookup("kernels")
	if got, want := k.Run(context.Background(), Params{WSKB: 64}), KernelStudy(context.Background(), 64); got != want {
		t.Errorf("kernels via registry differs from direct call")
	}
}
