package experiments_test

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/resultcache"
)

// FuzzNormalize explores the request surface of the registry: arbitrary
// knob values for every experiment. Properties:
//
//   - Normalize never panics and is idempotent;
//   - NewKey rejects only with InvalidParamsError, and every request it
//     accepts normalizes to positive knobs;
//   - equivalent JSON requests get the same key ID: reordered fields,
//     extra whitespace, and an explicit default in place of a zero.
func FuzzNormalize(f *testing.F) {
	index := func(name string) uint8 {
		for i, n := range experiments.Names() {
			if n == name {
				return uint8(i)
			}
		}
		panic("no experiment " + name)
	}
	// Seeds: the malformed requests that once reached the simulator,
	// then the all-defaults request.
	f.Add(index("fig9"), 0.0, 0, 0, 0, 0, 0, 0, []byte{0xfd})
	f.Add(index("kernels"), 0.0, 0, 0, 0, 0, -1, 0, []byte(nil))
	f.Add(index("fig10a"), 0.0, 0, 0, 0, -2, 0, 0, []byte(nil))
	f.Add(index("fig6"), 0.0, -5, 0, 0, 0, 0, 0, []byte(nil))
	f.Add(index("fig7"), -1.0, 0, 0, 0, 0, 0, 0, []byte(nil))
	f.Add(index("security"), 0.0, 0, -8, 0, 0, 0, 0, []byte(nil))
	f.Add(index("security"), 0.0, 0, 16, 0, 0, 0, 0, []byte(nil))
	f.Fuzz(func(t *testing.T, exp uint8, scale float64, samples, bits, trials, passes, wskb, cores int, amounts []byte) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			t.Skip("not representable in JSON")
		}
		names := experiments.Names()
		e, _ := experiments.Lookup(names[int(exp)%len(names)])
		p := experiments.Params{Scale: scale, Samples: samples, Bits: bits, Trials: trials,
			Passes: passes, WSKB: wskb, Cores: cores}
		for _, b := range amounts {
			p.Amounts = append(p.Amounts, int(int8(b)))
		}

		n := e.Normalize(p)
		if again := e.Normalize(n); !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalize not idempotent:\n  once:  %+v\n  twice: %+v", n, again)
		}

		key, err := resultcache.NewKey(e.Name, p)
		var invalid *experiments.InvalidParamsError
		if err != nil && !errors.As(err, &invalid) {
			t.Fatalf("NewKey(%s, %+v): unexpected error %v", e.Name, p, err)
		}
		if err == nil {
			assertPositive(t, n)
		}

		// The same request, spelled three ways, must resolve identically.
		same := func(label string, q experiments.Params) {
			t.Helper()
			k, qerr := resultcache.NewKey(e.Name, q)
			if (qerr == nil) != (err == nil) || (err == nil && k.ID() != key.ID()) {
				t.Fatalf("%s resolves differently:\n  %+v -> %v\n  %+v -> %v", label, p, err, q, qerr)
			}
		}
		same("explicit defaults", withDefaults(p))
		compact, spaced := spellings(t, p)
		same("compact JSON", decode(t, compact))
		same("reordered, spaced JSON", decode(t, spaced))
	})
}

// assertPositive checks every knob an accepted request carries after
// normalization (unconsumed knobs are zero and skipped).
func assertPositive(t *testing.T, n experiments.Params) {
	t.Helper()
	if n.Scale < 0 || n.Samples < 0 || n.Bits < 0 || n.Trials < 0 ||
		n.Passes < 0 || n.WSKB < 0 || n.Cores < 0 {
		t.Fatalf("accepted a negative knob: %+v", n)
	}
	for _, a := range n.Amounts {
		if a <= 0 {
			t.Fatalf("accepted amount %d: %+v", a, n)
		}
	}
}

// withDefaults spells each zero knob as its explicit default. Trials
// stays zero: its default is the request's Bits, not a constant.
func withDefaults(p experiments.Params) experiments.Params {
	def := experiments.DefaultParams()
	fill := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	if p.Scale == 0 {
		p.Scale = def.Scale
	}
	fill(&p.Samples, def.Samples)
	fill(&p.Bits, def.Bits)
	fill(&p.Passes, def.Passes)
	fill(&p.WSKB, def.WSKB)
	fill(&p.Cores, def.Cores)
	if len(p.Amounts) == 0 {
		p.Amounts = append([]int(nil), experiments.Fig9Amounts...)
	}
	return p
}

// spellings renders p as a compact JSON object and as the same members
// in reverse order with whitespace around every token.
func spellings(t *testing.T, p experiments.Params) (compact, spaced string) {
	t.Helper()
	var obj map[string]json.RawMessage
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	var members []string
	for _, k := range []string{"scale", "samples", "bits", "trials", "passes", "amounts", "ws_kb", "cores"} {
		if v, ok := obj[k]; ok {
			members = append(members, `"`+k+`":`+string(v))
		}
	}
	compact = "{" + strings.Join(members, ",") + "}"
	for i, j := 0, len(members)-1; i < j; i, j = i+1, j-1 {
		members[i], members[j] = members[j], members[i]
	}
	for i, m := range members {
		members[i] = strings.Replace(m, ":", " :\t", 1)
	}
	spaced = "{\n  " + strings.Join(members, " ,\n  ") + "\n}"
	return compact, spaced
}

func decode(t *testing.T, text string) experiments.Params {
	t.Helper()
	var p experiments.Params
	if err := json.Unmarshal([]byte(text), &p); err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	return p
}
