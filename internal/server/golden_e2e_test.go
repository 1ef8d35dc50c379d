package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/resultcache"
	"repro/internal/stats"
)

// goldenSpecs maps the committed golden-report grid
// (internal/experiments/testdata/golden_reports.json) onto server specs:
// each entry's Params must normalize to exactly the parameterization the
// golden hash was captured with. ablation-ewp/ablation-war are absent —
// the registry's "ablation" experiment concatenates both, so it is
// checked against a fresh in-process run instead (TestServerAblation).
var goldenSpecs = []struct {
	name  string
	p     experiments.Params
	heavy bool // skipped under -short, mirroring the golden suite
}{
	{name: "fig7", p: experiments.Params{Scale: 0.02}, heavy: true},
	{name: "fig8", p: experiments.Params{Scale: 0.02}, heavy: true},
	{name: "fig9", p: experiments.Params{Amounts: []int{1000, 2000}}},
	{name: "fig10a", p: experiments.Params{Passes: 1}},
	{name: "fig10b", p: experiments.Params{Passes: 1}},
	{name: "security", p: experiments.Params{Bits: 64, Trials: 64}},
	{name: "multiprogram", p: experiments.Params{Scale: 0.02}, heavy: true},
	{name: "sweep"},
	{name: "lru", p: experiments.Params{Scale: 0.05}, heavy: true},
	{name: "traffic"},
	{name: "msi", p: experiments.Params{Bits: 128, Passes: 1}},   // MSIStudy(bits/4=32, 1)
	{name: "moesi", p: experiments.Params{Bits: 128, Passes: 1}}, // MOESIStudy(bits/4=32, 1)
	{name: "snoop", p: experiments.Params{Bits: 128}},            // SnoopStudy(bits/4=32)
	{name: "kernels", p: experiments.Params{WSKB: 64}},           // KernelStudy(64)
}

// TestServerGoldenEquivalence is the end-to-end determinism proof behind
// the memoization: for each golden-suite experiment the server's *cached*
// response bytes hash to the same committed SHA-256 the in-process golden
// test pins. A hit is therefore provably byte-identical to a re-run — the
// property that makes serving from the content-addressed cache sound.
func TestServerGoldenEquivalence(t *testing.T) {
	raw, err := os.ReadFile("../experiments/testdata/golden_reports.json")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}

	// Mirror the golden suite's single-worker setup (the hashes were
	// captured at -j 1; the repo's j1-vs-jN equivalence tests cover the
	// parallel case separately).
	st := &stats.CacheStats{}
	s := New(Config{Cache: resultcache.New(64, "", st, discardLog), SimWorkers: 1, Logf: discardLog})
	defer drainNow(t, s)
	h := s.Handler()

	for _, tc := range goldenSpecs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("suite runs are slow")
			}
			want, ok := golden[tc.name]
			if !ok {
				t.Fatalf("no golden hash for %s", tc.name)
			}
			miss := postJSON(h, "/v1/run", Spec{Experiment: tc.name, Params: tc.p})
			if miss.Code != http.StatusOK {
				t.Fatalf("cold run: %d %s", miss.Code, miss.Body)
			}
			if got := miss.Header().Get("X-Swiftdir-Cache"); got != "miss" {
				t.Fatalf("cold run source = %q, want miss", got)
			}
			hit := postJSON(h, "/v1/run", Spec{Experiment: tc.name, Params: tc.p})
			if hit.Code != http.StatusOK {
				t.Fatalf("warm run: %d %s", hit.Code, hit.Body)
			}
			if got := hit.Header().Get("X-Swiftdir-Cache"); got != "hit" {
				t.Fatalf("warm run source = %q, want hit", got)
			}
			if !bytes.Equal(miss.Body.Bytes(), hit.Body.Bytes()) {
				t.Fatal("hit bytes differ from the fresh run")
			}
			sum := sha256.Sum256(hit.Body.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("cached response hash %s differs from golden %s", got, want)
			}
		})
	}
}

// The registry's "ablation" experiment concatenates the two golden
// ablations; its server bytes are compared against a fresh in-process
// run, the same hit-equals-recompute property without a committed hash.
func TestServerAblationMatchesInProcessRun(t *testing.T) {
	s, _ := newTestServer(t, Config{SimWorkers: 1}, nil)
	s.run = s.runRegistry // real runner, memory-only cache
	h := s.Handler()

	p := experiments.Params{Bits: 32, Passes: 1}
	w := postJSON(h, "/v1/run", Spec{Experiment: "ablation", Params: p})
	if w.Code != http.StatusOK {
		t.Fatalf("run: %d %s", w.Code, w.Body)
	}
	exp, _ := experiments.Lookup("ablation")
	if fresh := exp.Run(context.Background(), p); w.Body.String() != fresh {
		t.Errorf("server bytes differ from in-process run:\n--- server ---\n%s\n--- fresh ---\n%s", w.Body, fresh)
	}
	hit := postJSON(h, "/v1/run", Spec{Experiment: "ablation", Params: p})
	if hit.Header().Get("X-Swiftdir-Cache") != "hit" || !bytes.Equal(hit.Body.Bytes(), w.Body.Bytes()) {
		t.Error("cached ablation bytes differ from the fresh run")
	}
}

// TestServerHitLatency pins the point of the cache: a fig6 hit must be at
// least 100x faster than the cold run that populated it.
func TestServerHitLatency(t *testing.T) {
	st := &stats.CacheStats{}
	s := New(Config{Cache: resultcache.New(8, "", st, discardLog), SimWorkers: 1, Logf: discardLog})
	defer drainNow(t, s)
	h := s.Handler()

	spec := Spec{Experiment: "fig6"}
	cold := postJSON(h, "/v1/run", spec)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold fig6: %d %s", cold.Code, cold.Body)
	}
	coldNS, _ := strconv.ParseInt(cold.Header().Get("X-Swiftdir-Wall-Ns"), 10, 64)
	if coldNS < int64(1e6) {
		t.Skipf("cold fig6 only %dns on this host; speedup unmeasurable", coldNS)
	}
	// Best hit of a few tries, to shrug off scheduler noise.
	best := int64(1 << 62)
	for i := 0; i < 5; i++ {
		hit := postJSON(h, "/v1/run", spec)
		if hit.Header().Get("X-Swiftdir-Cache") != "hit" {
			t.Fatalf("try %d not a hit", i)
		}
		ns, _ := strconv.ParseInt(hit.Header().Get("X-Swiftdir-Wall-Ns"), 10, 64)
		if ns < best {
			best = ns
		}
	}
	if best*100 > coldNS {
		t.Errorf("hit %dns vs cold %dns: speedup %.1fx < 100x", best, coldNS, float64(coldNS)/float64(best))
	}
}

// TestServerRepeatedBatchAllHits drives the CI scenario in-process: the
// same batch submitted twice sees a 100%% hit rate and byte-identical
// reports on the second pass.
func TestServerRepeatedBatchAllHits(t *testing.T) {
	st := &stats.CacheStats{}
	s := New(Config{Cache: resultcache.New(16, "", st, discardLog), SimWorkers: 1, Logf: discardLog})
	defer drainNow(t, s)
	h := s.Handler()

	batch := map[string]any{"specs": []Spec{
		{Experiment: "table5"}, {Experiment: "overhead"}, {Experiment: "traffic"},
	}}
	bodies := make([]map[string]string, 2)
	for pass := 0; pass < 2; pass++ {
		w := postJSON(h, "/v1/batch", batch)
		if w.Code != http.StatusAccepted {
			t.Fatalf("pass %d: %d %s", pass, w.Code, w.Body)
		}
		var resp struct {
			Jobs []struct{ ID, Experiment string }
		}
		json.Unmarshal(w.Body.Bytes(), &resp)
		bodies[pass] = map[string]string{}
		for _, ref := range resp.Jobs {
			var js jobStatus
			waitFor(t, func() bool {
				json.Unmarshal(get(h, "/v1/jobs/"+ref.ID).Body.Bytes(), &js)
				return js.State == stateDone || js.State == stateFailed
			})
			if js.State != stateDone {
				t.Fatalf("pass %d job %s: %+v", pass, ref.ID, js)
			}
			if pass == 1 && js.Cache != "hit" {
				t.Errorf("second pass %s source = %q, want hit", ref.Experiment, js.Cache)
			}
			bodies[pass][ref.Experiment] = get(h, "/v1/jobs/"+ref.ID+"/report").Body.String()
		}
	}
	for name, body := range bodies[0] {
		if bodies[1][name] != body {
			t.Errorf("%s: second-pass bytes differ", name)
		}
	}
	if snap := st.Snapshot(); snap.Runs != 3 {
		t.Errorf("underlying runs = %d, want 3 (second pass 100%% hits)", snap.Runs)
	}
}
