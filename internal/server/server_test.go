package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/resultcache"
	"repro/internal/stats"
)

func discardLog(string, ...any) {}

// newTestServer builds a server over a memory-only cache and a fake
// runner that produces deterministic bytes per experiment name.
func newTestServer(t *testing.T, cfg Config, runs *atomic.Int64) (*Server, *stats.CacheStats) {
	t.Helper()
	st := &stats.CacheStats{}
	if cfg.Cache == nil {
		cfg.Cache = resultcache.New(32, "", st, discardLog)
	}
	if cfg.Logf == nil {
		cfg.Logf = discardLog
	}
	if cfg.Run == nil {
		cfg.Run = func(_ context.Context, key resultcache.Key) (*resultcache.Entry, error) {
			if runs != nil {
				runs.Add(1)
			}
			return &resultcache.Entry{
				Report: []byte("report for " + key.Experiment + "\n"),
				Wall:   42 * time.Millisecond,
			}, nil
		}
	}
	s := New(cfg)
	t.Cleanup(func() { drainNow(t, s) })
	return s, st
}

func drainNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

func postJSON(h http.Handler, path string, body any) *httptest.ResponseRecorder {
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
	return w
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

func TestRunEndpointMissThenHit(t *testing.T) {
	var runs atomic.Int64
	s, st := newTestServer(t, Config{}, &runs)
	h := s.Handler()
	spec := Spec{Experiment: "table5"}

	first := postJSON(h, "/v1/run", spec)
	if first.Code != http.StatusOK {
		t.Fatalf("first run: %d %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Swiftdir-Cache"); got != "miss" {
		t.Errorf("first X-Swiftdir-Cache = %q, want miss", got)
	}

	second := postJSON(h, "/v1/run", spec)
	if second.Code != http.StatusOK {
		t.Fatalf("second run: %d %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-Swiftdir-Cache"); got != "hit" {
		t.Errorf("second X-Swiftdir-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("hit body differs from miss body")
	}
	if first.Header().Get("X-Swiftdir-Key") != second.Header().Get("X-Swiftdir-Key") {
		t.Error("key header differs between identical specs")
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("underlying runs = %d, want 1", got)
	}
	if s := st.Snapshot(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", s.Hits, s.Misses)
	}

	// A normalization-equivalent spec (irrelevant knob set) is the same key.
	third := postJSON(h, "/v1/run", Spec{Experiment: "table5", Params: experiments.Params{Scale: 0.9}})
	if got := third.Header().Get("X-Swiftdir-Cache"); got != "hit" {
		t.Errorf("normalized-equivalent spec: cache = %q, want hit", got)
	}
}

// Every compute runs on its own stats.Recorder, sized by SimWorkers, so
// overlapping jobs never share a pool size or accounting.
func TestEachComputeGetsItsOwnRecorder(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]*stats.Recorder{}
	s, _ := newTestServer(t, Config{SimWorkers: 3, Run: func(ctx context.Context, key resultcache.Key) (*resultcache.Entry, error) {
		mu.Lock()
		seen[key.Experiment] = stats.RecorderFrom(ctx)
		mu.Unlock()
		return &resultcache.Entry{Report: []byte(key.Experiment)}, nil
	}}, nil)
	h := s.Handler()
	for _, name := range []string{"table5", "fig4"} {
		if w := postJSON(h, "/v1/run", Spec{Experiment: name}); w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", name, w.Code, w.Body)
		}
	}
	a, b := seen["table5"], seen["fig4"]
	if a == nil || b == nil || a == b {
		t.Fatalf("recorders %p and %p: want two distinct, non-nil", a, b)
	}
	if a.Workers != 3 || b.Workers != 3 {
		t.Errorf("recorder Workers %d and %d, want SimWorkers 3", a.Workers, b.Workers)
	}
}

func TestRunRejectsUnknownExperimentAndBadJSON(t *testing.T) {
	s, _ := newTestServer(t, Config{}, nil)
	h := s.Handler()

	w := postJSON(h, "/v1/run", Spec{Experiment: "fig99"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown experiment: %d", w.Code)
	}
	// The error must teach the vocabulary: every registry name listed.
	for _, name := range experiments.Names() {
		if !strings.Contains(w.Body.String(), name) {
			t.Errorf("unknown-experiment error missing %q", name)
		}
	}

	raw := httptest.NewRecorder()
	h.ServeHTTP(raw, httptest.NewRequest("POST", "/v1/run", strings.NewReader("{nope")))
	if raw.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", raw.Code)
	}
}

func TestRunnerErrorIs500(t *testing.T) {
	s, _ := newTestServer(t, Config{
		Run: func(context.Context, resultcache.Key) (*resultcache.Entry, error) {
			return nil, fmt.Errorf("model diverged")
		},
	}, nil)
	w := postJSON(s.Handler(), "/v1/run", Spec{Experiment: "table5"})
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "model diverged") {
		t.Errorf("runner error: %d %s", w.Code, w.Body)
	}
}

// N concurrent identical submissions observe exactly one underlying run:
// one miss, N-1 dedups, every body byte-identical.
func TestConcurrentIdenticalRunsDedup(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	s, st := newTestServer(t, Config{
		QueueDepth: 64,
		Run: func(_ context.Context, key resultcache.Key) (*resultcache.Entry, error) {
			runs.Add(1)
			<-release
			return &resultcache.Entry{Report: []byte("shared report")}, nil
		},
	}, nil)
	h := s.Handler()

	const n = 8
	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = postJSON(h, "/v1/run", Spec{Experiment: "overhead"})
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.Dedups.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters joined the flight", st.Dedups.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("underlying runs = %d, want 1", got)
	}
	sources := map[string]int{}
	for i, w := range recs {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, w.Code, w.Body)
		}
		if w.Body.String() != "shared report" {
			t.Fatalf("request %d body = %q", i, w.Body)
		}
		sources[w.Header().Get("X-Swiftdir-Cache")]++
	}
	if sources["miss"] != 1 || sources["dedup"] != n-1 {
		t.Errorf("sources = %v, want 1 miss + %d dedup", sources, n-1)
	}
}

func TestBatchLifecycle(t *testing.T) {
	var runs atomic.Int64
	s, _ := newTestServer(t, Config{Workers: 2}, &runs)
	h := s.Handler()

	w := postJSON(h, "/v1/batch", map[string]any{
		"specs": []Spec{{Experiment: "table5"}, {Experiment: "overhead"}},
	})
	if w.Code != http.StatusAccepted {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}
	var resp struct {
		Batch string
		Jobs  []struct{ ID, Experiment, Key string }
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Batch == "" || len(resp.Jobs) != 2 {
		t.Fatalf("batch response: %+v", resp)
	}

	// Poll each job to done and fetch its report.
	for _, ref := range resp.Jobs {
		var st jobStatus
		deadline := time.Now().Add(30 * time.Second)
		for {
			jw := get(h, "/v1/jobs/"+ref.ID)
			if jw.Code != http.StatusOK {
				t.Fatalf("job %s: %d", ref.ID, jw.Code)
			}
			if err := json.Unmarshal(jw.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.State == stateDone || st.State == stateFailed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", ref.ID, st.State)
			}
			time.Sleep(time.Millisecond)
		}
		if st.State != stateDone || st.ReportBytes == 0 {
			t.Fatalf("job %s: %+v", ref.ID, st)
		}
		rw := get(h, "/v1/jobs/"+ref.ID+"/report")
		if rw.Code != http.StatusOK {
			t.Fatalf("report %s: %d", ref.ID, rw.Code)
		}
		want := "report for " + ref.Experiment + "\n"
		if rw.Body.String() != want {
			t.Errorf("report %s = %q, want %q", ref.ID, rw.Body, want)
		}
		if rw.Header().Get("X-Swiftdir-Key") != ref.Key {
			t.Errorf("report key header mismatch for %s", ref.ID)
		}
	}

	// The stream endpoint replays to the terminal state.
	sw := get(h, "/v1/jobs/"+resp.Jobs[0].ID+"/stream")
	if !strings.Contains(sw.Body.String(), "state=done") {
		t.Errorf("stream = %q, want a state=done line", sw.Body)
	}

	// A second identical batch is served from cache.
	w2 := postJSON(h, "/v1/batch", map[string]any{
		"specs": []Spec{{Experiment: "table5"}, {Experiment: "overhead"}},
	})
	if w2.Code != http.StatusAccepted {
		t.Fatalf("second batch: %d", w2.Code)
	}
	var resp2 struct {
		Jobs []struct{ ID string }
	}
	json.Unmarshal(w2.Body.Bytes(), &resp2)
	for _, ref := range resp2.Jobs {
		var st jobStatus
		deadline := time.Now().Add(30 * time.Second)
		for st.State != stateDone {
			if time.Now().After(deadline) {
				t.Fatalf("cached job %s stuck", ref.ID)
			}
			json.Unmarshal(get(h, "/v1/jobs/"+ref.ID).Body.Bytes(), &st)
			time.Sleep(time.Millisecond)
		}
		if st.Cache != "hit" {
			t.Errorf("second-batch job %s cache = %q, want hit", ref.ID, st.Cache)
		}
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("underlying runs = %d, want 2 (second batch all hits)", got)
	}

	if get(h, "/v1/jobs/j999").Code != http.StatusNotFound {
		t.Error("missing job not 404")
	}
	if postJSON(h, "/v1/batch", map[string]any{"specs": []Spec{}}).Code != http.StatusBadRequest {
		t.Error("empty batch not 400")
	}
}

// When the queue cannot take the whole batch, admission fails atomically
// with 429 — no partial batches.
func TestBatchBackpressure(t *testing.T) {
	release := make(chan struct{})
	s, _ := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		Run: func(_ context.Context, key resultcache.Key) (*resultcache.Entry, error) {
			<-release
			return &resultcache.Entry{Report: []byte("r")}, nil
		},
	}, nil)
	h := s.Handler()

	if w := postJSON(h, "/v1/batch", map[string]any{"specs": []Spec{{Experiment: "table5"}, {Experiment: "overhead"}}}); w.Code != http.StatusAccepted {
		t.Fatalf("first batch: %d %s", w.Code, w.Body)
	}
	// Queue holds 2; even after the worker picks one up, a 2-spec batch
	// needs 2 free slots and at most 1 is free.
	w := postJSON(h, "/v1/batch", map[string]any{"specs": []Spec{{Experiment: "traffic"}, {Experiment: "sweep"}}})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity batch: %d, want 429", w.Code)
	}
	if !strings.Contains(w.Body.String(), "retry later") {
		t.Errorf("429 body not actionable: %s", w.Body)
	}
	close(release)
}

// Synchronous computes are bounded by the queue depth too; cache hits are
// exempt from back-pressure.
func TestRunBackpressureAndHitExemption(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s, _ := newTestServer(t, Config{
		QueueDepth: 1,
		Run: func(_ context.Context, key resultcache.Key) (*resultcache.Entry, error) {
			if key.Experiment == "overhead" {
				<-release
			}
			return &resultcache.Entry{Report: []byte("r " + key.Experiment)}, nil
		},
	}, nil)
	defer once.Do(func() { close(release) })
	h := s.Handler()

	// Warm one entry so we can prove hits bypass the gate.
	if w := postJSON(h, "/v1/run", Spec{Experiment: "table5"}); w.Code != http.StatusOK {
		t.Fatalf("warm: %d", w.Code)
	}

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postJSON(h, "/v1/run", Spec{Experiment: "overhead"}) }()
	deadline := time.Now().Add(10 * time.Second)
	for s.syncWait.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocking compute never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	if w := postJSON(h, "/v1/run", Spec{Experiment: "traffic"}); w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated sync compute: %d, want 429", w.Code)
	}
	if w := postJSON(h, "/v1/run", Spec{Experiment: "table5"}); w.Code != http.StatusOK || w.Header().Get("X-Swiftdir-Cache") != "hit" {
		t.Fatalf("cache hit refused under saturation: %d %s", w.Code, w.Header().Get("X-Swiftdir-Cache"))
	}

	once.Do(func() { close(release) })
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("blocked compute: %d", w.Code)
	}
}

func TestDrainRefusesNewWorkButServesHits(t *testing.T) {
	s, _ := newTestServer(t, Config{}, nil)
	h := s.Handler()

	if w := get(h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", w.Code)
	}
	if w := postJSON(h, "/v1/run", Spec{Experiment: "table5"}); w.Code != http.StatusOK {
		t.Fatalf("warm: %d", w.Code)
	}

	drainNow(t, s)
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if w := get(h, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d, want 503", w.Code)
	}
	if w := postJSON(h, "/v1/batch", map[string]any{"specs": []Spec{{Experiment: "overhead"}}}); w.Code != http.StatusServiceUnavailable {
		t.Errorf("batch during drain: %d, want 503", w.Code)
	}
	if w := postJSON(h, "/v1/run", Spec{Experiment: "overhead"}); w.Code != http.StatusServiceUnavailable {
		t.Errorf("fresh compute during drain: %d, want 503", w.Code)
	}
	// Cache hits cost microseconds and stay available to the end.
	if w := postJSON(h, "/v1/run", Spec{Experiment: "table5"}); w.Code != http.StatusOK || w.Header().Get("X-Swiftdir-Cache") != "hit" {
		t.Errorf("cache hit during drain: %d %s", w.Code, w.Header().Get("X-Swiftdir-Cache"))
	}
}

func TestStatszAndExperiments(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 3, QueueDepth: 7}, nil)
	h := s.Handler()
	postJSON(h, "/v1/run", Spec{Experiment: "table5"})
	postJSON(h, "/v1/run", Spec{Experiment: "table5"})

	w := get(h, "/statsz")
	var st struct {
		Cache      stats.CacheSnapshot `json:"cache"`
		QueueDepth int                 `json:"queue_depth"`
		Workers    int                 `json:"workers"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("statsz: %v (%s)", err, w.Body)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Workers != 3 || st.QueueDepth != 7 {
		t.Errorf("statsz = %+v", st)
	}

	ew := get(h, "/v1/experiments")
	var items []struct{ Name, Title string }
	if err := json.Unmarshal(ew.Body.Bytes(), &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != len(experiments.Names()) {
		t.Errorf("experiments endpoint lists %d names, registry has %d", len(items), len(experiments.Names()))
	}
}

// Request bodies whose params normalize to a knob the experiment cannot
// run with. Without validation the first three, and the two below an
// experiment's own minimum, reach the simulator and panic (a 500
// "diverged" with a crash bundle); the other three render a nonsense
// report that would be cached.
var malformedSpecs = []struct{ name, field, body string }{
	{"fig9", "amounts", `{"experiment":"fig9","params":{"amounts":[-3]}}`},
	{"kernels", "ws_kb", `{"experiment":"kernels","params":{"ws_kb":-1}}`},
	{"fig10a", "passes", `{"experiment":"fig10a","params":{"passes":-2}}`},
	{"fig6", "samples", `{"experiment":"fig6","params":{"samples":-5}}`},
	{"fig7", "scale", `{"experiment":"fig7","params":{"scale":-1}}`},
	{"security", "bits", `{"experiment":"security","params":{"bits":-8}}`},
	{"kernels-min", "ws_kb", `{"experiment":"kernels","params":{"ws_kb":3}}`},
	{"futurework-min", "bits", `{"experiment":"futurework","params":{"bits":3}}`},
}

// A malformed spec is a client error on both endpoints: 400 naming the
// knob, no simulation, no cache entry, no crash bundle. The server runs
// the real registry runner, so a spec that slipped through would run.
func TestMalformedParamsRejected(t *testing.T) {
	dir := t.TempDir()
	st := &stats.CacheStats{}
	cache := resultcache.New(32, "", st, discardLog)
	s := New(Config{Cache: cache, Logf: discardLog, BundleDir: dir})
	t.Cleanup(func() { drainNow(t, s) })
	h := s.Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return w
	}
	for _, tc := range malformedSpecs {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []*httptest.ResponseRecorder{
				post("/v1/run", tc.body),
				post("/v1/batch", `{"specs":[`+tc.body+`]}`),
			} {
				if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.field) {
					t.Errorf("got %d %q, want 400 naming %s", w.Code, w.Body, tc.field)
				}
			}
		})
	}
	if n := cache.Len(); n != 0 {
		t.Errorf("%d cache entries after malformed specs, want 0", n)
	}
	if snap := st.Snapshot(); snap.Runs != 0 {
		t.Errorf("%d simulations started, want 0", snap.Runs)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("bundle dir holds %d entries (err %v), want none", len(entries), err)
	}
}
