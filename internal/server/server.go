// Package server is the simulation-as-a-service layer: a long-running
// HTTP/JSON front end that schedules experiment specs on the existing
// campaign machinery and memoizes every report in the content-addressed
// result cache (internal/resultcache).
//
// The serving contract rests on the repo's determinism guarantee: a
// report is a pure function of its cache key, so a hit is byte-identical
// to a re-run (asserted end to end against the committed golden hashes
// in golden_e2e_test.go). Overlapping parameter sweeps from many clients
// therefore mostly collapse into O(1) lookups — and identical specs that
// are *in flight* collapse too, via singleflight dedup: N concurrent
// identical requests cost one simulation and produce N responses.
//
// Endpoints:
//
//	POST /v1/run             synchronous: raw report bytes (metadata in
//	                         X-Swiftdir-* headers so bodies stay
//	                         byte-identical across hit/miss/dedup)
//	POST /v1/batch           enqueue a batch of specs; 429 when the
//	                         bounded queue cannot take the whole batch
//	GET  /v1/jobs/{id}       job status JSON
//	GET  /v1/jobs/{id}/report raw report bytes once done (202 before)
//	GET  /v1/jobs/{id}/stream plain-text state transitions as they happen
//	GET  /v1/experiments     the registry vocabulary
//	GET  /healthz            200 ok / 503 draining
//	GET  /statsz             cache + queue counters (stats.CacheStats)
//
// Graceful drain: Drain stops intake (healthz flips to 503, batch
// submissions are refused), lets queued jobs finish, and returns when
// the workers are idle or the context expires — the SIGTERM path of
// cmd/swiftdir-serve.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/resultcache"
	"repro/internal/stats"
)

// Spec is the wire form of one experiment request. Params are normalized
// by the registry before keying, so a spec only needs the knobs it cares
// about.
type Spec struct {
	Experiment string             `json:"experiment"`
	Params     experiments.Params `json:"params"`

	// TimeoutMS, when positive, bounds this request's compute time in
	// milliseconds; past it the run is aborted mid-simulation and the
	// request fails with a typed "cancelled" error. It is a request
	// attribute, not an experiment knob: it does not participate in the
	// cache key, so a timed-out spec retried without the deadline is the
	// same cache entry.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Config wires a Server.
type Config struct {
	// Cache is the content-addressed store (required).
	Cache *resultcache.Cache
	// Workers is the batch worker-pool size (default 2). Each worker runs
	// one experiment at a time; the experiment itself fans out over the
	// campaign pool, so a couple of workers saturate a host.
	Workers int
	// SimWorkers sizes each job's campaign pool (the -j flag); 0 means
	// runtime.NumCPU(). It reaches the run through the job's
	// stats.Recorder.
	SimWorkers int
	// QueueDepth bounds the batch job queue and the number of synchronous
	// computes allowed to wait; beyond it requests are refused with 429
	// (default 64).
	QueueDepth int
	// Run overrides the experiment runner (tests). nil runs the registry.
	// The context is cancelled when the client disconnects, the job's
	// deadline passes, or the server force-drains; a run that returns on
	// cancellation must return a non-nil error so the result cache is
	// never populated with a partial report.
	Run func(ctx context.Context, key resultcache.Key) (*resultcache.Entry, error)
	// JobTimeout, when positive, is the default per-job compute deadline
	// (the -job-timeout flag); a spec's timeout_ms overrides it per
	// request.
	JobTimeout time.Duration
	// BundleDir, when set, receives a crash bundle for every diverging
	// run (fault.WriteBundle); the failure response references the
	// bundle directory.
	BundleDir string
	// Logf receives operational warnings (default stderr).
	Logf func(format string, args ...any)
}

// Server resolves specs through cache → singleflight → compute and owns
// the batch queue, the job registry, and the drain lifecycle.
type Server struct {
	cache  *resultcache.Cache
	flight *resultcache.Flight
	stats  *stats.CacheStats
	run    func(ctx context.Context, key resultcache.Key) (*resultcache.Entry, error)
	logf   func(string, ...any)

	jobTimeout time.Duration
	bundleDir  string
	simWorkers int
	cancelled  atomic.Int64 // runs aborted by deadline/disconnect/drain

	// baseCtx parents every compute; Drain cancels it once its own
	// context expires, aborting in-flight simulations instead of leaving
	// workers wedged behind a long run.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	workers    int
	queueDepth int
	queue      chan *job
	wg         sync.WaitGroup

	mu       sync.Mutex // guards jobs, queueClosed, batch/job id counters
	jobs     map[string]*job
	nextJob  int
	nextBat  int
	qClosed  bool
	queued   int // jobs enqueued but not yet picked up (exact, unlike len(queue))
	draining atomic.Bool
	syncWait atomic.Int64 // synchronous computes in progress or waiting
	started  time.Time
}

// New builds and starts a Server (its batch workers run until Drain).
func New(cfg Config) *Server {
	if cfg.Cache == nil {
		panic("server: Config.Cache is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "swiftdir-serve: "+format+"\n", args...)
		}
	}
	baseCtx, baseCancel := context.WithCancelCause(context.Background())
	s := &Server{
		cache:      cfg.Cache,
		flight:     resultcache.NewFlight(cfg.Cache.Stats()),
		stats:      cfg.Cache.Stats(),
		run:        cfg.Run,
		logf:       cfg.Logf,
		jobTimeout: cfg.JobTimeout,
		bundleDir:  cfg.BundleDir,
		simWorkers: cfg.SimWorkers,
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		workers:    cfg.Workers,
		queueDepth: cfg.QueueDepth,
		queue:      make(chan *job, cfg.QueueDepth),
		jobs:       make(map[string]*job),
		started:    time.Now(),
	}
	if s.run == nil {
		s.run = s.runRegistry
	}
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Sentinel resolution refusals, mapped to HTTP statuses by the handlers.
var (
	errDraining = fmt.Errorf("draining")
	errBusy     = fmt.Errorf("compute queue full; retry later")
)

// resolve serves one spec's key: cache hit, in-flight share, or a fresh
// run (which populates the cache). source is "hit", "dedup", or "miss".
// admit, when non-nil, is consulted after a cache miss and before any
// compute — the hook synchronous requests use for back-pressure, so a
// hit is always served even on a saturated or draining server.
// A cancelled run (ctx fired mid-simulation) returns a *CancelledError
// and never reaches the cache: Put happens only on a nil-error compute,
// so a later identical request is an honest miss that runs to
// completion. Singleflight waiters share the leader's outcome by
// construction — if the leader's context aborts the run, every waiter
// observes that cancellation rather than a bogus entry.
func (s *Server) resolve(ctx context.Context, key resultcache.Key, admit func() error) (e *resultcache.Entry, source string, err error) {
	id := key.ID()
	s.stats.Inflight.Add(1)
	defer s.stats.Inflight.Add(-1)
	if e, ok := s.cache.Get(id); ok {
		return e, "hit", nil
	}
	if admit != nil {
		if err := admit(); err != nil {
			return nil, "", err
		}
		defer s.syncWait.Add(-1)
	}
	e, shared, err := s.flight.Do(id, func() (*resultcache.Entry, error) {
		// Each compute gets its own recorder, so overlapping jobs never
		// share a pool size or accounting.
		rctx := stats.WithRecorder(ctx, &stats.Recorder{Workers: s.simWorkers})
		ent, err := s.run(rctx, key)
		if err != nil {
			var ce *CancelledError
			if errors.As(err, &ce) {
				s.cancelled.Add(1)
			}
			return nil, err
		}
		ent.Key = key
		s.cache.Put(ent)
		return ent, nil
	})
	if shared {
		return e, "dedup", err
	}
	return e, "miss", err
}

// jobCtx derives one compute's context: parented on the server's
// lifetime (force-drain aborts it), joined to the caller's context
// (client disconnect aborts it), bounded by the per-request deadline
// (timeout_ms, else the -job-timeout default).
func (s *Server) jobCtx(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(parent)
	stop := context.AfterFunc(s.baseCtx, func() { cancel(context.Cause(s.baseCtx)) })
	timeout := s.jobTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout <= 0 {
		return ctx, func() { stop(); cancel(nil) }
	}
	tctx, tcancel := context.WithTimeoutCause(ctx, timeout,
		fmt.Errorf("job deadline (%v) exceeded: %w", timeout, context.DeadlineExceeded))
	return tctx, func() { tcancel(); stop(); cancel(nil) }
}

// admitSync is the synchronous-compute gate: refuse while draining, and
// bound the number of in-flight synchronous computes by the queue depth.
// On success the caller's resolve holds one syncWait slot.
func (s *Server) admitSync() error {
	if s.draining.Load() {
		return errDraining
	}
	if s.syncWait.Add(1) > int64(s.queueDepth) {
		s.syncWait.Add(-1)
		return errBusy
	}
	return nil
}

// CancelledError reports a run aborted by its context: client
// disconnect, per-job deadline, or server drain. It is never cached.
type CancelledError struct {
	Experiment string
	Cause      error  // context cause (deadline, disconnect, drain)
	Detail     string // the simulator's own cancellation report, if any
}

func (e *CancelledError) Error() string {
	msg := fmt.Sprintf("experiment %s cancelled", e.Experiment)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return msg
}

// DivergedError reports a diverging simulation (panic or protocol
// violation), referencing the crash bundle when one was written.
type DivergedError struct {
	Experiment string
	Msg        string
	Bundle     string // bundle directory, "" when none was written
}

func (e *DivergedError) Error() string {
	msg := fmt.Sprintf("experiment %s diverged: %s", e.Experiment, e.Msg)
	if e.Bundle != "" {
		msg += " (crash bundle: " + e.Bundle + ")"
	}
	return msg
}

// writeBundle persists a crash bundle for a diverging run and returns
// its directory ("" when bundling is disabled or fails — bundle I/O
// must never mask the original failure).
func (s *Server) writeBundle(key resultcache.Key, v *fault.Violation, stack []byte) string {
	if s.bundleDir == "" {
		return ""
	}
	dir, err := fault.WriteBundle(s.bundleDir, fault.BundleSpec{
		Violation: v,
		Plan:      fault.Plan{Name: "serve-" + key.Experiment},
		Stack:     stack,
	})
	if err != nil {
		s.logf("crash bundle for %s failed: %v", key.Experiment, err)
		return ""
	}
	return dir
}

// classifyPanic turns a recovered run panic into a typed error. A panic
// that unwinds while the context is already done is the cancellation
// itself (the engines abort with a "cancelled" violation that campaign
// layers may re-wrap); everything else is a divergence that gets a
// crash bundle.
func (s *Server) classifyPanic(ctx context.Context, key resultcache.Key, p any) error {
	v, isViolation := p.(*fault.Violation)
	if (isViolation && v.Kind == fault.KindCancelled) || ctx.Err() != nil {
		ce := &CancelledError{Experiment: key.Experiment, Cause: context.Cause(ctx)}
		if isViolation {
			ce.Detail = v.Msg
		}
		return ce
	}
	if !isViolation {
		// A plain panic still gets a typed bundle so the failure is
		// replay-triageable like any other violation.
		v = &fault.Violation{
			Kind:      fault.KindPanic,
			Component: "server",
			Msg:       fmt.Sprint(p),
		}
	}
	return &DivergedError{
		Experiment: key.Experiment,
		Msg:        fmt.Sprint(p),
		Bundle:     s.writeBundle(key, v, nil),
	}
}

// runRegistry executes one experiment through the shared registry. A
// diverging simulation (panic) is returned as an error.
func (s *Server) runRegistry(ctx context.Context, key resultcache.Key) (*resultcache.Entry, error) {
	exp, ok := experiments.Lookup(key.Experiment)
	if !ok {
		return nil, &experiments.UnknownExperimentError{Name: key.Experiment}
	}
	start := time.Now()
	report, err := func() (r string, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = s.classifyPanic(ctx, key, p)
			}
		}()
		return exp.Run(ctx, key.Params), nil
	}()
	if err != nil {
		return nil, err
	}
	return &resultcache.Entry{Key: key, Report: []byte(report), Wall: time.Since(start)}, nil
}

// worker drains the batch queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		j.setRunning()
		start := time.Now()
		ctx, cancel := s.jobCtx(context.Background(), j.timeoutMS)
		e, source, err := s.resolve(ctx, j.key, nil)
		cancel()
		j.finish(e, source, time.Since(start), err)
	}
}

// Drain stops intake and waits for the queue to empty and the workers to
// go idle, or for ctx to expire. It is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if !s.qClosed {
		close(s.queue)
		s.qClosed = true
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// The grace period is over: abort in-flight simulations (their
		// machines carry cancel tokens parented on baseCtx) and wait for
		// the workers to unwind. Aborted jobs fail with a typed
		// cancellation and are never cached.
		s.baseCancel(fmt.Errorf("server draining: %w", context.Cause(ctx)))
		<-done
		return fmt.Errorf("server: drain deadline hit; in-flight jobs aborted")
	}
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }

// ---------------------------------------------------------------------
// HTTP layer

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleJobReport)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeSpec reads one Spec and derives its normalized key.
func decodeSpec(r *http.Request) (Spec, resultcache.Key, error) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, resultcache.Key{}, fmt.Errorf("bad spec: %v", err)
	}
	key, err := resultcache.NewKey(spec.Experiment, spec.Params)
	if err != nil {
		return Spec{}, resultcache.Key{}, err
	}
	return spec, key, nil
}

// writeEntry sends the raw report bytes with the resolution metadata in
// headers, keeping the body byte-identical across hit, miss, and dedup.
func writeEntry(w http.ResponseWriter, e *resultcache.Entry, source string, wall time.Duration) {
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("X-Swiftdir-Cache", source)
	h.Set("X-Swiftdir-Key", e.Key.ID().String())
	h.Set("X-Swiftdir-Wall-Ns", strconv.FormatInt(wall.Nanoseconds(), 10))
	h.Set("X-Swiftdir-Run-Wall-Ns", strconv.FormatInt(e.Wall.Nanoseconds(), 10))
	w.Write(e.Report)
}

// statusClientClosedRequest is nginx's 499: the client went away before
// the response; our compute was aborted on its behalf.
const statusClientClosedRequest = 499

// writeFailure emits the typed JSON error body for a failed compute:
// "kind" distinguishes cancellation from divergence, and diverged
// responses reference their crash bundle when one was written.
func writeFailure(w http.ResponseWriter, code int, kind, bundle string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]string{"error": err.Error(), "kind": kind}
	if bundle != "" {
		body["bundle"] = bundle
	}
	json.NewEncoder(w).Encode(body)
}

// writeResolveErr maps a resolve failure to its HTTP response. Shared by
// the synchronous path and the batch report endpoint so a given failure
// reads the same either way.
func (s *Server) writeResolveErr(w http.ResponseWriter, err error) {
	var ce *CancelledError
	var de *DivergedError
	switch {
	case err == errDraining:
		httpError(w, http.StatusServiceUnavailable, "draining")
	case err == errBusy:
		// Back-pressure, not failure: tell well-behaved clients when to
		// come back (scripts/serve-e2e.sh honors this).
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "compute queue full (%d in flight); retry later", s.queueDepth)
	case errors.As(err, &ce):
		code := statusClientClosedRequest
		if errors.Is(ce.Cause, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		}
		writeFailure(w, code, "cancelled", "", ce)
	case errors.As(err, &de):
		writeFailure(w, http.StatusInternalServerError, "diverged", de.Bundle, de)
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	spec, key, err := decodeSpec(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Cache hits are always served, even while draining or saturated —
	// they cost microseconds. Fresh computes go through admitSync so a
	// traffic spike degrades to 429, not an unbounded goroutine pile.
	// The compute context carries the client connection (disconnect
	// aborts the run mid-simulation), the request deadline, and the
	// server lifetime.
	start := time.Now()
	ctx, cancel := s.jobCtx(r.Context(), spec.TimeoutMS)
	defer cancel()
	e, source, err := s.resolve(ctx, key, s.admitSync)
	if err != nil {
		s.writeResolveErr(w, err)
		return
	}
	writeEntry(w, e, source, time.Since(start))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Specs []Spec `json:"specs"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad batch: %v", err)
		return
	}
	if len(req.Specs) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	keys := make([]resultcache.Key, len(req.Specs))
	for i, spec := range req.Specs {
		key, err := resultcache.NewKey(spec.Experiment, spec.Params)
		if err != nil {
			httpError(w, http.StatusBadRequest, "spec %d: %v", i, err)
			return
		}
		keys[i] = key
	}

	type jobRef struct {
		ID         string `json:"id"`
		Experiment string `json:"experiment"`
		Key        string `json:"key"`
	}
	resp := struct {
		Batch string   `json:"batch"`
		Jobs  []jobRef `json:"jobs"`
	}{}

	// Admission is atomic: the whole batch fits in the queue or none of
	// it is accepted (a half-admitted batch would be miserable to retry).
	s.mu.Lock()
	if s.draining.Load() || s.qClosed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.queued+len(req.Specs) > s.queueDepth {
		free := s.queueDepth - s.queued
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "queue full (%d slots free, batch needs %d); retry later", free, len(req.Specs))
		return
	}
	s.nextBat++
	resp.Batch = fmt.Sprintf("b%d", s.nextBat)
	batch := make([]*job, len(req.Specs))
	for i, key := range keys {
		s.nextJob++
		j := newJob(fmt.Sprintf("j%d", s.nextJob), key, req.Specs[i].TimeoutMS)
		s.jobs[j.id] = j
		batch[i] = j
		resp.Jobs = append(resp.Jobs, jobRef{ID: j.id, Experiment: key.Experiment, Key: key.ID().String()})
	}
	s.queued += len(batch)
	for _, j := range batch {
		s.queue <- j // cannot block: queued <= queueDepth == cap(queue)
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.status())
}

func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	st := j.status()
	switch st.State {
	case stateDone:
		writeEntry(w, j.entry, j.source, j.wall)
	case stateFailed:
		s.writeResolveErr(w, j.err)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(st)
	}
}

// handleJobStream writes one "state=<state> ..." line per transition
// until the job reaches a terminal state or the client goes away — the
// cheap progress feed a sweep driver polls-without-polling.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	for {
		st, changed := j.watch()
		fmt.Fprintf(w, "state=%s", st.State)
		if st.Cache != "" {
			fmt.Fprintf(w, " cache=%s wall_ns=%d", st.Cache, st.WallNS)
		}
		if st.Error != "" {
			fmt.Fprintf(w, " error=%q", st.Error)
		}
		fmt.Fprintln(w)
		if fl != nil {
			fl.Flush()
		}
		if st.State == stateDone || st.State == stateFailed {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	type item struct {
		Name  string `json:"name"`
		Title string `json:"title"`
	}
	var items []item
	for _, e := range experiments.Registry() {
		items = append(items, item{Name: e.Name, Title: e.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(items)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobsTotal := len(s.jobs)
	queued := s.queued
	s.mu.Unlock()
	resp := struct {
		Cache      stats.CacheSnapshot `json:"cache"`
		Queued     int                 `json:"queued"`
		QueueDepth int                 `json:"queue_depth"`
		Workers    int                 `json:"workers"`
		Jobs       int                 `json:"jobs"`
		Cancelled  int64               `json:"cancelled"`
		Draining   bool                `json:"draining"`
		UptimeSec  float64             `json:"uptime_sec"`
	}{
		Cache:      s.stats.Snapshot(),
		Queued:     queued,
		QueueDepth: s.queueDepth,
		Workers:    s.workers,
		Jobs:       jobsTotal,
		Cancelled:  s.cancelled.Load(),
		Draining:   s.draining.Load(),
		UptimeSec:  time.Since(s.started).Seconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
