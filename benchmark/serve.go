package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// warmSpecs are the golden-report specs hits are drawn from: the golden
// grid minus its heavy suite runs and the two ablation halves (the
// registry serves those only concatenated). Each body normalizes to the
// parameters its hash in golden_reports.json was captured with.
var warmSpecs = []struct{ golden, body string }{
	{"fig9", `{"experiment":"fig9","params":{"amounts":[1000,2000]}}`},
	{"fig10a", `{"experiment":"fig10a","params":{"passes":1}}`},
	{"fig10b", `{"experiment":"fig10b","params":{"passes":1}}`},
	{"security", `{"experiment":"security","params":{"bits":64,"trials":64}}`},
	{"sweep", `{"experiment":"sweep"}`},
	{"traffic", `{"experiment":"traffic"}`},
	{"msi", `{"experiment":"msi","params":{"bits":128,"passes":1}}`},
	{"moesi", `{"experiment":"moesi","params":{"bits":128,"passes":1}}`},
	{"snoop", `{"experiment":"snoop","params":{"bits":128}}`},
	{"kernels", `{"experiment":"kernels","params":{"ws_kb":64}}`},
}

const goldenReports = "internal/experiments/testdata/golden_reports.json"

// Service-level limits; a run that misses one says so on standard error.
const (
	hitP99LimitMs = 2.0 // hit_ms_p99
	lateLimitMs   = 1.0 // gen.late_ms_p99: beyond it the load was not as scheduled
)

// serveSetups is how many servers a full-length run sets up (one per 4 s
// of budget, at most this many); setup_s is the median. Each takes about
// a second, so fewer than the simulation workloads.
const serveSetups = 5

// serveLoad sizes the serve-mix traffic for a run of the given length.
type serveLoad struct {
	setups     int
	openLoop   time.Duration // phase 1
	hitRate    float64       // phase 1 hits per second (connection A)
	missRate   float64       // phase 1 misses per second (connection B)
	dedupKeys  int           // phase 2 bursts
	closedLoop time.Duration // phase 3
}

// newServeLoad splits the budget: 50% open loop, 35% closed loop, and
// five dedup bursts per second of budget in between (about 10 ms each).
// Misses arrive at 14/s so that a 20-second run's phase 1 yields about
// 140 of them, well over the 100 a p90 needs.
func newServeLoad(seconds float64) serveLoad {
	return serveLoad{
		setups:     max(1, min(serveSetups, int(seconds/4))),
		openLoop:   time.Duration(0.50 * seconds * float64(time.Second)),
		hitRate:    1000,
		missRate:   14,
		dedupKeys:  max(1, int(5*seconds)),
		closedLoop: time.Duration(0.35 * seconds * float64(time.Second)),
	}
}

// maxMissKeys is how many distinct keys missKeys can make.
const maxMissKeys = 2000

// missKeys returns n distinct cold-miss specs: fig6 with a unique sample
// count, and every fourth a security run with a unique bit count (64 is
// excluded: it normalizes to a warm spec).
func missKeys(rng *rand.Rand, n int) [][]byte {
	samples := rng.Perm(maxMissKeys)
	bits := rng.Perm(48)
	keys := make([][]byte, n)
	for i := range keys {
		if i%4 == 3 && i/4 < len(bits) {
			keys[i] = []byte(fmt.Sprintf(`{"experiment":"security","params":{"bits":%d}}`, 16+bits[i/4]))
		} else {
			keys[i] = []byte(fmt.Sprintf(`{"experiment":"fig6","params":{"samples":%d}}`, 500+samples[i]))
		}
	}
	return keys
}

// maxDedupKeys is how many distinct keys dedupKeys can make.
const maxDedupKeys = 400

// dedupKeys returns n distinct fig6 specs (samples 100..499), disjoint
// from missKeys, so every burst starts cold.
func dedupKeys(rng *rand.Rand, n int) [][]byte {
	keys := make([][]byte, n)
	for i, s := range rng.Perm(maxDedupKeys)[:n] {
		keys[i] = []byte(fmt.Sprintf(`{"experiment":"fig6","params":{"samples":%d}}`, 100+s))
	}
	return keys
}

// arrivals returns Poisson arrival offsets at rate per second within d.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// runServeMix drives a real swiftdir-serve process on loopback with two
// connections: an open-loop phase of warm hits beside cold misses,
// singleflight dedup bursts, and a closed-loop hit-capacity phase.
func runServeMix(cfg runConfig) (*report, error) {
	golden, err := loadGolden(filepath.Join(cfg.root, goldenReports))
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var rejected atomic.Int64 // 429 refusals, also counted as failures
	note := func(r reply, err error) {
		if r.status == http.StatusTooManyRequests {
			rejected.Add(1)
		}
		rep.record(err)
	}
	load := newServeLoad(cfg.seconds)
	rng := newRNG(cfg.seed, 0x5e4e)

	// Set up load.setups times (exec to a healthy server with the warm set
	// computed); keep the last server for the measurement.
	var (
		srv    *serverProc
		warm   [][]byte
		setups []float64
	)
	for i := 0; i < load.setups; i++ {
		var args []string
		if cfg.tr != nil && i == load.setups-1 {
			args = []string{"-cpuprofile", filepath.Join(cfg.tr.dir, "server.cpu.pprof")}
		}
		t0 := time.Now()
		srv, warm, err = setupServer(cfg.serveBin, golden, args...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < load.setups-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer srv.stop() // error paths; the success path stops it explicitly
	if cfg.tr != nil {
		if err := cfg.tr.startProfile("bench.cpu.pprof"); err != nil {
			return nil, err
		}
		defer cfg.tr.stopProfile()
	}
	conns := [2]*conn{newConn(srv.base), newConn(srv.base)}
	rss := sampleRSS(srv.cmd.Process.Pid)
	defer rss.median() // error paths; stops the sampler

	// Phase 1: open loop. Connection A sends hits over the warm set,
	// connection B cold misses, each on its own Poisson schedule.
	hitAt := arrivals(rng, load.hitRate, load.openLoop)
	hitSpec := make([]int, len(hitAt))
	for i := range hitSpec {
		hitSpec[i] = rng.IntN(len(warmSpecs))
	}
	missAt := arrivals(rng, load.missRate, load.openLoop)
	if len(missAt) > maxMissKeys || load.dedupKeys > maxDedupKeys {
		return nil, fmt.Errorf("%g s needs more distinct cold keys than there are; shorten the run", cfg.seconds)
	}
	misses := missKeys(rng, len(missAt))
	var (
		hits, missReplies []timedReply
		wg                sync.WaitGroup
	)
	start := time.Now().Add(10 * time.Millisecond)
	wg.Add(2)
	go func() {
		defer wg.Done()
		hits = openLoop(conns[0], start, hitAt, func(i int) []byte { return []byte(warmSpecs[hitSpec[i]].body) })
	}()
	go func() {
		defer wg.Done()
		missReplies = openLoop(conns[1], start, missAt, func(i int) []byte { return misses[i] })
	}()
	wg.Wait()

	var hitMs, hitResolveUs, hitOverheadUs, lateMs []float64
	for i, h := range hits {
		err := h.check("hit", warm[hitSpec[i]])
		note(h.reply, err)
		if err != nil {
			continue
		}
		hitMs = append(hitMs, ms(h.done.Sub(h.due)))
		hitResolveUs = append(hitResolveUs, float64(h.wall)/1e3)
		hitOverheadUs = append(hitOverheadUs, float64(h.done.Sub(h.sent)-h.wall)/1e3)
		lateMs = append(lateMs, ms(h.late))
		cfg.tr.recordRequest(fmt.Sprintf("hit%d", i), h.reply)
	}
	var missMs, runMs, missOverheadMs []float64
	for i, m := range missReplies {
		err := m.check("miss", nil)
		note(m.reply, err)
		if err != nil {
			continue
		}
		missMs = append(missMs, ms(m.done.Sub(m.due)))
		runMs = append(runMs, ms(m.runWall))
		missOverheadMs = append(missOverheadMs, ms(m.wall-m.runWall))
		lateMs = append(lateMs, ms(m.late))
		cfg.tr.recordRequest(fmt.Sprintf("miss%d", i), m.reply)
	}
	// Each miss key's later hit must be byte-identical to its miss.
	for i, m := range missReplies {
		if m.check("miss", nil) != nil {
			continue // already counted as failed
		}
		r, err := conns[1].post(misses[i])
		if err == nil {
			err = r.check("hit", m.body)
		}
		note(r, err)
	}

	// Phase 2: dedup bursts. Each fresh key goes out on both connections
	// at once; the follower shares the leader's run.
	before, err := conns[1].statsz()
	if err != nil {
		return nil, err
	}
	var dedupMs []float64
	for i, key := range dedupKeys(rng, load.dedupKeys) {
		r0, err := conns[1].statsz()
		if err != nil {
			return nil, err
		}
		pair := burst(conns, key)
		r1, err := conns[1].statsz()
		if err != nil {
			return nil, err
		}
		// The burst's verdict (one leader, equal bytes, one run) belongs to
		// both of its requests.
		err = checkBurst(pair, r1.Cache.Runs-r0.Cache.Runs)
		note(pair[0], err)
		note(pair[1], err)
		if err == nil {
			f := pair[0]
			if f.source == "miss" {
				f = pair[1]
			}
			dedupMs = append(dedupMs, ms(f.done.Sub(f.sent)))
			cfg.tr.recordRequest(fmt.Sprintf("dedup%d", i), f)
		}
	}
	after, err := conns[1].statsz()
	if err != nil {
		return nil, err
	}

	// Phase 3: closed-loop hit capacity on both connections.
	capacity := closedLoop(conns, warm, load.closedLoop, cfg.seed, note)

	final, err := conns[1].statsz()
	if err != nil {
		return nil, err
	}
	rssMB := rss.median()
	peakMB, err := procStatus(srv.cmd.Process.Pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	cfg.tr.stopProfile()

	rep.sizes = map[string]any{
		"setups": len(setups), "connections": len(conns), "hit_rate": load.hitRate, "miss_rate": load.missRate,
		"open_loop_s": load.openLoop.Seconds(), "dedup_bursts": load.dedupKeys,
		"closed_loop_s": load.closedLoop.Seconds(), "warm_specs": len(warmSpecs),
	}
	rep.add("setup_s", median(setups), "s")
	rep.add("hits", float64(len(hitMs)), "count")
	rep.add("misses", float64(len(missMs)), "count")
	rep.addPercentile("latency_ms_p50", hitMs, 0.50, "ms")
	rep.addPercentile("hit_ms_p99", hitMs, 0.99, "ms")
	rep.addPercentile("miss_ms_p50", missMs, 0.50, "ms")
	rep.addPercentile("miss_ms_p90", missMs, 0.90, "ms")
	rep.addPercentile("dedup_ms_p50", dedupMs, 0.50, "ms")
	rep.add("throughput", median(capacity), "1/s")
	rep.add("memory_mb", rssMB, "MiB")
	rep.add("server_peak_rss_mb", peakMB, "MiB")
	rep.addPercentile("gen.late_ms_p99", lateMs, 0.99, "ms")
	if v, ok := rep.lookup("hit_ms_p99"); ok && v > hitP99LimitMs {
		rep.notes = append(rep.notes, fmt.Sprintf("hit_ms_p99 %.3g ms is over its %g ms limit", v, hitP99LimitMs))
	}
	if v, ok := rep.lookup("gen.late_ms_p99"); ok && v > lateLimitMs {
		rep.notes = append(rep.notes, fmt.Sprintf("the load generator ran %.3g ms late at p99, over %g ms", v, lateLimitMs))
	}
	rep.addPercentile("experiments.run_ms_p50", runMs, 0.50, "ms")
	rep.addPercentile("server.hit_resolve_us_p50", hitResolveUs, 0.50, "us")
	rep.addPercentile("server.miss_overhead_ms_p50", missOverheadMs, 0.50, "ms")
	rep.addPercentile("http.hit_overhead_us_p50", hitOverheadUs, 0.50, "us")
	rep.add("resultcache.hits", float64(final.Cache.Hits), "count")
	rep.add("resultcache.misses", float64(final.Cache.Misses), "count")
	rep.add("resultcache.dedups", float64(final.Cache.Dedups), "count")
	rep.add("resultcache.runs", float64(final.Cache.Runs), "count")
	rep.add("resultcache.dedup_ratio", ratio(float64(after.Cache.Dedups-before.Cache.Dedups), float64(load.dedupKeys)), "ratio")
	rep.add("server.rejected", float64(rejected.Load()), "count")
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func loadGolden(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g map[string]string
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// serverProc is a running swiftdir-serve process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	exited chan struct{} // closed once the process's stderr reaches EOF
	mu     sync.Mutex
	log    []string // the last stderr lines, for diagnostics
	once   sync.Once
	err    error
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServer execs swiftdir-serve on a free loopback port with a
// memory-only cache and default flags plus args, and returns once it
// has announced its address.
func startServer(bin string, args ...string) (*serverProc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// If the benchmark dies without reaching stop, the server dies with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.exited)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.log = append(s.log, line)
			if len(s.log) > 20 {
				s.log = s.log[1:]
			}
			s.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.exited:
		err = fmt.Errorf("swiftdir-serve exited before listening")
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("swiftdir-serve did not listen within 30s")
	}
	s.stop()
	return nil, fmt.Errorf("%w: %s", err, s.stderr())
}

func (s *serverProc) stderr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.log, "\n")
}

// stop drains the server with SIGTERM (killing it if the drain hangs),
// waits for it to exit, and reports a non-zero exit. Idempotent.
func (s *serverProc) stop() error {
	s.once.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(60 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
		if err := s.cmd.Wait(); err != nil {
			s.err = fmt.Errorf("swiftdir-serve: %w: %s", err, s.stderr())
		}
	})
	return s.err
}

// setupServer starts a server, waits for /healthz, and computes the warm
// set, checking every warm report against its golden hash.
func setupServer(bin string, golden map[string]string, args ...string) (*serverProc, [][]byte, error) {
	s, err := startServer(bin, args...)
	if err != nil {
		return nil, nil, err
	}
	if err := s.waitHealthy(); err != nil {
		s.stop()
		return nil, nil, err
	}
	c := newConn(s.base)
	defer c.client.CloseIdleConnections()
	warm := make([][]byte, len(warmSpecs))
	for i, w := range warmSpecs {
		r, err := c.post([]byte(w.body))
		if err == nil {
			err = r.check("miss", nil)
		}
		if err == nil {
			if sum := sha256.Sum256(r.body); hex.EncodeToString(sum[:]) != golden[w.golden] {
				err = fmt.Errorf("warm %s: report hash differs from golden", w.golden)
			}
		}
		if err != nil {
			s.stop()
			return nil, nil, err
		}
		warm[i] = r.body
	}
	return s, warm, nil
}

func (s *serverProc) waitHealthy() error {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := client.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("swiftdir-serve not healthy within 30s: %s", s.stderr())
}

// procStatus reads a memory field (VmRSS, VmHWM) of a process's
// /proc status in MiB.
func procStatus(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// conn is one client connection: a transport that holds at most one
// TCP connection, so requests on it are serialized.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr}, base: base}
}

// reply is one /v1/run response with its client- and server-side times.
type reply struct {
	status     int
	body       []byte
	source     string        // X-Swiftdir-Cache: hit, miss, or dedup
	wall       time.Duration // server handler time
	runWall    time.Duration // the producing simulation's time
	sent, done time.Time
}

func (c *conn) post(spec []byte) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/run", bytes.NewReader(spec))
	if err != nil {
		return reply{}, err
	}
	r := reply{sent: time.Now()}
	resp, err := c.client.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("POST %s: %w", spec, err)
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	if err != nil {
		return reply{}, fmt.Errorf("POST %s: %w", spec, err)
	}
	r.status = resp.StatusCode
	r.source = resp.Header.Get("X-Swiftdir-Cache")
	wall, _ := strconv.ParseInt(resp.Header.Get("X-Swiftdir-Wall-Ns"), 10, 64)
	run, _ := strconv.ParseInt(resp.Header.Get("X-Swiftdir-Run-Wall-Ns"), 10, 64)
	r.wall, r.runWall = time.Duration(wall), time.Duration(run)
	return r, nil
}

// check verifies a reply's status, cache source, and (when want is
// non-nil) its exact bytes.
func (r reply) check(source string, want []byte) error {
	switch {
	case r.status != http.StatusOK:
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	case r.source != source:
		return fmt.Errorf("cache source %q, want %q", r.source, source)
	case want != nil && !bytes.Equal(r.body, want):
		return fmt.Errorf("%s body differs from the expected bytes", source)
	}
	return nil
}

type statsz struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		Dedups uint64 `json:"dedups"`
		Runs   uint64 `json:"runs"`
	} `json:"cache"`
}

func (c *conn) statsz() (statsz, error) {
	var s statsz
	resp, err := c.client.Get(c.base + "/statsz")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("/statsz: %w", err)
	}
	return s, nil
}

// timedReply is an open-loop reply with the time it was due and how late
// the generator itself sent it (beyond waiting for the connection).
type timedReply struct {
	reply
	due  time.Time
	late time.Duration
	err  error
}

func (t timedReply) check(source string, want []byte) error {
	if t.err != nil {
		return t.err
	}
	return t.reply.check(source, want)
}

// openLoop sends spec(i) at start+at[i] on c, whether or not earlier
// requests have returned (a late one waits for the connection, and that
// wait counts: latency is timed from the due time).
func openLoop(c *conn, start time.Time, at []time.Duration, spec func(int) []byte) []timedReply {
	out := make([]timedReply, len(at))
	free := start // when the connection became free
	for i, off := range at {
		due := start.Add(off)
		pace(due)
		r, err := c.post(spec(i))
		if err != nil {
			r.sent = time.Now()
		}
		ready := due
		if free.After(ready) {
			ready = free
		}
		out[i] = timedReply{reply: r, due: due, late: r.sent.Sub(ready), err: err}
		free = time.Now()
	}
	return out
}

// pace blocks until t. The runtime's timers wake up to a millisecond
// late on Linux, which would swamp a 70 µs hit, so it sleeps in
// nanosleep(2) until 100 µs before t and spins the rest.
func pace(t time.Time) {
	for d := time.Until(t) - 100*time.Microsecond; d > 0; d = time.Until(t) - 100*time.Microsecond {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
	}
}

// burst sends key on both connections at once.
func burst(conns [2]*conn, key []byte) [2]reply {
	var (
		out  [2]reply
		errs [2]error
		wg   sync.WaitGroup
	)
	gate := make(chan struct{})
	for k := range conns {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			out[k], errs[k] = conns[k].post(key)
		}()
	}
	close(gate)
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			out[k].status, out[k].body = 0, []byte(err.Error())
		}
	}
	return out
}

// checkBurst verifies a dedup burst: both answered with identical bytes,
// exactly one ran the simulation, and the key cost exactly one run.
func checkBurst(pair [2]reply, runs uint64) error {
	leaders := 0
	for _, r := range pair {
		if r.status != http.StatusOK {
			return fmt.Errorf("dedup burst: status %d: %s", r.status, bytes.TrimSpace(r.body))
		}
		if r.source == "miss" {
			leaders++
		}
	}
	switch {
	case leaders != 1:
		return fmt.Errorf("dedup burst: %d leaders (%s, %s), want 1", leaders, pair[0].source, pair[1].source)
	case !bytes.Equal(pair[0].body, pair[1].body):
		return fmt.Errorf("dedup burst: follower bytes differ from the leader's")
	case runs != 1:
		return fmt.Errorf("dedup burst cost %d runs, want 1", runs)
	}
	return nil
}

// capacityWindow is the window closed-loop throughput is counted over;
// the run reports the median window, so a brief stall of the shared host
// moves one window rather than the result.
const capacityWindow = 250 * time.Millisecond

// closedLoop sends warm hits back to back on both connections for d and
// returns the served requests per second of each full capacityWindow.
func closedLoop(conns [2]*conn, warm [][]byte, d time.Duration, seed uint64, note func(reply, error)) []float64 {
	var (
		wg     sync.WaitGroup
		served [2][]time.Duration // completion offsets from start
	)
	start := time.Now()
	for k := range conns {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := newRNG(seed, 0xc105+uint64(k))
			for time.Since(start) < d {
				i := rng.IntN(len(warmSpecs))
				r, err := conns[k].post([]byte(warmSpecs[i].body))
				if err == nil {
					err = r.check("hit", warm[i])
				}
				note(r, err)
				if err == nil {
					served[k] = append(served[k], r.done.Sub(start))
				}
			}
		}()
	}
	wg.Wait()
	counts := make([]float64, d/capacityWindow)
	for _, offs := range served {
		for _, off := range offs {
			if w := int(off / capacityWindow); w < len(counts) {
				counts[w]++
			}
		}
	}
	for i := range counts {
		counts[i] /= capacityWindow.Seconds()
	}
	return counts
}

// rssSampler samples a process's resident set every 100 ms until stopped.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	mib  []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if v, err := procStatus(pid, "VmRSS"); err == nil {
					s.mib = append(s.mib, v)
				}
			}
		}
	}()
	return s
}

// median stops sampling and returns the median resident set in MiB.
func (s *rssSampler) median() float64 {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return median(s.mib)
}

// recordRequest adds a request's spans: the client round trip, the
// server's handler time inside it, and, for the request that ran the
// simulation, the run. Server-side spans are placed assuming the network
// time splits evenly around them.
func (t *tracer) recordRequest(id string, r reply) {
	if t == nil || r.status != http.StatusOK {
		return
	}
	req := t.record("request", 0, id, r.sent, r.done)
	srvStart := r.sent.Add((r.done.Sub(r.sent) - r.wall) / 2)
	srv := t.record("server", req, id, srvStart, srvStart.Add(r.wall))
	if r.source == "miss" {
		end := srvStart.Add(r.wall)
		t.record("experiments.run", srv, id, end.Add(-r.runWall), end)
	}
}
