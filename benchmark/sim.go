package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/coherence"
	"repro/internal/interconnect"
	"repro/internal/stats"
)

// simWorkers is the campaign pool size of every simulation round: one
// worker per core of the reference host (nproc = 2).
const simWorkers = 2

// simSetups is how many times a full-length simulation run sets up (one
// per second of budget, at most this many); setup_s is the median. A
// set-up takes 20-170 ms, so a few alone are noise.
const simSetups = 15

// slowRunFactor bounds a run that the code under test made much slower:
// no round starts once this many budgets have passed, so the run still
// reports (with fewer rounds, in a NOTE) instead of overrunning its time.
const slowRunFactor = 5

// simJob is one simulation: a fresh machine with cold caches, as in the
// paper's experiments.
type simJob struct {
	name        string
	constructor string       // the construction call build times: core.NewMachine or coherence.NewSystem
	build       func() error // constructs the job's machine alone (trace runs' construction probe)
	run         func(tr *tracer, parent int64) (jobResult, error)
}

// outcome is a job's simulated result, compared exactly across repeats
// and, for seed 1, against testdata/expected_seed1.json.
type outcome struct {
	Cycles uint64 `json:"cycles"` // simulated cycles at completion
	Count  uint64 `json:"count"`  // instructions (machine jobs) or accesses (mesh jobs)
	Hash   string `json:"hash"`   // ArchMemHash (machine jobs) or MemImageHash (mesh jobs)
}

type jobResult struct {
	out outcome
	c   counters
}

// counters are the simulator's own statistics, summed over jobs.
type counters struct {
	jobs, accesses, fast, events        uint64
	l1Accesses, l1Hits                  uint64
	silentUpgrades, explicitUpgrades    uint64
	dirRequests, dirForwards, dirInvals uint64
	dirWakeups, msgs, hops              uint64
	queued                              float64 // interconnect queueing cycles
	dramReads, rowHits, rowAccesses     uint64
	instrs, cycles, mispredicts         uint64
	simTime                             time.Duration // host time inside the simulation call
}

// addSystem reads a quiesced hierarchy's public counters.
func (c *counters) addSystem(s *coherence.System) {
	c.jobs++
	fast, slow := s.FastPathTotals()
	c.fast += fast
	c.accesses += fast + slow
	c.events += s.ExecutedEvents()
	for _, l1 := range s.L1s {
		st := l1.Stats
		c.l1Accesses += st.Loads + st.Stores
		c.l1Hits += st.LoadHits + st.StoreHits
		c.silentUpgrades += st.SilentUpgrades
		c.explicitUpgrades += st.ExplicitUpgrades
	}
	b := s.BankStatsTotal()
	c.dirRequests += b.Requests
	c.dirForwards += b.Forwards
	c.dirInvals += b.Invals
	c.dirWakeups += b.QueuedWakeups
	net := s.Network()
	n := net.MessageCount()
	c.msgs += n
	c.queued += net.AvgQueueing() * float64(n)
	if m, ok := net.(*interconnect.Mesh); ok {
		c.hops += m.HopsTotal
	}
	c.dramReads += s.Mem.Reads
	c.rowHits += s.Mem.RowHits
	c.rowAccesses += s.Mem.RowHits + s.Mem.RowMisses + s.Mem.RowConflicts
}

func (c *counters) merge(o counters) {
	c.jobs += o.jobs
	c.accesses += o.accesses
	c.fast += o.fast
	c.events += o.events
	c.l1Accesses += o.l1Accesses
	c.l1Hits += o.l1Hits
	c.silentUpgrades += o.silentUpgrades
	c.explicitUpgrades += o.explicitUpgrades
	c.dirRequests += o.dirRequests
	c.dirForwards += o.dirForwards
	c.dirInvals += o.dirInvals
	c.dirWakeups += o.dirWakeups
	c.msgs += o.msgs
	c.hops += o.hops
	c.queued += o.queued
	c.dramReads += o.dramReads
	c.rowHits += o.rowHits
	c.rowAccesses += o.rowAccesses
	c.instrs += o.instrs
	c.cycles += o.cycles
	c.mispredicts += o.mispredicts
	c.simTime += o.simTime
}

// checker holds each job's first outcome and compares every repeat
// against it; for seed 1 the first outcome must also match the pin.
type checker struct {
	first    map[string]outcome
	expected map[string]outcome // nil unless seed 1
}

func (ck *checker) check(name string, got outcome) error {
	if ck.expected != nil {
		if _, seen := ck.first[name]; !seen {
			want, ok := ck.expected[name]
			if !ok {
				return fmt.Errorf("job %s: no pinned seed-1 outcome", name)
			}
			if got != want {
				return fmt.Errorf("job %s: outcome %+v differs from pinned %+v", name, got, want)
			}
		}
	}
	if want, ok := ck.first[name]; ok && got != want {
		return fmt.Errorf("job %s: repeat outcome %+v differs from first %+v", name, got, want)
	}
	ck.first[name] = got
	return nil
}

// heapSampler records the live heap (as of the last GC) after each job.
type heapSampler struct {
	mu  sync.Mutex
	mib []float64
}

func (h *heapSampler) sample() {
	v := float64(readRuntime("/gc/heap/live:bytes")[0]) / (1 << 20)
	h.mu.Lock()
	h.mib = append(h.mib, v)
	h.mu.Unlock()
}

// readRuntime reads cumulative runtime/metrics counters by name.
func readRuntime(names ...string) []uint64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]uint64, len(names))
	for i := range s {
		out[i] = s[i].Value.Uint64()
	}
	return out
}

// runSim runs a simulation workload: a fixed number of closed-loop rounds
// of campaign.Run(simWorkers, jobs), as many as take cfg.seconds on the
// reference host, with its set-ups (input generation plus one warm-up job
// per policy) spread evenly among them. Spreading them makes setup_s
// sample the shared host over the whole run rather than over its first
// second. Every round runs the same jobs, so every job repeats and is
// checked each time.
func runSim(cfg runConfig, name string, w simWorkload) (*report, error) {
	rep := &report{}
	ck := &checker{first: map[string]outcome{}}
	if cfg.seed == 1 {
		ck.expected = expectedSeed1[name]
	}

	var jobs []simJob
	var setups []float64
	setUp := func() {
		t0 := time.Now()
		jobs = w.gen(cfg.seed)
		warm := jobs[:len(coherence.Policies)] // the first input under each policy
		results, _ := campaign.Run(simWorkers, campaignJobs(warm, nil, 0, nil))
		setups = append(setups, time.Since(t0).Seconds())
		drainQueues()
		for _, r := range results {
			err := r.Err
			if err == nil {
				err = ck.check(r.Name, r.Value.out)
			}
			rep.record(err)
		}
	}
	setUp()

	if cfg.tr != nil {
		probeConstruction(cfg.tr, jobs, rep)
		if err := cfg.tr.startProfile("bench.cpu.pprof"); err != nil {
			return nil, err
		}
	}

	var (
		total        counters
		jobMs        []float64
		rates        []float64 // accesses per second, per round
		wall         time.Duration
		busy         time.Duration
		rounds       int
		heap         heapSampler
		allocs, gcs  uint64 // during rounds only
		planned      = max(1, int(math.Round(cfg.seconds/w.roundSeconds)))
		plannedSetUp = max(1, min(simSetups, int(cfg.seconds)))
		giveUp       = time.Now().Add(slowRunFactor * cfg.duration())
	)
	for rounds < planned {
		if time.Now().After(giveUp) {
			rep.notes = append(rep.notes, fmt.Sprintf("stopped after %d of %d rounds: over %d× the budget", rounds, planned, slowRunFactor))
			break
		}
		for len(setups) < plannedSetUp && len(setups)*planned/plannedSetUp <= rounds {
			setUp()
		}
		rsp := cfg.tr.start("round", 0, fmt.Sprintf("round%d", rounds))
		rt0 := readRuntime("/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles")
		t0 := time.Now()
		results, _ := campaign.Run(simWorkers, campaignJobs(jobs, cfg.tr, rsp.id(), &heap))
		roundWall := time.Since(t0)
		rt1 := readRuntime("/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles")
		allocs, gcs = allocs+rt1[0]-rt0[0], gcs+rt1[1]-rt0[1]
		wall += roundWall
		rsp.end()
		drainQueues()
		rounds++
		accesses := total.accesses
		for _, r := range results {
			busy += r.Wall
			err := r.Err
			if err == nil {
				err = ck.check(r.Name, r.Value.out)
			}
			rep.record(err)
			if err != nil {
				continue
			}
			total.merge(r.Value.c)
			jobMs = append(jobMs, float64(r.Wall)/float64(time.Millisecond))
		}
		rates = append(rates, float64(total.accesses-accesses)/roundWall.Seconds())
	}
	cfg.tr.stopProfile()

	rep.sizes = map[string]any{"jobs_per_round": len(jobs), "rounds": rounds, "planned_rounds": planned,
		"setups": len(setups), "workers": simWorkers}
	rep.add("setup_s", median(setups), "s")
	rep.add("jobs", float64(len(jobMs)), "count")
	rep.add("rounds", float64(rounds), "count")
	rep.add("sim_accesses", float64(total.accesses), "count")
	rep.add("throughput", median(rates), "1/s")
	rep.addPercentile("latency_ms_p50", jobMs, 0.50, "ms")
	rep.addPercentile("job_ms_p90", jobMs, 0.90, "ms")
	rep.add("memory_mb", median(heap.mib), "MiB")
	rep.add("live_heap_mb_max", maxOf(heap.mib), "MiB")

	c := total
	kacc := float64(c.accesses) / 1000
	rep.add("sim.events_per_kacc", ratio(float64(c.events), kacc), "count")
	rep.add("sim.ns_per_event", ratio(float64(c.simTime.Nanoseconds()), float64(c.events)), "ns")
	rep.add("coherence.l1_hit_ratio", ratio(float64(c.l1Hits), float64(c.l1Accesses)), "ratio")
	rep.add("coherence.silent_upgrades_per_kacc", ratio(float64(c.silentUpgrades), kacc), "count")
	rep.add("coherence.explicit_upgrades_per_kacc", ratio(float64(c.explicitUpgrades), kacc), "count")
	rep.add("coherence.dir_requests_per_kacc", ratio(float64(c.dirRequests), kacc), "count")
	rep.add("coherence.dir_forwards_per_kacc", ratio(float64(c.dirForwards), kacc), "count")
	rep.add("coherence.dir_invals_per_kacc", ratio(float64(c.dirInvals), kacc), "count")
	rep.add("coherence.dir_queued_wakeups_per_kacc", ratio(float64(c.dirWakeups), kacc), "count")
	rep.add("coherence.fast_ratio", ratio(float64(c.fast), float64(c.accesses)), "ratio")
	rep.add("interconnect.msgs_per_kacc", ratio(float64(c.msgs), kacc), "count")
	rep.add("interconnect.avg_hops", ratio(float64(c.hops), float64(c.msgs)), "hops")
	rep.add("interconnect.avg_queueing", ratio(c.queued, float64(c.msgs)), "cycles")
	rep.add("cpu.ipc", ratio(float64(c.instrs), float64(c.cycles)), "ratio")
	rep.add("cpu.mispredicts_per_kinstr", ratio(float64(c.mispredicts), float64(c.instrs)/1000), "count")
	rep.add("workload.instrs_per_job", ratio(float64(c.instrs), float64(c.jobs)), "count")
	rep.add("dram.reads_per_kacc", ratio(float64(c.dramReads), kacc), "count")
	rep.add("dram.row_hit_ratio", ratio(float64(c.rowHits), float64(c.rowAccesses)), "ratio")
	rep.add("runtime.alloc_mb_per_job", ratio(float64(allocs)/(1<<20), float64(c.jobs)), "MiB")
	rep.add("runtime.gc_cycles_per_job", ratio(float64(gcs), float64(c.jobs)), "count")
	rep.add("campaign.speedup", ratio(busy.Seconds(), wall.Seconds()), "ratio")
	rep.add("campaign.round_idle_pct", 100*(1-ratio(busy.Seconds(), simWorkers*wall.Seconds())), "%")
	return rep, nil
}

// campaignJobs wraps simulation jobs for one campaign.Run call, opening
// each job's span under parent and sampling the live heap as it ends.
func campaignJobs(jobs []simJob, tr *tracer, parent int64, heap *heapSampler) []campaign.Job[jobResult] {
	out := make([]campaign.Job[jobResult], len(jobs))
	for i, j := range jobs {
		j := j
		out[i] = campaign.Job[jobResult]{Name: j.name, Run: func() (jobResult, error) {
			sp := tr.start("job", parent, j.name)
			r, err := j.run(tr, sp.id())
			sp.end()
			if heap != nil {
				heap.sample()
			}
			return r, err
		}}
	}
	return out
}

// drainQueues empties the global accounting queues the simulator fills
// for CLI footers; left alone they grow the heap across rounds.
func drainQueues() {
	campaign.TakeSummaries()
	stats.TakeFastPaths()
}

// probeConstruction times each policy's machine construction alone, on
// one goroutine, so the allocation delta belongs to it: the median of
// five calls per distinct job configuration.
func probeConstruction(tr *tracer, jobs []simJob, rep *report) {
	var ms, allocs []float64
	for _, j := range jobs[:len(coherence.Policies)] {
		for i := 0; i < 5; i++ {
			sp := tr.start(j.constructor, 0, j.name)
			before := readRuntime("/gc/heap/allocs:objects")[0]
			t0 := time.Now()
			err := j.build()
			d := time.Since(t0)
			after := readRuntime("/gc/heap/allocs:objects")[0]
			sp.end()
			if err != nil {
				rep.record(fmt.Errorf("%s for %s: %w", j.constructor, j.name, err))
				return
			}
			ms = append(ms, float64(d)/float64(time.Millisecond))
			allocs = append(allocs, float64(after-before))
		}
	}
	rep.add(jobs[0].constructor+"_ms", median(ms), "ms")
	rep.add(jobs[0].constructor+"_allocs", median(allocs), "count")
}
