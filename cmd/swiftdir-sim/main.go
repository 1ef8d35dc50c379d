// Command swiftdir-sim runs benchmarks on one protocol and prints the
// measured results with detailed hierarchy statistics.
//
// Usage:
//
//	swiftdir-sim -list
//	swiftdir-sim -bench mcf -protocol SwiftDir -cpu DerivO3CPU [-scale f]
//	swiftdir-sim -bench mcf,lbm,xz -j 4            # campaign over several benchmarks
//	swiftdir-sim -bench dedup -config machine.json
//	swiftdir-sim -dumpconfig machine.json -protocol S-MESI -cores 4
//	swiftdir-sim -soak -bench mcf -plans 8 -bundledir soak-bundles
//	swiftdir-sim -replay soak-bundles/plan-03-forced-c41288
//
// -bench accepts a comma-separated list; the runs fan out over -j
// concurrent workers (default: runtime.NumCPU()) and print in list
// order regardless of completion order. -soak fans its plans out the
// same way.
//
// -soak runs each benchmark under -plans deterministic fault plans
// (plan 0 is the no-fault control) with the liveness watchdog armed and
// asserts the architectural results are byte-identical across plans; a
// failing run is captured as a crash bundle under -bundledir, and
// -replay re-executes a bundle's replay.json to reproduce the recorded
// failure exactly. -soakscaled moves the sweep onto the scaled machine
// (-soakcores cores, mesh interconnect, two-level directory past 32
// cores) and draws from the scaled plan generator, which adds mesh
// per-link delay spikes, pinned-link storms, and cluster-hub busy
// windows to the flat machine's fault classes; bundles carry the scaled
// topology and replay on it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/interconnect"
	"repro/internal/prof"
	"repro/internal/soak"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	list := flag.Bool("list", false, "list available benchmarks and exit")
	bench := flag.String("bench", "mcf", "benchmark name or comma-separated list (see -list)")
	kernel := flag.String("kernel", "", "memory kernel to run instead of a benchmark (stream-triad, gups, pointer-chase)")
	kernelKB := flag.Int("kernelkb", 512, "kernel working-set size in KB")
	protoName := flag.String("protocol", "SwiftDir", strings.Join(coherence.PolicyNames(), ", "))
	cpuKind := flag.String("cpu", "DerivO3CPU", "TimingSimpleCPU or DerivO3CPU")
	scale := flag.Float64("scale", 1.0, "instruction-budget scale")
	configPath := flag.String("config", "", "machine configuration JSON (overrides -protocol)")
	dumpConfig := flag.String("dumpconfig", "", "write the default machine configuration to this file and exit")
	cores := flag.Int("cores", 4, "core count for -dumpconfig")
	jobs := flag.Int("j", 0, "concurrent runs for a -bench list or -soak plans (0 = NumCPU)")
	verbose := flag.Bool("v", true, "print hierarchy statistics")
	soakFlag := flag.Bool("soak", false, "fault-injection soak sweep over -bench (see package doc)")
	soakScaled := flag.Bool("soakscaled", false, "run -soak on the scaled machine (mesh + two-level directory) with mesh/hub fault classes")
	soakCores := flag.Int("soakcores", 64, "core count for -soakscaled")
	plansN := flag.Int("plans", 8, "fault plans per -soak benchmark (plan 0 is the no-fault control)")
	planSeed := flag.Uint64("planseed", 1, "seed for -soak plan generation")
	bundleDir := flag.String("bundledir", "soak-bundles", "crash-bundle directory for -soak failures")
	replayPath := flag.String("replay", "", "replay a crash bundle (directory or replay.json) and exit")
	var pf prof.Flags
	pf.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := pf.Start()
	if err != nil {
		fatal("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "swiftdir-sim: profile: %v\n", err)
		}
	}()

	if *list {
		fmt.Println("SPEC CPU 2017 (single-threaded):")
		for _, p := range workload.SPEC2017() {
			fmt.Printf("  %-12s mem=%.2f store=%.2f WAR=%.2f ws=%dKB\n",
				p.Name, p.MemFrac, p.StoreFrac, p.WARFrac, p.WorkingSetKB)
		}
		fmt.Println("Memory kernels (-kernel):")
		for _, k := range workload.Kernels() {
			fmt.Printf("  %s\n", k.Name)
		}
		fmt.Println("PARSEC 3.0 (4 threads):")
		for _, p := range workload.PARSEC3() {
			fmt.Printf("  %-14s mem=%.2f shared=%.2f sharedKB=%d barrierEvery=%d\n",
				p.Name, p.MemFrac, p.SharedFrac, p.SharedKB, p.BarrierEvery)
		}
		return
	}

	if *dumpConfig != "" {
		proto := coherence.PolicyByName(*protoName)
		if proto == nil {
			fatal("unknown protocol %q", *protoName)
		}
		if err := core.SaveConfig(*dumpConfig, core.DefaultConfig(*cores, proto)); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote %s\n", *dumpConfig)
		return
	}

	if *replayPath != "" {
		out, err := soak.Replay(*replayPath)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Print(out.Describe())
		if out.Violation != nil {
			os.Exit(1) // reproduced the recorded failure
		}
		return
	}

	if *soakFlag {
		runSoak(strings.Split(*bench, ","), *protoName, workload.CPUKind(*cpuKind),
			*scale, *plansN, *planSeed, *bundleDir, *soakScaled, *soakCores, *jobs)
		return
	}

	if *kernel != "" {
		k, ok := workload.KernelByName(*kernel)
		if !ok {
			fatal("unknown kernel %q", *kernel)
		}
		proto := coherence.PolicyByName(*protoName)
		if proto == nil {
			fatal("unknown protocol %q", *protoName)
		}
		res, err := workload.RunKernel(context.Background(), k, proto, workload.CPUKind(*cpuKind), *kernelKB<<10)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("kernel       : %s (%d KB working set)\n", res.Benchmark, *kernelKB)
		fmt.Printf("protocol     : %s on %s\n", res.Protocol, res.CPU)
		fmt.Printf("instructions : %d in %d cycles (IPC %.4f)\n", res.Instrs, res.ExecCycles, res.IPC)
		return
	}

	// One job per requested benchmark; reports print in list order.
	names := strings.Split(*bench, ",")
	var benchJobs []campaign.Job[string]
	for _, name := range names {
		name := strings.TrimSpace(name)
		prof, ok := workload.ProfileByName(name)
		if !ok {
			fatal("unknown benchmark %q (try -list)", name)
		}
		prof = prof.Scale(*scale)
		benchJobs = append(benchJobs, campaign.Job[string]{
			Name: name,
			Run: func() (string, error) {
				return runOne(prof, *configPath, *protoName, workload.CPUKind(*cpuKind), *verbose)
			},
		})
	}
	ctx := stats.WithRecorder(context.Background(), &stats.Recorder{Workers: *jobs})
	reports, err := campaign.Collect(ctx, benchJobs)
	for i, r := range reports {
		if i > 0 {
			fmt.Println(strings.Repeat("-", 60))
		}
		fmt.Print(r)
	}
	if err != nil {
		fatal("%v", err)
	}
}

// runSoak sweeps every benchmark through plansN deterministic fault
// plans with the watchdog armed and fails loudly if any plan crashes or
// moves an architectural result.
func runSoak(names []string, protoName string, kind workload.CPUKind,
	scale float64, plansN int, planSeed uint64, bundleDir string, scaled bool, cores, workers int) {
	var plans []fault.Plan
	if scaled {
		w, h := core.MeshDims(cores)
		plans = fault.RandomScaledPlans(plansN, planSeed, interconnect.MeshLinks(w, h))
		fmt.Printf("soak: scaled machine (%d cores, %dx%d mesh), ", cores, w, h)
	} else {
		plans = fault.RandomPlans(plansN, planSeed)
		fmt.Print("soak: ")
	}
	fmt.Printf("%d plans (seed %d), watchdog %+v, bundles -> %s\n",
		len(plans), planSeed, soak.DefaultWatchdog(), bundleDir)
	failed := false
	for _, name := range names {
		name = strings.TrimSpace(name)
		base := soak.Spec{
			Benchmark: name,
			Protocol:  protoName,
			CPU:       kind,
			Scale:     scale,
			Scaled:    scaled,
			Watchdog:  soak.DefaultWatchdog(),
		}
		if scaled {
			base.Cores = cores
		}
		res := soak.Sweep(base, plans, bundleDir, workers)
		for _, po := range res.Outcomes {
			status := "ok"
			if po.Err != nil {
				status = "FAIL"
			}
			fmt.Printf("  %-12s %-10s %s", name, po.Plan.Name, status)
			if po.Bundle != "" {
				fmt.Printf("  bundle=%s", po.Bundle)
			}
			fmt.Println()
		}
		if res.Err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "swiftdir-sim: soak %s: %v\n", name, res.Err)
		} else {
			fmt.Printf("  %-12s architectural results identical across %d plans (hash %.16s...)\n",
				name, len(plans), res.Outcomes[0].Result.MemImageHash)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runOne executes a single benchmark and renders its report. It builds
// its own machine, so concurrent invocations are independent.
func runOne(prof workload.Profile, configPath, protoName string, kind workload.CPUKind, verbose bool) (string, error) {
	var cfg core.Config
	if configPath != "" {
		var err error
		cfg, err = core.LoadConfig(configPath)
		if err != nil {
			return "", fmt.Errorf("config: %w", err)
		}
	} else {
		proto := coherence.PolicyByName(protoName)
		if proto == nil {
			return "", fmt.Errorf("unknown protocol %q", protoName)
		}
		n := 1
		for n < prof.Threads {
			n *= 2
		}
		cfg = core.DefaultConfig(n, proto)
	}

	res, m, err := workload.RunDetailed(prof, cfg, kind)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "benchmark    : %s (%s)\n", res.Benchmark, prof.Suite)
	fmt.Fprintf(&b, "protocol     : %s\n", res.Protocol)
	fmt.Fprintf(&b, "cpu model    : %s (L1 %s)\n", res.CPU, cfg.L1Arch)
	fmt.Fprintf(&b, "threads      : %d on %d cores\n", prof.Threads, cfg.Cores)
	fmt.Fprintf(&b, "instructions : %d\n", res.Instrs)
	fmt.Fprintf(&b, "cycles       : %d\n", res.ExecCycles)
	fmt.Fprintf(&b, "IPC/thread   : %.4f\n", res.IPC)
	for i, s := range res.PerThread {
		fmt.Fprintf(&b, "  thread %d   : %d instrs, %d loads, %d stores, %d cycles (IPC %.4f)\n",
			i, s.Instructions, s.Loads, s.Stores, s.Cycles(), s.IPC())
	}
	if !verbose {
		return b.String(), nil
	}

	b.WriteString("\nhierarchy statistics:\n")
	for _, l1 := range m.Sys.L1s {
		st := l1.Stats
		if st.Loads+st.Stores == 0 {
			continue
		}
		missRate := 1 - float64(st.LoadHits+st.StoreHits+st.SilentUpgrades)/float64(st.Loads+st.Stores)
		fmt.Fprintf(&b, "  L1 %-2d      : %d loads, %d stores, miss rate %.2f%%, %d silent upgrades, %d explicit upgrades, %d writebacks\n",
			l1.ID, st.Loads, st.Stores, 100*missRate, st.SilentUpgrades, st.ExplicitUpgrades, st.Writebacks)
	}
	bs := m.Sys.BankStatsTotal()
	fmt.Fprintf(&b, "  directory  : %d requests, %d LLC-served, %d forwards (3-hop), %d invalidations, %d upgrade acks, %d recalls\n",
		bs.Requests, bs.LLCServed, bs.Forwards, bs.Invals, bs.UpgradeAcks, bs.Recalls)
	fmt.Fprintf(&b, "  memory     : %d reads, %d writes, row hits/misses/conflicts %d/%d/%d, avg latency %.1f cycles\n",
		m.Sys.Mem.Reads, m.Sys.Mem.Writes, m.Sys.Mem.RowHits, m.Sys.Mem.RowMisses, m.Sys.Mem.RowConflicts, m.Sys.Mem.AvgLatency())
	fmt.Fprintf(&b, "  messages   : %d coherence messages total (GETS %d, GETS_WP %d, GETX %d, Upgrade %d, Fwd %d)\n",
		m.Sys.TotalMessages(),
		m.Sys.MsgCount(coherence.MsgGETS), m.Sys.MsgCount(coherence.MsgGETSWP),
		m.Sys.MsgCount(coherence.MsgGETX), m.Sys.MsgCount(coherence.MsgUpgrade),
		m.Sys.MsgCount(coherence.MsgFwdGETS)+m.Sys.MsgCount(coherence.MsgFwdGETX))
	return b.String(), nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "swiftdir-sim: "+format+"\n", args...)
	os.Exit(1)
}
