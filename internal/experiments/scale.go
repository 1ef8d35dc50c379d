package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/interconnect"
	"repro/internal/sim"
	"repro/internal/stats"
)

// scaleGeom is one machine point of the scaling study: a core count with
// an interconnect and directory organization legal at that size.
type scaleGeom struct {
	cores    int
	topology string // "crossbar" or "mesh"
	clusters int    // 0 = flat directory
}

// scaleGeoms is the study's sweep: the paper's crossbar machine, the
// same core counts on a mesh (so the two interconnects are directly
// comparable at 16 cores), then mesh-only sizes where the flat directory
// can no longer address the machine and the two-level organization takes
// over (cluster size 8, so invalidation fan-out per hub stays bounded).
func scaleGeoms() []scaleGeom {
	return []scaleGeom{
		{cores: 4, topology: "crossbar"},
		{cores: 16, topology: "crossbar"},
		{cores: 16, topology: "mesh"},
		{cores: 64, topology: "mesh", clusters: 8},
		{cores: 256, topology: "mesh", clusters: 32},
	}
}

// scaleSystem builds the hierarchy for one study point: one L1
// controller and one LLC bank per core, Table V timing, and per-core
// caches shrunk (8 KB L1, 64 KB LLC bank) so a 256-core machine stays
// cheap to allocate — the workload's working set fits either way, so
// the shrink changes no measured latency.
func scaleSystem(p coherence.Policy, g scaleGeom) *coherence.System {
	cfg := coherence.SystemConfig{
		NumL1:     g.cores,
		L1Params:  cache.Params{Name: "L1", SizeBytes: 8 << 10, Ways: 4, BlockSize: 64},
		LLCParams: cache.Params{Name: "LLC", SizeBytes: 64 << 10, Ways: 8, BlockSize: 64},
		Banks:     g.cores,
		Timing:    coherence.DefaultTiming(),
		Policy:    p,
		DRAM:      dram.DDR3_1600_8x8(),
		Clusters:  g.clusters,
	}
	if g.topology == "mesh" {
		cfg.Topology = "mesh"
		cfg.MeshW, cfg.MeshH = core.MeshDims(g.cores)
		cfg.MeshPerHop = 1
	}
	return coherence.MustNewSystem(cfg)
}

// scaleRow holds one (geometry, protocol) measurement.
type scaleRow struct {
	wpRead, grpRead, store float64 // mean latencies, cycles
	accesses               uint64
	messages               uint64
	avgHops                float64
}

// runScaleWorkload drives a fixed sharing mix and returns its metrics.
// Per round every core (in deterministic order) touches a private line,
// reads one of four globally hot write-protected lines, and reads its
// group's shared line; one member per group then stores to the group
// line, invalidating the other members. Groups interleave across the
// machine (core c belongs to group c mod ngroups), so at 64+ cores every
// group spans all clusters and each store fans invalidations through
// every hub.
func runScaleWorkload(s *coherence.System, cores int) scaleRow {
	const rounds = 8
	ngroups := cores / 8
	if ngroups < 1 {
		ngroups = 1
	}
	private := func(c int) cache.Addr { return cache.Addr(0x100000 + c*0x1000) }
	hot := func(i int) cache.Addr { return cache.Addr(0x40000 + i*64) }
	group := func(j int) cache.Addr { return cache.Addr(0x200000 + j*64) }

	var row scaleRow
	var wpSum, grpSum, storeSum float64
	var wpN, grpN, storeN int
	acc := func(c int, addr cache.Addr, write, wp bool, v uint64) sim.Cycle {
		row.accesses++
		return s.AccessSync(c, addr, write, wp, v).Latency
	}
	for r := 0; r < rounds; r++ {
		for c := 0; c < cores; c++ {
			acc(c, private(c), r%2 == 1, false, uint64(c))
			wpSum += float64(acc(c, hot(r%4), false, true, 0))
			wpN++
			grpSum += float64(acc(c, group(c%ngroups), false, false, 0))
			grpN++
		}
		// One store per group, rotating through the members.
		for j := 0; j < ngroups; j++ {
			writer := j + (r%(cores/ngroups))*ngroups
			storeSum += float64(acc(writer, group(j), true, false, uint64(r)))
			storeN++
		}
	}
	s.Quiesce()
	if err := s.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("scale: %v", err))
	}
	row.wpRead = wpSum / float64(wpN)
	row.grpRead = grpSum / float64(grpN)
	row.store = storeSum / float64(storeN)
	row.messages = s.TotalMessages()
	row.avgHops = s.Network().(*interconnect.Mesh).AvgHops()
	return row
}

// Scale measures how latency and traffic grow from the paper's 4-core
// crossbar to a 256-core mesh with a two-level directory, under the same
// sharing mix per core. The headline checks: the mesh reproduces the
// crossbar's behaviour at small scale (distance costs aside), the
// two-level directory keeps invalidation latency growing with the mesh
// diameter rather than the core count, and SwiftDir's traffic advantage
// survives scaling.
func Scale(ctx context.Context) string {
	type cell struct {
		geom scaleGeom
		p    coherence.Policy
		row  scaleRow
	}
	var jobs []campaign.Job[cell]
	for _, g := range scaleGeoms() {
		for _, p := range protocols {
			g, p := g, p
			jobs = append(jobs, campaign.Job[cell]{
				Name: fmt.Sprintf("scale/%d-%s/%s", g.cores, g.topology, p.Name()),
				Run: func() (cell, error) {
					s := scaleSystem(p, g)
					return cell{geom: g, p: p, row: runScaleWorkload(s, g.cores)}, nil
				},
			})
		}
	}

	var b strings.Builder
	b.WriteString("Scaling study: per-core sharing mix on growing machines\n")
	b.WriteString("(per round and core: 1 private access, 1 hot WP read, 1 group-shared\n")
	b.WriteString(" read; 1 store per 8-core group, invalidating members in every cluster;\n")
	b.WriteString(" per-core caches shrunk to keep 256-core machines cheap)\n\n")
	tb := stats.NewTable(
		"Mean latency (cycles) and interconnect traffic by machine size",
		"cores", "network", "directory", "protocol",
		"WP read", "shared read", "shared store", "messages", "msg/access", "avg hops")
	for _, c := range campaign.MustCollect(ctx, jobs) {
		g, r := c.geom, c.row
		network, hops := g.topology, "-"
		if g.topology == "mesh" {
			w, h := core.MeshDims(g.cores)
			network = fmt.Sprintf("mesh %dx%d", w, h)
			hops = fmt.Sprintf("%.2f", r.avgHops)
		}
		dir := "flat"
		if g.clusters > 1 {
			dir = fmt.Sprintf("2-level/%d", g.clusters)
		}
		tb.AddRowF(g.cores, network, dir, c.p.Name(),
			fmt.Sprintf("%.1f", r.wpRead), fmt.Sprintf("%.1f", r.grpRead),
			fmt.Sprintf("%.1f", r.store), r.messages,
			fmt.Sprintf("%.2f", float64(r.messages)/float64(r.accesses)), hops)
	}
	b.WriteString(tb.Render())
	b.WriteString("\nThe two-level directory adds hub hops to every miss (higher absolute\n")
	b.WriteString("latency), but store fan-out is aggregated per cluster, so invalidation\n")
	b.WriteString("cost tracks the mesh diameter, not the sharer count. SwiftDir's probes\n")
	b.WriteString("stay home-bank round trips at every size.\n")
	return b.String()
}

// scaleAttackConfig is the scaled Table V machine the covert channel
// runs on, with per-core L2 banks shrunk to 256 KB: the attack touches a
// few hundred lines, so LLC capacity affects no timing path, and 64-core
// machines allocate in milliseconds.
func scaleAttackConfig(cores int, p coherence.Policy) core.Config {
	cfg := core.DefaultScaledConfig(cores, p)
	cfg.L2Bank.SizeBytes = 256 << 10
	return cfg
}

// ScaleAttack re-runs the paper's covert channel on the scaled machines,
// against both a naive and a calibrating attacker. On a mesh the
// LLC-served (S-state) probe latency varies with the line's
// receiver-to-home distance, so the naive attacker's single global
// threshold drowns at 64 cores — the channel appears to close by noise
// alone. The calibrating attacker measures each line's baseline first
// (one extra scan of the mapped library) and decodes against per-line
// thresholds, restoring the MESI channel at every scale. SwiftDir's
// probes carry no E/S signal at any distance, so calibration does not
// help: scale is noise, not a defense.
func ScaleAttack(ctx context.Context, bits int) string {
	const seed = 0xA77AC4
	sizes := []int{4, 16, 64}
	type cell struct {
		cores int
		p     coherence.Policy
		r     attack.Result
		naive int // errors under the global threshold
	}
	var jobs []campaign.Job[cell]
	for _, cores := range sizes {
		for _, p := range protocols {
			cores, p := cores, p
			jobs = append(jobs, campaign.Job[cell]{
				Name: fmt.Sprintf("scale-attack/%d/%s", cores, p.Name()),
				Run: func() (cell, error) {
					cfg := scaleAttackConfig(cores, p)
					th, err := attack.CalibrateThresholds(cfg, bits)
					if err != nil {
						return cell{}, err
					}
					ch, err := attack.NewChannel(cfg, bits)
					if err != nil {
						return cell{}, err
					}
					ch.SetThresholds(th)
					r, err := ch.Run(bits, seed)
					if err != nil {
						return cell{}, err
					}
					naive := 0
					for _, lat := range r.Latencies1 {
						if lat <= ch.Threshold {
							naive++
						}
					}
					for _, lat := range r.Latencies0 {
						if lat > ch.Threshold {
							naive++
						}
					}
					return cell{cores: cores, p: p, r: r, naive: naive}, nil
				},
			})
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Covert channel vs machine scale (%d bits, mesh + two-level directory)\n\n", bits)
	tb := stats.NewTable(
		"Bit error rate by attacker sophistication",
		"cores", "network", "protocol", "gap (cyc)",
		"BER naive", "BER calibrated", "Kbps@3GHz", "verdict")
	for _, c := range campaign.MustCollect(ctx, jobs) {
		w, h := core.MeshDims(c.cores)
		verdict := "CLOSED"
		if c.r.Leaked {
			verdict = "OPEN"
		}
		tb.AddRowF(c.cores, fmt.Sprintf("mesh %dx%d", w, h), c.r.Protocol,
			fmt.Sprintf("%.1f", c.r.Gap),
			fmt.Sprintf("%.3f", float64(c.naive)/float64(c.r.Bits)),
			fmt.Sprintf("%.3f", c.r.BER),
			fmt.Sprintf("%.1f", c.r.KbpsAt(3.0)), verdict)
	}
	b.WriteString(tb.Render())
	b.WriteString("\nA rising naive BER at scale is distance noise, not security: per-line\n")
	b.WriteString("calibration restores the MESI channel wholesale. SwiftDir stays at\n")
	b.WriteString("guessing for both attackers at every machine size.\n")
	return b.String()
}
