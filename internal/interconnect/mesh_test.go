package interconnect

import (
	"testing"

	"repro/internal/sim"
)

func mustNewMesh(t *testing.T, eng *sim.Engine, cfg MeshConfig) *Mesh {
	t.Helper()
	m, err := NewMesh(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMeshConfigValidate(t *testing.T) {
	if (MeshConfig{Ports: 0, W: 2, H: 2}).Validate() == nil {
		t.Fatal("zero ports accepted")
	}
	if (MeshConfig{Ports: 4, W: 0, H: 2}).Validate() == nil {
		t.Fatal("zero-width mesh accepted")
	}
	if (MeshConfig{Ports: 4, W: 2, H: 2, RouterOf: []int{0, 1}}).Validate() == nil {
		t.Fatal("short RouterOf accepted")
	}
	if (MeshConfig{Ports: 2, W: 2, H: 2, RouterOf: []int{0, 4}}).Validate() == nil {
		t.Fatal("out-of-range router accepted")
	}
	if (MeshConfig{Ports: 4, W: 2, H: 2}).Validate() != nil {
		t.Fatal("valid config rejected")
	}
}

// Hop latency must be exactly base + Manhattan distance x PerHop for an
// unloaded mesh, for every port pair.
func TestMeshHopLatencyIsManhattan(t *testing.T) {
	const W, H = 4, 3
	eng := sim.NewEngine()
	ports := W * H
	routers := make([]int, ports)
	for i := range routers {
		routers[i] = i // port i on router i
	}
	m := mustNewMesh(t, eng, MeshConfig{
		Ports: ports, W: W, H: H, Latency: 3, PerHop: 2, RouterOf: routers,
	})
	for src := 0; src < ports; src++ {
		for dst := 0; dst < ports; dst++ {
			sx, sy := src%W, src/W
			dx, dy := dst%W, dst/W
			man := abs(sx-dx) + abs(sy-dy)
			want := sim.Cycle(3 + 2*man)
			if got := m.MinLatency(src, dst); got != want {
				t.Fatalf("MinLatency(%d,%d) = %d, want %d (dist %d)", src, dst, got, want, man)
			}
			var at sim.Cycle
			delivered := false
			m.SendEvent(src, dst, onArrival(func() { at, delivered = eng.Now(), true }), sim.Payload{})
			now := eng.Now()
			eng.Run()
			if !delivered || at != now+want {
				t.Fatalf("unloaded delivery %d->%d at %d, want %d", src, dst, at, now+want)
			}
		}
	}
	if m.AvgQueueing() != 0 {
		t.Fatal("queueing counted on an unloaded pure-latency mesh")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Messages entering the mesh at the same cycle must be delivered in a
// deterministic order: the engine's (cycle, seq) tie-break, i.e. exactly
// admission order for equal latencies.
func TestMeshDeterministicOrderAtEqualArrival(t *testing.T) {
	run := func() []int {
		eng := sim.NewEngine()
		m := mustNewMesh(t, eng, MeshConfig{Ports: 8, W: 2, H: 2, Latency: 1, PerHop: 1})
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			// All to the same destination with the same source router:
			// identical delivery cycles, ordered purely by sequence.
			m.SendEvent(0, 1, onArrival(func() { order = append(order, i) }), sim.Payload{})
		}
		eng.Run()
		return order
	}
	first := run()
	for i, v := range first {
		if v != i {
			t.Fatalf("delivery order %v not admission order", first)
		}
	}
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("delivery order differs across runs: %v vs %v", first, second)
		}
	}
}

// XY routing is deadlock-free: full-mesh random traffic with link
// occupancy must drain completely, every message delivered no earlier
// than its unloaded latency, and per-(src,dst) delivery order monotone.
func TestMeshXYRandomTrafficDrains(t *testing.T) {
	const W, H = 4, 4
	eng := sim.NewEngine()
	ports := W * H
	routers := make([]int, ports)
	for i := range routers {
		routers[i] = i
	}
	m := mustNewMesh(t, eng, MeshConfig{
		Ports: ports, W: W, H: H, Latency: 2, PerHop: 1, LinkOccupancy: 2,
		RouterOf: routers,
	})
	rng := sim.NewRNG(42)
	type rec struct {
		src, dst int
		sent     sim.Cycle
		got      sim.Cycle
	}
	var recs []*rec
	const n = 2000
	for i := 0; i < n; i++ {
		src := int(rng.Uint64n(uint64(ports)))
		dst := int(rng.Uint64n(uint64(ports)))
		r := &rec{src: src, dst: dst, sent: eng.Now()}
		recs = append(recs, r)
		m.SendEvent(src, dst, onArrival(func() { r.got = eng.Now() }), sim.Payload{})
		if i%5 == 0 {
			eng.RunTo(eng.Now() + 1)
		}
	}
	eng.Run()
	last := map[[2]int]sim.Cycle{}
	for _, r := range recs {
		if r.got == 0 {
			t.Fatalf("message %d->%d sent at %d never delivered (deadlock?)", r.src, r.dst, r.sent)
		}
		if min := r.sent + m.MinLatency(r.src, r.dst); r.got < min {
			t.Fatalf("message %d->%d delivered at %d, before unloaded bound %d", r.src, r.dst, r.got, min)
		}
		key := [2]int{r.src, r.dst}
		if r.got < last[key] {
			t.Fatalf("per-pair order violated for %v: %d after %d", key, r.got, last[key])
		}
		last[key] = r.got
	}
	if m.MessageCount() != n {
		t.Fatalf("MessageCount = %d, want %d", m.MessageCount(), n)
	}
	if m.HopsTotal == 0 {
		t.Fatal("no hops recorded under random traffic")
	}
}

// A 1x1 mesh must be byte-identical to a crossbar with the same latency
// and occupancy: same delivery cycles, same queueing statistics, for the
// same admission sequence.
func TestMesh1x1EquivalentToCrossbar(t *testing.T) {
	for _, occ := range []sim.Cycle{0, 3} {
		engX := sim.NewEngine()
		x := mustNew(t, engX, Config{Ports: 6, Latency: 4, Occupancy: occ})
		engM := sim.NewEngine()
		m := mustNewMesh(t, engM, MeshConfig{Ports: 6, W: 1, H: 1, Latency: 4, PerHop: 7, LinkOccupancy: occ})

		rng := sim.NewRNG(7)
		var xa, ma []sim.Cycle
		for i := 0; i < 500; i++ {
			src := int(rng.Uint64n(6))
			dst := int(rng.Uint64n(6))
			x.SendEvent(src, dst, onArrival(func() { xa = append(xa, engX.Now()) }), sim.Payload{})
			m.SendEvent(src, dst, onArrival(func() { ma = append(ma, engM.Now()) }), sim.Payload{})
			if i%7 == 0 {
				engX.RunTo(engX.Now() + 2)
				engM.RunTo(engM.Now() + 2)
			}
		}
		engX.Run()
		engM.Run()
		if len(xa) != len(ma) {
			t.Fatalf("occ=%d: delivered %d vs %d messages", occ, len(xa), len(ma))
		}
		for i := range xa {
			if xa[i] != ma[i] {
				t.Fatalf("occ=%d: delivery %d at cycle %d (crossbar) vs %d (1x1 mesh)", occ, i, xa[i], ma[i])
			}
		}
		if x.QueuedCycles != m.QueuedCycles || x.MaxQueue != m.MaxQueue || x.MessageCount() != m.MessageCount() {
			t.Fatalf("occ=%d: stats diverge: crossbar {%d %d %d} vs mesh {%d %d %d}",
				occ, x.QueuedCycles, x.MaxQueue, x.MessageCount(),
				m.QueuedCycles, m.MaxQueue, m.MessageCount())
		}
	}
}

// Default router placement spreads ports evenly and in order.
func TestMeshDefaultPlacement(t *testing.T) {
	eng := sim.NewEngine()
	m := mustNewMesh(t, eng, MeshConfig{Ports: 8, W: 2, H: 2, Latency: 1})
	prev := -1
	for p := 0; p < 8; p++ {
		r := m.RouterOfPort(p)
		if r < prev {
			t.Fatalf("placement not monotone: port %d on router %d after %d", p, r, prev)
		}
		if r < 0 || r >= 4 {
			t.Fatalf("port %d on out-of-range router %d", p, r)
		}
		prev = r
	}
}
