package interconnect

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// onArrival adapts a callback to the handler SendEvent delivers to.
type onArrival func()

func (f onArrival) Handle(sim.Payload) { f() }

// crossbar builds the 1x1 mesh, every port on one router: the paper's
// crossbar, where a message contends only for its two endpoint ports.
func crossbar(t *testing.T, eng *sim.Engine, cfg MeshConfig) *Mesh {
	t.Helper()
	cfg.W, cfg.H = 1, 1
	return mustNewMesh(t, eng, cfg)
}

// The crossbar shape (one router) is validated like any other mesh: it
// still needs ports, and a port count alone is a valid crossbar.
func TestConfigValidate(t *testing.T) {
	if (MeshConfig{Ports: 0, W: 1, H: 1}).Validate() == nil {
		t.Fatal("zero ports accepted")
	}
	if (MeshConfig{Ports: 4, W: 1, H: 1}).Validate() != nil {
		t.Fatal("valid config rejected")
	}
}

func TestZeroOccupancyIsPureLatency(t *testing.T) {
	eng := sim.NewEngine()
	x := crossbar(t, eng, MeshConfig{Ports: 4, Latency: 3})
	var arrivals []sim.Cycle
	for i := 0; i < 10; i++ {
		x.SendEvent(0, 1, onArrival(func() { arrivals = append(arrivals, eng.Now()) }), sim.Payload{})
	}
	eng.Run()
	for _, a := range arrivals {
		if a != 3 {
			t.Fatalf("arrival at %d, want 3 (no contention)", a)
		}
	}
	if x.AvgQueueing() != 0 {
		t.Fatal("queueing counted in zero-occupancy mode")
	}
}

func TestPortContentionSerializes(t *testing.T) {
	eng := sim.NewEngine()
	x := crossbar(t, eng, MeshConfig{Ports: 4, Latency: 3, LinkOccupancy: 2})
	var arrivals []sim.Cycle
	// Three messages from the same source at t=0: egress admits one per
	// 2 cycles.
	for i := 0; i < 3; i++ {
		x.SendEvent(0, 1, onArrival(func() { arrivals = append(arrivals, eng.Now()) }), sim.Payload{})
	}
	eng.Run()
	want := []sim.Cycle{3, 5, 7}
	for i, a := range arrivals {
		if a != want[i] {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
	if x.MaxQueue != 4 {
		t.Fatalf("max queue = %d, want 4", x.MaxQueue)
	}
}

func TestDistinctPortPairsDoNotContend(t *testing.T) {
	eng := sim.NewEngine()
	x := crossbar(t, eng, MeshConfig{Ports: 4, Latency: 3, LinkOccupancy: 2})
	var arrivals []sim.Cycle
	x.SendEvent(0, 1, onArrival(func() { arrivals = append(arrivals, eng.Now()) }), sim.Payload{})
	x.SendEvent(2, 3, onArrival(func() { arrivals = append(arrivals, eng.Now()) }), sim.Payload{})
	eng.Run()
	if arrivals[0] != 3 || arrivals[1] != 3 {
		t.Fatalf("independent pairs contended: %v", arrivals)
	}
}

func TestIngressContention(t *testing.T) {
	eng := sim.NewEngine()
	x := crossbar(t, eng, MeshConfig{Ports: 4, Latency: 1, LinkOccupancy: 5})
	var arrivals []sim.Cycle
	// Two different sources target the same destination.
	x.SendEvent(0, 2, onArrival(func() { arrivals = append(arrivals, eng.Now()) }), sim.Payload{})
	x.SendEvent(1, 2, onArrival(func() { arrivals = append(arrivals, eng.Now()) }), sim.Payload{})
	eng.Run()
	if arrivals[0] != 1 || arrivals[1] != 6 {
		t.Fatalf("arrivals = %v, want [1 6]", arrivals)
	}
}

// Property: messages between a fixed pair always arrive in send order and
// never earlier than latency.
func TestOrderingProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		eng := sim.NewEngine()
		x := crossbar(t, eng, MeshConfig{Ports: 2, Latency: 4, LinkOccupancy: 3})
		var arrivals []sim.Cycle
		var sends []sim.Cycle
		t0 := sim.Cycle(0)
		for _, g := range gaps {
			t0 += sim.Cycle(g % 5)
			at := t0
			eng.ScheduleAt(at, func() {
				sends = append(sends, eng.Now())
				x.SendEvent(0, 1, onArrival(func() { arrivals = append(arrivals, eng.Now()) }), sim.Payload{})
			})
		}
		eng.Run()
		if len(arrivals) != len(gaps) {
			return false
		}
		for i := 1; i < len(arrivals); i++ {
			if arrivals[i] < arrivals[i-1] {
				return false
			}
		}
		for i := range arrivals {
			if arrivals[i] < sends[i]+4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	m, err := NewMesh(sim.NewEngine(), MeshConfig{Ports: 0, W: 1, H: 1})
	if err == nil {
		t.Fatal("bad config accepted")
	}
	if m != nil {
		t.Fatal("mesh returned alongside error")
	}
}

// The PortExtra hook injects endpoint-port occupancy: delays stretch
// delivery but the per-port bookkeeping preserves send order.
func TestExtraHookDelaysAndPreservesOrder(t *testing.T) {
	eng := sim.NewEngine()
	calls := 0
	x := crossbar(t, eng, MeshConfig{
		Ports: 2, Latency: 3,
		PortExtra: func(src, dst int, now sim.Cycle) sim.Cycle {
			calls++
			if calls == 1 {
				return 10 // spike on the first message only
			}
			return 0
		},
	})
	var arrivals []sim.Cycle
	x.SendEvent(0, 1, onArrival(func() { arrivals = append(arrivals, eng.Now()) }), sim.Payload{})
	x.SendEvent(0, 1, onArrival(func() { arrivals = append(arrivals, eng.Now()) }), sim.Payload{})
	eng.Run()
	// First message occupies the ports for 10 cycles; the second starts
	// after it, so both the spike and the ordering are visible.
	if len(arrivals) != 2 || arrivals[0] != 3 || arrivals[1] != 13 {
		t.Fatalf("arrivals = %v, want [3 13]", arrivals)
	}
	if calls != 2 {
		t.Fatalf("PortExtra consulted %d times, want 2", calls)
	}
}

// Nil hooks and zero occupancy must keep the pure-latency shortcut: no
// port bookkeeping, exactly Latency cycles per message.
func TestNilExtraKeepsPureLatencyPath(t *testing.T) {
	eng := sim.NewEngine()
	x := crossbar(t, eng, MeshConfig{Ports: 2, Latency: 5})
	var arrivals []sim.Cycle
	for i := 0; i < 4; i++ {
		x.SendEvent(0, 1, onArrival(func() { arrivals = append(arrivals, eng.Now()) }), sim.Payload{})
	}
	eng.Run()
	for _, a := range arrivals {
		if a != 5 {
			t.Fatalf("arrival at %d, want 5", a)
		}
	}
	if x.QueuedCycles != 0 {
		t.Fatal("pure-latency path did port bookkeeping")
	}
}
