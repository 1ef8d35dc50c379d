//go:build !race

// Allocation-regression tests: the zero-allocation contract of the event
// engine, enforced in CI. Excluded under -race because the race detector
// instruments allocations.

package sim

import "testing"

// selfTicker reschedules itself n times: the steady-state shape of every
// simulation component's clocking loop.
type selfTicker struct {
	e *Engine
	n int
}

func (s *selfTicker) Handle(p Payload) {
	if s.n > 0 {
		s.n--
		s.e.ScheduleEvent(1, s, p)
	}
}

// TestScheduleEventZeroAlloc pins the (schedule, dispatch) cycle of the
// handler-based event API at zero allocations per event.
func TestScheduleEventZeroAlloc(t *testing.T) {
	e := NewEngine()
	tick := &selfTicker{e: e}
	// Warm the slab.
	tick.n = 2 * ringSize
	e.ScheduleEvent(1, tick, Payload{})
	e.Run()

	allocs := testing.AllocsPerRun(200, func() {
		tick.n = 64
		e.ScheduleEvent(1, tick, Payload{A: 7})
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleEvent+dispatch allocates %.1f allocs per 65-event run, want 0", allocs)
	}
}

// TestOverflowSteadyStateZeroAlloc pins the overflow tier: once the heap
// slice has grown, far-future scheduling and migration allocate nothing.
func TestOverflowSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	r := &selfTicker{e: e}
	// Warm the overflow heap's capacity, then the slab (migrated events
	// take slab slots as they enter the ring).
	for i := 0; i < 64; i++ {
		e.ScheduleEvent(ringSize+Cycle(i), r, Payload{})
	}
	e.Run()
	for i := Cycle(0); i < ringSize; i++ {
		e.ScheduleEvent(i, r, Payload{})
	}
	e.Run()

	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			e.ScheduleEvent(ringSize+Cycle(i), r, Payload{})
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("overflow schedule+migrate allocates %.1f per run, want 0", allocs)
	}
}

// TestFreshEngineAllocs pins a fresh engine's allocations to its peak
// number of pending events rather than its ring size: 24 self-rescheduling
// handlers put 24 events in every cycle for two full turns of the ring, so
// every bucket fills twice. Storage that grows per bucket allocates in
// each of the 1024 buckets (6144 times); the slab grows a few times, and
// the rest is the engine and the handlers themselves.
func TestFreshEngineAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		for i := 0; i < 24; i++ {
			e.ScheduleEvent(1, &selfTicker{e: e, n: 2 * ringSize}, Payload{})
		}
		e.Run()
	})
	if allocs > 64 {
		t.Fatalf("fresh engine allocates %.0f times for 24 events/cycle over two ring turns, want <= 64", allocs)
	}
}
