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
	// Warm the bucket free lists.
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
	// Warm the overflow heap's capacity, then every ring bucket's slot
	// (migrated events land in buckets that slide forward each run).
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
