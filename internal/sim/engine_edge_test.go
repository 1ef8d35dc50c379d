package sim

import (
	"testing"
)

// recorder collects the payloads it handles, tagged with the cycle.
type recorder struct {
	e    *Engine
	got  []Payload
	at   []Cycle
	hits int
}

func (r *recorder) Handle(p Payload) {
	r.got = append(r.got, p)
	if r.e != nil {
		r.at = append(r.at, r.e.Now())
	}
	r.hits++
}

func TestScheduleEventDeliversPayload(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	want := Payload{A: 0xDEAD, B: 0xBEEF, X: -3, Y: 7, Z: 11, K: 1, F: 2, Aux: 3, Op: 4}
	e.ScheduleEvent(5, r, want)
	e.Run()
	if len(r.got) != 1 || r.got[0] != want {
		t.Fatalf("payload round trip: got %+v, want %+v", r.got, want)
	}
	if r.at[0] != 5 {
		t.Fatalf("event ran at cycle %d, want 5", r.at[0])
	}
}

func TestScheduleEventNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleEvent(nil handler) did not panic")
		}
	}()
	NewEngine().ScheduleEvent(1, nil, Payload{})
}

// ScheduleAt(Now()) from inside an event must run later in the same cycle,
// after all previously scheduled events for that cycle.
func TestScheduleAtExactlyNow(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleAt(5, func() {
		order = append(order, 1)
		e.ScheduleAt(e.Now(), func() { order = append(order, 3) })
	})
	e.ScheduleAt(5, func() { order = append(order, 2) })
	end := e.Run()
	if end != 5 {
		t.Fatalf("end cycle = %d, want 5", end)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v, want [1 2 3]", order)
		}
	}
}

// Same-cycle ties exactly at the RunUntil limit must all execute, in seq
// order, including zero-delay events spawned at the limit; events one
// cycle past the limit stay queued.
func TestRunUntilSameCycleTiesAtLimit(t *testing.T) {
	e := NewEngine()
	var order []int
	const limit = Cycle(42)
	e.ScheduleAt(limit, func() {
		order = append(order, 1)
		e.Schedule(0, func() { order = append(order, 3) })
	})
	e.ScheduleAt(limit, func() { order = append(order, 2) })
	e.ScheduleAt(limit+1, func() { order = append(order, 99) })
	now := e.RunUntil(limit)
	if now != limit {
		t.Fatalf("clock = %d, want %d", now, limit)
	}
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the limit+1 event", e.Pending())
	}
	e.Run()
	if order[len(order)-1] != 99 {
		t.Fatalf("limit+1 event did not run after the drain: %v", order)
	}
}

// Seq tie-break must survive the 2^32 boundary: a (scaled-down) stand-in
// for a simulation that schedules more than 2^32 events. A truncation of
// seq to 32 bits would invert same-cycle FIFO order here.
func TestSeqTieBreakAcross32BitBoundary(t *testing.T) {
	e := NewEngine()
	e.seq = (1 << 32) - 3 // as if ~2^32 events had already been scheduled
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		e.Schedule(9, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 6; i++ {
		if order[i] != i {
			t.Fatalf("FIFO broken across 2^32 seq boundary: order = %v", order)
		}
	}
	if e.seq <= 1<<32 {
		t.Fatalf("seq = %d did not cross the boundary", e.seq)
	}
	// Same property for the overflow heap, whose comparator also uses seq.
	e2 := NewEngine()
	e2.seq = (1 << 32) - 3
	var far []int
	for i := 0; i < 6; i++ {
		i := i
		e2.ScheduleAt(ringSize+100, func() { far = append(far, i) })
	}
	e2.Run()
	for i := 0; i < 6; i++ {
		if far[i] != i {
			t.Fatalf("overflow FIFO broken across 2^32 seq boundary: %v", far)
		}
	}
}

// Events beyond the ring horizon take the overflow tier and must still
// interleave correctly with near-future events, including events scheduled
// directly into the same cycle later (which carry larger seqs).
func TestOverflowMigrationPreservesOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	const far = Cycle(2 * ringSize) // well past the horizon at t=0
	e.ScheduleAt(far, func() { order = append(order, 1) })
	e.ScheduleAt(ringSize+10, func() {
		// far is now within the horizon; this sibling event for the same
		// cycle is younger and must run second.
		e.ScheduleAt(far, func() { order = append(order, 2) })
	})
	e.Run()
	want := []int{1, 2}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestOverflowManyFarEvents(t *testing.T) {
	e := NewEngine()
	var times []Cycle
	// Schedule far-future events in descending time order so the heap has
	// to re-sort them all.
	for i := 63; i >= 0; i-- {
		e.ScheduleAt(Cycle(ringSize+64*i+7), func() { times = append(times, e.Now()) })
	}
	e.Run()
	if len(times) != 64 {
		t.Fatalf("ran %d events, want 64", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("overflow events out of order: %v", times)
		}
	}
}

// RunUntil must migrate overflow events when it advances the clock to the
// limit with no event landing on it, so a later run sees them in the ring.
func TestRunUntilMigratesOverflow(t *testing.T) {
	e := NewEngine()
	ran := false
	e.ScheduleAt(ringSize+50, func() { ran = true })
	e.RunUntil(ringSize + 10) // advances clock past the event's horizon
	if ran {
		t.Fatal("event ran before its cycle")
	}
	if got := e.Now(); got != ringSize+10 {
		t.Fatalf("clock = %d, want %d", got, ringSize+10)
	}
	e.Run()
	if !ran {
		t.Fatal("migrated event never ran")
	}
}

// Executed slots must be zeroed: a drained engine retains no function or
// handler references in its slab or overflow heap (they would pin
// otherwise-dead object graphs for the lifetime of the engine), and every
// bucket is empty.
func TestReleasedSlotsAreZeroed(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	for i := 0; i < 300; i++ {
		e.Schedule(Cycle(i%40), func() {})
		e.ScheduleEvent(Cycle(i%40), r, Payload{A: uint64(i)})
	}
	// A few overflow events too.
	for i := 0; i < 8; i++ {
		e.ScheduleAt(Cycle(ringSize+100+i), func() {})
	}
	e.Run()
	for idx := range e.ring {
		if b := e.ring[idx]; b != (bucket{}) {
			t.Fatalf("bucket %d not reset: head=%d tail=%d", idx, b.head, b.tail)
		}
	}
	if len(e.slab) < 1+600 {
		t.Fatalf("slab holds %d slots, want the sentinel plus 600 ring events", len(e.slab))
	}
	full := e.slab[:cap(e.slab)]
	for j := range full {
		if full[j].fn != nil || full[j].h != nil {
			t.Fatalf("slab slot %d retains a reference after release", j)
		}
		if full[j].when != 0 || full[j].seq != 0 || full[j].p != (Payload{}) {
			t.Fatalf("slab slot %d not zeroed: %+v", j, full[j])
		}
	}
	full = e.overflow[:cap(e.overflow)]
	for j := range full {
		if full[j].fn != nil || full[j].h != nil {
			t.Fatalf("overflow slot %d retains a reference after release", j)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain", e.Pending())
	}
}

// The occupancy bitmap must agree with the buckets after arbitrary
// schedule/run interleavings.
func TestOccupancyBitmapConsistency(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(99)
	for round := 0; round < 50; round++ {
		n := int(rng.Uint64n(20)) + 1
		for i := 0; i < n; i++ {
			e.Schedule(Cycle(rng.Uint64n(ringSize)), func() {})
		}
		e.RunFor(Cycle(rng.Uint64n(200)))
	}
	e.Run()
	for w, word := range e.occ {
		if word != 0 {
			t.Fatalf("occupancy word %d = %#x after drain", w, word)
		}
	}
}
