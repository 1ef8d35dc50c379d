// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate every timed component in this repository is
// built on: cache controllers, the directory, the DRAM model, and the CPU
// models all schedule work at future cycles and the engine executes it in
// (cycle, insertion-order) order. Determinism is guaranteed by a
// monotonically increasing sequence number that breaks ties between events
// scheduled for the same cycle, so two runs with the same inputs produce
// identical event interleavings and therefore identical statistics.
//
// Every event is a (Handler, Payload) pair: the handler is a long-lived
// component (an L1 controller, an LLC bank) and the payload is a
// fixed-size value struct carried inside the event slot, so
// ScheduleEvent/ScheduleEventAt allocate nothing in steady state.
// Schedule/ScheduleAt take a closure for cold paths and store it as the
// handler of a zero payload; only a capturing closure itself allocates.
//
// One optional run guard (Arm, guard.go) ends a run early: when a stop
// flag set from another goroutine is observed, or when a watchdog budget
// of events or cycles passes without a Progress mark. The pop loop tests
// one pointer for it, so an unguarded run pays a single nil check per
// event and a guarded one an atomic load.
//
// Storage is a calendar queue: a ring of per-cycle FIFO buckets covering
// the near future, with a slice-backed binary min-heap as the overflow
// tier for events more than ringSize cycles out. Every ring event lives in
// one slab; a bucket is a linked list of slab slots, and released slots go
// to a free list threaded through the same links. The slab grows with the
// peak number of pending events, not with the ring size or the run's
// length, so a fresh engine allocates a handful of times and steady-state
// execution performs no allocation and no interface boxing.
package sim

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in processor clock cycles.
type Cycle uint64

// Payload is the fixed-size argument carried by every event.
// Components pack their message or request state into it (see
// coherence.Msg's codec) instead of capturing it in a closure. Field
// meaning is owner-defined; Op conventionally discriminates the action
// when one handler serves several event types.
type Payload struct {
	A, B    uint64
	X, Y, Z int32
	K, F    uint8
	Aux, Op uint8
}

// Handler consumes payload-carrying events. Implementations are long-lived
// simulation components; the interface value in the event slot is a plain
// pointer, so scheduling through a Handler never allocates.
type Handler interface {
	Handle(p Payload)
}

// closure adapts a func() to Handler for Schedule. A func value is
// pointer-shaped, so storing one in a Handler allocates nothing.
type closure func()

func (f closure) Handle(Payload) { f() }

// event is a unit of scheduled work: a handler and its payload.
type event struct {
	when Cycle
	seq  uint64
	h    Handler
	p    Payload
}

const (
	// ringBits sizes the near-future calendar ring. 1024 cycles covers
	// every protocol hop and the DRAM access window, so in practice only
	// refresh-scale timers hit the overflow tier.
	ringBits = 10
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
	ringWord = ringSize / 64
)

// bucket is the FIFO of events for one cycle of the near-future ring: the
// slab slots of its first and last events, linked through Engine.next.
// Slot 0 is the nil sentinel, so the zero bucket is empty.
type bucket struct {
	head, tail int32
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use; time starts at cycle 0.
type Engine struct {
	now      Cycle
	seq      uint64
	executed uint64
	pending  int

	ring [ringSize]bucket
	occ  [ringWord]uint64 // occupancy bitmap: bit i set iff ring[i] has unexecuted events

	// slab holds every ring event; next links each slot to its successor
	// in its bucket or in the free list headed by free. Slot 0 is the nil
	// sentinel, and both slices are created on first use so the zero
	// Engine stays usable. Free slots are kept zeroed.
	slab []event
	next []int32
	free int32

	// overflow holds events scheduled >= ringSize cycles out, as a binary
	// min-heap ordered by (when, seq). Events migrate into the ring as the
	// current cycle advances and their horizon opens.
	overflow []event

	// g is the armed run guard, or nil. See guard.go. Kept as a single
	// pointer so the disarmed hot path pays one nil check.
	g *guard
}

// NewEngine returns an engine with time set to cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

// Executed returns the total number of events the engine has run.
func (e *Engine) Executed() uint64 { return e.executed }

// Schedule enqueues fn to run delay cycles from now. A delay of zero runs
// fn later in the current cycle, after all previously scheduled events for
// this cycle.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	if fn == nil {
		panic("sim: Schedule called with nil function")
	}
	e.ScheduleEvent(delay, closure(fn), Payload{})
}

// ScheduleAt enqueues fn at an absolute cycle, which must not be in the
// past. when == Now() is valid and runs later in the current cycle.
func (e *Engine) ScheduleAt(when Cycle, fn func()) {
	if when < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) in the past (now=%d)", when, e.now))
	}
	e.Schedule(when-e.now, fn)
}

// ScheduleEvent enqueues a (handler, payload) event delay cycles from now.
// It allocates nothing: the payload is stored by value in the event slot
// and the handler is an existing component pointer.
func (e *Engine) ScheduleEvent(delay Cycle, h Handler, p Payload) {
	if h == nil {
		panic("sim: ScheduleEvent called with nil handler")
	}
	e.seq++
	e.pending++
	when := e.now + delay
	if delay >= ringSize {
		e.overflowPush(event{when: when, seq: e.seq, h: h, p: p})
		return
	}
	ev := e.enqueueNear(when)
	ev.when, ev.seq, ev.h, ev.p = when, e.seq, h, p
}

// ScheduleEventAt is ScheduleEvent at an absolute cycle, which must not be
// in the past.
func (e *Engine) ScheduleEventAt(when Cycle, h Handler, p Payload) {
	if when < e.now {
		panic(fmt.Sprintf("sim: ScheduleEventAt(%d) in the past (now=%d)", when, e.now))
	}
	e.ScheduleEvent(when-e.now, h, p)
}

// enqueueNear links a zeroed slab slot at the tail of when's bucket and
// returns it for the caller to fill in place. The pointer is valid until
// the next enqueueNear, which may grow the slab.
func (e *Engine) enqueueNear(when Cycle) *event {
	i := e.free
	if i != 0 {
		e.free = e.next[i]
		e.next[i] = 0
	} else {
		if len(e.slab) == 0 {
			e.slab = make([]event, 1, 64)
			e.next = make([]int32, 1, 64)
		}
		i = int32(len(e.slab))
		e.slab = append(e.slab, event{})
		e.next = append(e.next, 0)
	}
	idx := uint32(when) & ringMask
	b := &e.ring[idx]
	if b.tail == 0 {
		b.head = i
		e.occ[idx>>6] |= 1 << (idx & 63)
	} else {
		e.next[b.tail] = i
	}
	b.tail = i
	return &e.slab[i]
}

// nextTime returns the timestamp of the earliest pending event. Ring
// events are always earlier than overflow events (the overflow tier holds
// only events >= now+ringSize), so the ring is scanned first via the
// occupancy bitmap.
func (e *Engine) nextTime() (Cycle, bool) {
	if e.pending == 0 {
		return 0, false
	}
	if d, ok := e.scanRing(); ok {
		return e.now + Cycle(d), true
	}
	if len(e.overflow) > 0 {
		return e.overflow[0].when, true
	}
	return 0, false
}

// scanRing finds the circular distance from now to the first occupied
// bucket, scanning the bitmap one word at a time.
func (e *Engine) scanRing() (uint32, bool) {
	start := uint32(e.now) & ringMask
	w := start >> 6
	off := start & 63
	// First (partial) word: bits at or after the start position.
	if word := e.occ[w] >> off; word != 0 {
		return uint32(bits.TrailingZeros64(word)), true
	}
	// Remaining words in circular order, including the wrapped start word
	// (its low bits cover the farthest cycles of the horizon).
	for i := uint32(1); i <= ringWord; i++ {
		cw := (w + i) & (ringWord - 1)
		word := e.occ[cw]
		if i == ringWord {
			word &= (1 << off) - 1 // only bits before start remain
		}
		if word != 0 {
			dist := i*64 - off + uint32(bits.TrailingZeros64(word))
			return dist, true
		}
	}
	return 0, false
}

// advanceTo moves simulated time forward and migrates overflow events
// whose horizon opened into the ring. Migration pops in (when, seq) order,
// so same-cycle overflow events land in their bucket in sequence order,
// ahead of any event scheduled for that cycle afterwards (which, by
// monotonicity of seq, is younger).
func (e *Engine) advanceTo(t Cycle) {
	if t == e.now {
		return
	}
	e.now = t
	for len(e.overflow) > 0 && e.overflow[0].when-t < ringSize {
		ev := e.overflowPop()
		*e.enqueueNear(ev.when) = ev
	}
}

// popRun executes the next event of the current cycle's bucket. The
// executed slot is zeroed and freed before the event runs, so no handler
// reference outlives its event.
func (e *Engine) popRun() {
	idx := uint32(e.now) & ringMask
	b := &e.ring[idx]
	i := b.head
	ev := e.slab[i]
	e.slab[i] = event{}
	b.head = e.next[i]
	if b.head == 0 {
		b.tail = 0
		e.occ[idx>>6] &^= 1 << (idx & 63)
	}
	e.next[i] = e.free
	e.free = i
	e.pending--
	e.executed++
	ev.h.Handle(ev.p)
	if e.g != nil {
		e.check()
	}
}

// step executes the single earliest event. It reports false if the queue
// is empty.
func (e *Engine) step() bool {
	t, ok := e.nextTime()
	if !ok {
		return false
	}
	e.advanceTo(t)
	e.popRun()
	return true
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp, and reports whether an event ran. It is the model
// checker's scheduling primitive: exploring every interleaving of
// externally injected work between individual engine events enumerates
// every schedule the deterministic engine can produce.
func (e *Engine) Step() bool { return e.step() }

// ForEachPending visits every pending event in execution order — (when,
// seq), the order Run would execute them — reporting each event's delay
// relative to Now, its handler and payload. The engine must not be mutated
// during iteration. Model checkers use this to fold the event queue into a
// canonical state fingerprint.
func (e *Engine) ForEachPending(fn func(rel Cycle, h Handler, p Payload)) {
	if e.pending == 0 {
		return
	}
	evs := make([]event, 0, e.pending)
	for i := range e.ring {
		for j := e.ring[i].head; j != 0; j = e.next[j] {
			evs = append(evs, e.slab[j])
		}
	}
	evs = append(evs, e.overflow...)
	sortEvents(evs)
	for i := range evs {
		ev := &evs[i]
		fn(ev.when-e.now, ev.h, ev.p)
	}
}

// sortEvents orders events by (when, seq) with a simple insertion sort:
// pending queues are small (tens of events) whenever ForEachPending is
// used, and avoiding package sort keeps the event type fully unexported.
func sortEvents(evs []event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && eventLess(&evs[j], &evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// Run executes events until the queue drains and returns the final cycle.
func (e *Engine) Run() Cycle {
	for e.step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= limit. Events scheduled
// beyond limit remain queued. It returns the current cycle, which is
// min(limit, time of last executed event) or the prior now if nothing ran.
func (e *Engine) RunUntil(limit Cycle) Cycle {
	for {
		t, ok := e.nextTime()
		if !ok || t > limit {
			break
		}
		e.advanceTo(t)
		e.popRun()
	}
	if e.now < limit && e.pending > 0 {
		// Advance logical time to the limit so callers observe a
		// consistent clock even if no event landed exactly on it.
		e.advanceTo(limit)
	}
	return e.now
}

// RunFor executes events for the next d cycles.
func (e *Engine) RunFor(d Cycle) Cycle { return e.RunUntil(e.now + d) }

// RunTo is RunUntil with an unconditional clock advance: after executing
// every event with timestamp <= t, the clock lands exactly on t even if
// the queue drained first, so a caller can set the clock of an engine
// with nothing scheduled.
func (e *Engine) RunTo(t Cycle) Cycle {
	e.RunUntil(t)
	if e.now < t {
		e.advanceTo(t)
	}
	return e.now
}

// RunWhile executes events while cond returns true and events remain.
// It returns the final cycle.
func (e *Engine) RunWhile(cond func() bool) Cycle {
	for cond() && e.step() {
	}
	return e.now
}

// MaxEventsExceeded is returned (as a panic message prefix) by RunBounded.
const maxEventsMsg = "sim: event budget exhausted (possible livelock)"

// RunBounded executes up to maxEvents events; it panics if the budget is
// exhausted while events remain, which in this codebase always indicates a
// protocol livelock. It returns the final cycle.
func (e *Engine) RunBounded(maxEvents uint64) Cycle {
	var n uint64
	for e.step() {
		n++
		if n >= maxEvents && e.pending > 0 {
			panic(maxEventsMsg)
		}
	}
	return e.now
}

// --- overflow tier: slice-backed binary min-heap on (when, seq) ----------

func eventLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *Engine) overflowPush(ev event) {
	h := append(e.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.overflow = h
}

func (e *Engine) overflowPop() event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // zero the vacated slot: no retained handler refs
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(&h[l], &h[small]) {
			small = l
		}
		if r < n && eventLess(&h[r], &h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	e.overflow = h
	return top
}
