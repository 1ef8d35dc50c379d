package cpu

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/sim"
)

// OutOfOrder is a DerivO3CPU-style core: a reorder buffer of Table V's 192
// entries, 32-entry load and store queues, and superscalar width 8 for
// fetch, issue, and commit. Instructions issue when their register
// dependences resolve, memory operations overlap up to the queue limits,
// and commit is in order — so long-latency coherence events (S-MESI's
// upgrade round trips in particular) stall the window and surface as IPC
// loss, reproducing the amplification the paper reports in Figure 10(b).
//
// Simplifications relative to gem5's DerivO3CPU, none of which affect the
// protocol comparison: no branch misprediction (traces are linear), no
// speculative wrong-path fetch, and stores issue to the hierarchy when
// their operands are ready rather than at commit.
type OutOfOrder struct {
	ctx   *core.Context
	trace TraceSource
	bar   *Barrier

	robSize, lqSize, sqSize, width int

	rob   []o3Entry
	head  uint64 // global index of the oldest in-flight instruction
	tail  uint64 // next global index to fetch
	eof   bool
	ready []int // slots whose dependences are resolved
	// waiters[s] lists the slots waiting on the producer in ROB slot s;
	// markDone consumes and truncates it, so a slot's list is empty
	// before the slot is refilled.
	waiters [][]int
	// memDone[s] is the completion callback of the memory op in ROB slot
	// s, built once so issuing a memory op allocates nothing.
	memDone []func(coherence.AccessResult)

	loadsInFlight int

	// Store buffer (TSO drain): stores issue to the hierarchy in program
	// order, with up to drainDepth distinct-block transactions
	// overlapping; stores to a block that already has an in-flight store
	// coalesce into its transaction for free (write combining). storeOrder
	// holds un-issued store indices in fetch order; storeBlocks holds one
	// (block, in-flight stores) pair per block with in-flight stores, at
	// most drainDepth of them; sqOcc counts stores occupying the SQ
	// (fetched but not completed).
	storeOrder  []uint64
	storeBlocks []storeBlock
	drainDepth  int
	blockMask   mmu.VAddr
	sqOcc       int
	stash       Instr // fetched instruction deferred by a full SQ
	stashed     bool

	// Mispredict handling: fetch stalls from the moment a mispredicted
	// branch is dispatched until it resolves plus the redirect penalty.
	fetchBlockedOn  uint64 // instruction index of the blocking branch
	fetchBlocked    bool
	redirectPending bool

	tickScheduled bool
	finished      bool
	stats         Stats
	done          func()
}

// Payload ops for the core's self-wakeup events (see Handle).
const (
	o3OpTick     uint8 = 1 // pipeline tick
	o3OpMarkDone uint8 = 2 // fixed-latency instruction completed (A = idx)
	o3OpRedirect uint8 = 3 // mispredict redirect penalty elapsed
)

// Handle implements sim.Handler for the core's scheduled work, replacing
// the per-event closures the pipeline used to allocate.
func (c *OutOfOrder) Handle(p sim.Payload) {
	switch p.Op {
	case o3OpTick:
		c.tickScheduled = false
		c.tick()
	case o3OpMarkDone:
		c.markDone(p.A)
	case o3OpRedirect:
		c.fetchBlocked = false
		c.redirectPending = false
		c.ensureTick()
	default:
		panic(fmt.Sprintf("cpu: o3 core: unknown payload op %d", p.Op))
	}
}

type o3Status uint8

const (
	stWaiting o3Status = iota
	stReady
	stIssued
	stDone
)

type o3Entry struct {
	instr       Instr
	idx         uint64
	pendingDeps int
	status      o3Status
	arrived     bool // barrier reached its rendezvous
}

// storeBlock counts the in-flight stores to one block.
type storeBlock struct {
	block mmu.VAddr
	n     int
}

// NewOutOfOrder builds the core using the machine configuration's ROB,
// LQ/SQ, and width.
func NewOutOfOrder(ctx *core.Context, trace TraceSource, bar *Barrier) *OutOfOrder {
	cfg := ctx.Machine().Cfg
	c := &OutOfOrder{
		ctx: ctx, trace: trace, bar: bar,
		robSize:     cfg.ROBEntries,
		lqSize:      cfg.LQEntries,
		sqSize:      cfg.SQEntries,
		width:       cfg.Width,
		drainDepth:  cfg.StoreDrainDepth,
		blockMask:   ^mmu.VAddr(cfg.L1.BlockSize - 1),
		rob:         make([]o3Entry, cfg.ROBEntries),
		waiters:     make([][]int, cfg.ROBEntries),
		memDone:     make([]func(coherence.AccessResult), cfg.ROBEntries),
		storeBlocks: make([]storeBlock, 0, cfg.StoreDrainDepth),
	}
	for s := range c.memDone {
		c.memDone[s] = func(coherence.AccessResult) { c.memComplete(s) }
	}
	return c
}

// Start begins execution; done runs when the trace has fully committed.
func (c *OutOfOrder) Start(done func()) {
	c.done = done
	c.stats.StartCycle = c.ctx.Engine().Now()
	c.ctx.Engine().ScheduleEvent(0, c, sim.Payload{Op: o3OpTick})
}

// Stats returns the execution summary (valid after completion).
func (c *OutOfOrder) Stats() Stats { return c.stats }

func (c *OutOfOrder) count() int { return int(c.tail - c.head) }

func (c *OutOfOrder) slot(idx uint64) int { return int(idx % uint64(c.robSize)) }

func (c *OutOfOrder) ensureTick() {
	if c.tickScheduled || c.finished {
		return
	}
	c.tickScheduled = true
	c.ctx.Engine().ScheduleEvent(1, c, sim.Payload{Op: o3OpTick})
}

func (c *OutOfOrder) tick() {
	if c.finished {
		return
	}
	progress := 0
	progress += c.commit()
	if c.finished {
		return
	}
	progress += c.issue()
	progress += c.fetch()
	c.checkBarrierAtHead()

	// Reschedule only when forward progress is possible without an
	// external event; completions (and mispredict redirects) call
	// ensureTick themselves.
	if progress > 0 ||
		(c.count() > 0 && c.rob[c.slot(c.head)].status == stDone) ||
		len(c.ready) > 0 && c.resourcesAvailable() {
		c.ensureTick()
	}
}

// resourcesAvailable reports whether at least one ready entry could issue
// right now (so spinning another tick is useful).
func (c *OutOfOrder) resourcesAvailable() bool {
	for _, s := range c.ready {
		e := &c.rob[s]
		switch e.instr.Op {
		case OpLoad:
			if c.loadsInFlight < c.lqSize {
				return true
			}
		case OpStore:
			if c.canDrainStore(e.idx) {
				return true
			}
		default:
			return true
		}
	}
	return false
}

// canDrainStore reports whether the store at idx is the oldest un-issued
// store and may enter the hierarchy: stores coalescing into a block that
// already has an in-flight store are free; otherwise a drain slot must be
// available (in-order issue, overlapping completion).
func (c *OutOfOrder) canDrainStore(idx uint64) bool {
	if len(c.storeOrder) == 0 || c.storeOrder[0] != idx {
		return false
	}
	block := c.rob[c.slot(idx)].instr.Addr & c.blockMask
	return c.storeBlockIndex(block) >= 0 || len(c.storeBlocks) < c.drainDepth
}

// storeBlockIndex returns block's position in storeBlocks, or -1 if the
// block has no in-flight store.
func (c *OutOfOrder) storeBlockIndex(block mmu.VAddr) int {
	for i := range c.storeBlocks {
		if c.storeBlocks[i].block == block {
			return i
		}
	}
	return -1
}

func (c *OutOfOrder) commit() int {
	n := 0
	for c.count() > 0 && n < c.width {
		e := &c.rob[c.slot(c.head)]
		if e.status != stDone {
			break
		}
		c.stats.Instructions++
		switch e.instr.Op {
		case OpLoad:
			c.stats.Loads++
		case OpStore:
			c.stats.Stores++
		case OpBarrier:
			c.stats.Barriers++
		}
		c.head++
		n++
	}
	if c.eof && c.count() == 0 {
		c.finished = true
		c.stats.FinishCycle = c.ctx.Engine().Now()
		if c.done != nil {
			c.done()
		}
	}
	return n
}

func (c *OutOfOrder) issue() int {
	issued := 0
	remaining := c.ready[:0]
	for i, s := range c.ready {
		if issued >= c.width {
			remaining = append(remaining, c.ready[i:]...)
			break
		}
		e := &c.rob[s]
		if e.status != stReady {
			continue // stale slot (entry completed or retired)
		}
		switch e.instr.Op {
		case OpLoad:
			if c.loadsInFlight >= c.lqSize {
				remaining = append(remaining, s)
				continue
			}
			c.loadsInFlight++
			c.issueMem(s)
		case OpStore:
			if !c.canDrainStore(e.idx) {
				remaining = append(remaining, s)
				continue
			}
			block := e.instr.Addr & c.blockMask
			if i := c.storeBlockIndex(block); i >= 0 {
				c.storeBlocks[i].n++
			} else {
				c.storeBlocks = append(c.storeBlocks, storeBlock{block: block, n: 1})
			}
			c.storeOrder = append(c.storeOrder[:0], c.storeOrder[1:]...)
			c.issueMem(s)
		default:
			e.status = stIssued
			c.ctx.Engine().ScheduleEvent(e.instr.latency(), c, sim.Payload{Op: o3OpMarkDone, A: e.idx})
		}
		issued++
	}
	c.ready = remaining
	return issued
}

// issueMem sends the memory op in ROB slot s to the hierarchy.
func (c *OutOfOrder) issueMem(s int) {
	e := &c.rob[s]
	e.status = stIssued
	err := c.ctx.Access(e.instr.Addr, e.instr.Op == OpStore, e.instr.Value, c.memDone[s])
	if err != nil {
		panic(fmt.Sprintf("cpu: o3 mem op %#x: %v", uint64(e.instr.Addr), err))
	}
}

// memComplete retires the hierarchy side of the memory op in ROB slot s.
// The slot cannot have been refilled: it commits only after markDone.
func (c *OutOfOrder) memComplete(s int) {
	e := &c.rob[s]
	if e.instr.Op == OpStore {
		i := c.storeBlockIndex(e.instr.Addr & c.blockMask)
		if c.storeBlocks[i].n--; c.storeBlocks[i].n == 0 {
			last := len(c.storeBlocks) - 1
			c.storeBlocks[i] = c.storeBlocks[last]
			c.storeBlocks = c.storeBlocks[:last]
		}
		c.sqOcc--
	} else {
		c.loadsInFlight--
	}
	c.markDone(e.idx)
}

// checkBarrierAtHead releases a barrier instruction once it is the oldest
// in-flight instruction with resolved dependences.
func (c *OutOfOrder) checkBarrierAtHead() {
	if c.count() == 0 {
		return
	}
	e := &c.rob[c.slot(c.head)]
	if e.instr.Op != OpBarrier || e.arrived || e.pendingDeps > 0 || e.status == stDone {
		return
	}
	if c.bar == nil {
		panic("cpu: barrier instruction without a barrier")
	}
	e.arrived = true
	idx := e.idx
	c.bar.Arrive(func() { c.markDone(idx) })
}

func (c *OutOfOrder) markDone(idx uint64) {
	if idx < c.head {
		return // already retired (defensive; should not happen)
	}
	e := &c.rob[c.slot(idx)]
	if e.idx != idx || e.status == stDone {
		return
	}
	e.status = stDone
	if c.fetchBlocked && idx == c.fetchBlockedOn && !c.redirectPending {
		// The mispredicted branch resolved: redirect the front end.
		c.redirectPending = true
		c.ctx.Engine().ScheduleEvent(MispredictPenalty, c, sim.Payload{Op: o3OpRedirect})
	}
	s := c.slot(idx)
	for _, depSlot := range c.waiters[s] {
		d := &c.rob[depSlot]
		d.pendingDeps--
		if d.pendingDeps == 0 && d.status == stWaiting {
			d.status = stReady
			if d.instr.Op != OpBarrier {
				// Barriers issue from the ROB head, not the ready queue.
				c.ready = append(c.ready, depSlot)
			}
		}
	}
	c.waiters[s] = c.waiters[s][:0]
	c.ensureTick()
}

func (c *OutOfOrder) fetch() int {
	if c.fetchBlocked {
		return 0
	}
	fetched := 0
	for !c.eof && c.count() < c.robSize && fetched < c.width {
		var ins Instr
		if c.stashed {
			ins = c.stash
			if ins.Op == OpStore && c.sqOcc >= c.sqSize {
				break // SQ still full
			}
			c.stashed = false
		} else {
			var ok bool
			ins, ok = c.trace.Next()
			if !ok {
				c.eof = true
				break
			}
			if ins.Op == OpStore && c.sqOcc >= c.sqSize {
				// SQ full: stall dispatch until a store completes.
				c.stash, c.stashed = ins, true
				break
			}
		}
		if ins.Op == OpStore {
			c.storeOrder = append(c.storeOrder, c.tail)
			c.sqOcc++
		}
		if ins.Op == OpBranch && ins.Mispredict {
			c.stats.Mispredicts++
			c.fetchBlocked = true
			c.fetchBlockedOn = c.tail
		}
		idx := c.tail
		c.tail++
		s := c.slot(idx)
		c.rob[s] = o3Entry{instr: ins, idx: idx}
		e := &c.rob[s]
		for _, d := range [2]int{ins.Dep1, ins.Dep2} {
			if d <= 0 || uint64(d) > idx {
				continue
			}
			pidx := idx - uint64(d)
			if pidx < c.head {
				continue // producer already retired
			}
			ps := c.slot(pidx)
			if p := &c.rob[ps]; p.idx == pidx && p.status != stDone {
				e.pendingDeps++
				c.waiters[ps] = append(c.waiters[ps], s)
			}
		}
		if e.pendingDeps == 0 {
			e.status = stReady
			if ins.Op != OpBarrier {
				c.ready = append(c.ready, s)
			}
		}
		fetched++
	}
	return fetched
}
