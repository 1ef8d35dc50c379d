package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/mmu"
	"repro/internal/sim"
)

// Machine is a complete simulated multicore: coherent hierarchy, physical
// memory, KSM, and per-core execution contexts.
type Machine struct {
	Cfg Config
	Sys *coherence.System
	PM  *mmu.PhysMem
	KSM *mmu.KSM

	processes []*Process
	contexts  []*Context

	// stop is the engine's stop flag, set when Cfg.Context is done; nil
	// when the context can never be cancelled.
	stop *atomic.Bool
}

// NewMachine builds a machine from cfg.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sys, err := coherence.NewSystem(cfg.coherenceConfig())
	if err != nil {
		return nil, err
	}
	var stop *atomic.Bool
	ctx := cfg.Context
	if ctx != nil && ctx.Done() != nil {
		// The binding lives until ctx is done; a flag set after the
		// machine finished is never observed.
		stop = new(atomic.Bool)
		context.AfterFunc(ctx, func() { stop.Store(true) })
	}
	if stop != nil || cfg.Watchdog.Enabled() {
		sys.Eng.Arm(stop, cfg.Watchdog, func(ti sim.TripInfo) {
			if ti.Bound == sim.BoundStop {
				panic(&fault.Violation{
					Kind:      fault.KindCancelled,
					Cycle:     uint64(ti.Now),
					Component: "cancel",
					Msg: fmt.Sprintf("run cancelled: %v (%d events executed, %d pending)",
						context.Cause(ctx), ti.Executed, ti.Pending),
					Dump: "-- cancellation pending snapshot --\n" + ti.PendingDump + sys.DumpState(),
				})
			}
			panic(&fault.Violation{
				Kind:      fault.KindLiveness,
				Cycle:     uint64(ti.Now),
				Component: "watchdog",
				Msg: fmt.Sprintf("no progress for %d events / %d cycles (last progress at cycle %d, %d events pending)",
					ti.EventsSinceProgress, ti.CyclesSinceProgress, ti.LastProgress, ti.Pending),
				Dump: "-- watchdog pending snapshot --\n" + ti.PendingDump + sys.DumpState(),
			})
		})
	}
	pm := mmu.NewPhysMem(0)
	return &Machine{
		Cfg:  cfg,
		Sys:  sys,
		PM:   pm,
		KSM:  mmu.NewKSM(pm),
		stop: stop,
	}, nil
}

// MustNewMachine is NewMachine for static configurations.
func MustNewMachine(cfg Config) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Engine returns the machine's event engine.
func (m *Machine) Engine() *sim.Engine { return m.Sys.Eng }

// Now returns the current cycle.
func (m *Machine) Now() sim.Cycle { return m.Sys.Eng.Now() }

// RunWhile executes events in exact sequential order while cond holds.
func (m *Machine) RunWhile(cond func() bool) { m.Sys.Eng.RunWhile(cond) }

// Process is an OS process: one address space, any number of contexts
// (threads) pinned to cores.
type Process struct {
	m  *Machine
	AS *mmu.AddressSpace
}

// NewProcess creates a process with a fresh address space registered with
// KSM.
func (m *Machine) NewProcess() *Process {
	p := &Process{m: m, AS: mmu.NewAddressSpace(m.PM)}
	m.KSM.Register(p.AS)
	m.processes = append(m.processes, p)
	return p
}

// Fork clones the process fork(2)-style: the child gets a copy-on-write
// view of the parent's address space, registered with the machine and
// KSM. Contexts (threads) are not inherited; attach new ones. Any context
// TLBs caching writable translations of the parent must be flushed by the
// caller, as the kernel's fork does.
func (p *Process) Fork() *Process {
	child := &Process{m: p.m, AS: p.AS.Fork()}
	p.m.KSM.Register(child.AS)
	p.m.processes = append(p.m.processes, child)
	return child
}

// Mmap maps memory into the process (see mmu.AddressSpace.Mmap).
func (p *Process) Mmap(length int, prot mmu.Prot, flags mmu.MapFlags, file *mmu.File, offset uint64) (mmu.VAddr, error) {
	return p.AS.Mmap(length, prot, flags, file, offset)
}

// MmapAnon maps a private anonymous read-write region (a heap).
func (p *Process) MmapAnon(length int) mmu.VAddr {
	v, err := p.AS.Mmap(length, mmu.ProtRead|mmu.ProtWrite, mmu.MapPrivate|mmu.MapAnonymous, nil, 0)
	if err != nil {
		panic(err) // static arguments cannot fail
	}
	return v
}

// MmapLibrary maps a shared library's read-only segment (MAP_SHARED,
// PROT_READ|PROT_EXEC): the classic source of exploitable shared memory.
func (p *Process) MmapLibrary(lib *mmu.File, length int) mmu.VAddr {
	v, err := p.AS.Mmap(length, mmu.ProtRead|mmu.ProtExec, mmu.MapShared, lib, 0)
	if err != nil {
		panic(err)
	}
	return v
}

// MmapLibraryData maps a shared library's writable data segment
// (MAP_PRIVATE, PROT_READ|PROT_WRITE): write-protected with copy-on-write.
func (p *Process) MmapLibraryData(lib *mmu.File, length int, offset uint64) mmu.VAddr {
	v, err := p.AS.Mmap(length, mmu.ProtRead|mmu.ProtWrite, mmu.MapPrivate, lib, offset)
	if err != nil {
		panic(err)
	}
	return v
}

// AttachContext pins a new thread of p to a core and gives it private
// TLBs. Multiple contexts may share a core only if the caller serializes
// them; the paper's workloads pin one thread per core.
func (p *Process) AttachContext(coreID int) *Context {
	if coreID < 0 || coreID >= p.m.Cfg.Cores {
		panic(fmt.Sprintf("core: context on core %d of %d", coreID, p.m.Cfg.Cores))
	}
	ctx := &Context{
		m:    p.m,
		Proc: p,
		Core: coreID,
		DTLB: mmu.NewTLB(p.m.Cfg.DTLBEntries),
		ITLB: mmu.NewTLB(p.m.Cfg.ITLBEntries),
	}
	p.m.contexts = append(p.m.contexts, ctx)
	return ctx
}

// Context is a hardware thread: a core binding plus the MMU state the
// address-translation hitchhiking (§IV-B) flows through.
type Context struct {
	m    *Machine
	Proc *Process
	Core int
	DTLB *mmu.TLB
	ITLB *mmu.TLB

	// Cached AccessSync/FetchSync probe state, so repeated synchronous
	// probes reuse one callback pair instead of allocating closures per
	// access.
	syncOut  coherence.AccessResult
	syncDone bool
	syncCb   func(coherence.AccessResult)
	syncCond func() bool

	// storeSeq stamps each store submitted through this context with a
	// strictly increasing sequence number (coherence.Access.Seq), so the
	// L1 can keep same-block data application in program order even when
	// asymmetric translation delays reorder arrival.
	storeSeq uint64

	// Stats
	DataAccesses uint64
	TLBWalks     uint64
	PageFaults   uint64
	CoWs         uint64
}

// Engine returns the machine's event engine, which CPU models built on
// this context schedule their ticks on.
func (c *Context) Engine() *sim.Engine { return c.m.Sys.Eng }

// Machine returns the owning machine.
func (c *Context) Machine() *Machine { return c.m }

// dataPort returns the coherence port of this context's L1 D-cache.
func (c *Context) dataPort() int { return 2 * c.Core }

// instPort returns the coherence port of this context's L1 I-cache.
func (c *Context) instPort() int { return 2*c.Core + 1 }

// submitTranslated routes a translated access to an L1 port with the
// architecture-dependent translation latency: pre is charged before the
// lookup, missExtra only if the access misses the L1 (VIVT).
func (c *Context) submitTranslated(port int, res mmu.Result, write bool, value uint64, seq uint64,
	pre, missExtra sim.Cycle, done func(coherence.AccessResult)) {
	c.m.Sys.Submit(port, coherence.Access{
		Addr:        cache.Addr(res.PAddr),
		Write:       write,
		WP:          res.WriteProtected,
		Value:       value,
		Seq:         seq,
		MissPenalty: missExtra,
		Delay:       pre,
		Done:        done,
	})
}

// Access translates v and submits the access to this core's L1 D-cache.
// The translation result's R/W bit rides along as the access's WP flag —
// the hitchhiking of §IV-B. done may be nil.
func (c *Context) Access(v mmu.VAddr, write bool, value uint64, done func(coherence.AccessResult)) error {
	res, tlbHit, err := c.DTLB.Translate(c.Proc.AS, v, write)
	if err != nil {
		return err
	}
	c.DataAccesses++
	var seq uint64
	if write {
		c.storeSeq++
		seq = c.storeSeq
	}
	pre, missExtra := c.translationTiming(res, tlbHit)
	if c.m.Cfg.WalkThroughCaches && !tlbHit {
		c.walkAndSubmit(v, c.dataPort(), res, write, value, seq, pre, missExtra, done)
		return nil
	}
	c.submitTranslated(c.dataPort(), res, write, value, seq, pre, missExtra, done)
	return nil
}

// Fetch performs an instruction fetch through the I-TLB and L1 I-cache.
// Hardware walkers use the data path, so a cache-coupled walk issues its
// reads on the D-port even for instruction translations.
func (c *Context) Fetch(v mmu.VAddr, done func(coherence.AccessResult)) error {
	res, tlbHit, err := c.ITLB.Translate(c.Proc.AS, v, false)
	if err != nil {
		return err
	}
	pre, missExtra := c.translationTiming(res, tlbHit)
	if c.m.Cfg.WalkThroughCaches && !tlbHit {
		c.walkAndSubmit(v, c.instPort(), res, false, 0, 0, pre, missExtra, done)
		return nil
	}
	c.submitTranslated(c.instPort(), res, false, 0, 0, pre, missExtra, done)
	return nil
}

// walkAndSubmit performs the cache-coupled page-table walk and then the
// real access, reporting total wall-clock latency from now.
func (c *Context) walkAndSubmit(v mmu.VAddr, port int, res mmu.Result, write bool, value uint64, seq uint64,
	pre, missExtra sim.Cycle, done func(coherence.AccessResult)) {
	t0 := c.Engine().Now()
	wrapped := done
	if done != nil {
		wrapped = func(r coherence.AccessResult) {
			// The L1 measured only the final access; report the full
			// walk-inclusive latency the core observed.
			r.Latency = c.Engine().Now() - t0
			done(r)
		}
	}
	start := func() {
		c.walkThenSubmit(v, func() {
			c.submitTranslated(port, res, write, value, seq, 0, missExtra, wrapped)
		})
	}
	if pre > 0 {
		c.Engine().Schedule(pre, start)
	} else {
		start()
	}
}

// AccessSync performs Access and runs the engine to completion of this
// one request; the probe interface used by the attack framework, the
// microbenchmarks, and tests.
func (c *Context) AccessSync(v mmu.VAddr, write bool, value uint64) (coherence.AccessResult, error) {
	return c.awaitSync(c.Access(v, write, value, c.startSync()))
}

// FetchSync is AccessSync for an instruction fetch (see Fetch).
func (c *Context) FetchSync(v mmu.VAddr) (coherence.AccessResult, error) {
	return c.awaitSync(c.Fetch(v, c.startSync()))
}

// startSync returns the cached completion callback of a synchronous
// probe, armed for one request.
func (c *Context) startSync() func(coherence.AccessResult) {
	if c.syncCb == nil {
		c.syncCb = func(r coherence.AccessResult) {
			c.syncOut = r
			c.syncDone = true
		}
		c.syncCond = func() bool { return !c.syncDone }
	}
	c.syncDone = false
	return c.syncCb
}

// awaitSync runs the engine until the probe submitted with startSync's
// callback completes; err is the submission's translation error.
func (c *Context) awaitSync(err error) (coherence.AccessResult, error) {
	if err != nil {
		return coherence.AccessResult{}, err
	}
	c.m.Sys.Eng.RunWhile(c.syncCond)
	if !c.syncDone {
		panic("core: access did not complete")
	}
	return c.syncOut, nil
}

// MustAccessSync is AccessSync that panics on translation errors.
func (c *Context) MustAccessSync(v mmu.VAddr, write bool, value uint64) coherence.AccessResult {
	r, err := c.AccessSync(v, write, value)
	if err != nil {
		panic(err)
	}
	return r
}

// ScheduleKSMScans models the KSM kernel thread: it schedules scans
// periodic cycles apart, count times, flushing every context's D-TLB
// after a scan that merged pages (the kernel's TLB shootdown after
// write_protect_page). A bounded count keeps the event queue drainable.
func (m *Machine) ScheduleKSMScans(period sim.Cycle, count int) {
	var tick func(remaining int)
	tick = func(remaining int) {
		if remaining == 0 {
			return
		}
		if merged := m.KSM.Scan(); merged > 0 {
			for _, ctx := range m.contexts {
				ctx.DTLB.Flush()
				ctx.ITLB.Flush()
			}
		}
		m.Sys.Eng.Schedule(period, func() { tick(remaining - 1) })
	}
	m.Sys.Eng.Schedule(period, func() { tick(count) })
}

// Quiesce drains all in-flight machine activity.
func (m *Machine) Quiesce() { m.Sys.Quiesce() }

// CheckInvariants validates the quiesced hierarchy.
func (m *Machine) CheckInvariants() error { return m.Sys.CheckInvariants() }
