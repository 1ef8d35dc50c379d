package coherence

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/interconnect"
	"repro/internal/proto"
	"repro/internal/sim"
)

// PrefetchMode selects the L1 next-line prefetcher behaviour.
type PrefetchMode uint8

const (
	// PrefetchOff disables prefetching (the paper's configuration).
	PrefetchOff PrefetchMode = iota
	// PrefetchNaive issues next-line prefetches that DROP the
	// write-protection bit (as an unmodified prefetcher would, since the
	// bit arrives with the demand translation): under SwiftDir this
	// silently re-creates E-state copies of write-protected data and
	// REOPENS the timing channel for prefetched lines.
	PrefetchNaive
	// PrefetchWPAware propagates the demand access's write-protection
	// bit to same-page prefetches, preserving SwiftDir's security.
	PrefetchWPAware
)

func (p PrefetchMode) String() string {
	switch p {
	case PrefetchOff:
		return "off"
	case PrefetchNaive:
		return "naive"
	case PrefetchWPAware:
		return "wp-aware"
	}
	return fmt.Sprintf("PrefetchMode(%d)", uint8(p))
}

// SystemConfig describes a coherent memory hierarchy.
type SystemConfig struct {
	NumL1     int          // number of private cache controllers
	L1Params  cache.Params // geometry of each L1
	LLCParams cache.Params // geometry of each LLC bank
	Banks     int          // LLC bank count (power of two)
	Timing    Timing
	Policy    Policy
	DRAM      dram.Config
	Prefetch  PrefetchMode // L1 next-line prefetcher

	// Topology selects the interconnect model: "" or "crossbar" builds
	// the full crossbar (the default, byte-identical to every pre-mesh
	// build), "mesh" a MeshW x MeshH 2D mesh with XY dimension-order
	// routing. Timing.Hop is the base traversal latency in both.
	Topology string

	// MeshW, MeshH are the mesh dimensions (required for Topology
	// "mesh"). MeshPerHop adds latency per inter-router hop, and
	// MeshLinkOccupancy serializes messages per directed link (the
	// congestion model; 0 keeps the mesh pure-latency). L1s and banks
	// each spread evenly over the routers in index order, and each
	// cluster hub sits on its cluster's first tile.
	MeshW, MeshH      int
	MeshPerHop        sim.Cycle
	MeshLinkOccupancy sim.Cycle

	// Clusters > 1 enables the two-level directory: the NumL1 controllers
	// partition into Clusters equal contiguous clusters, each with a hub —
	// a cluster-level directory that records exactly which locals hold
	// each block, filters evictions, multicasts invalidations, and
	// aggregates their acks — while the home directory tracks sharer
	// CLUSTERS (one bit each) instead of individual L1s. This lifts the
	// flat 64-sharer bitmask limit to 64 clusters x 64 locals. Owners are
	// still tracked by exact L1 id at the home, so the E/M paths (the
	// paper's timing channel) are unchanged. 0 or 1 keeps the flat
	// directory, byte-identical to a build without this field.
	Clusters int

	// NoFastPath disables the synchronous hit fast path, forcing every
	// access through the event engine. The fast path is byte-identical by
	// construction; the knob exists so equivalence tests can prove it.
	NoFastPath bool

	// Faults, if non-nil, threads the fault injector through the timing
	// layers: extra crossbar occupancy per message (or, on a mesh, extra
	// hold time per directed link), extra bank-local service latency per
	// response, transient cluster-hub busy windows, and extra DRAM
	// queueing delay per request. All injected delays are protocol-legal
	// timing perturbation; with Faults nil every hook is a single nil
	// check and the system is byte-identical to one built without this
	// field.
	Faults *fault.Injector
}

// Validate checks the configuration.
func (c SystemConfig) Validate() error {
	if c.Clusters > 1 {
		if c.Clusters > 64 {
			return fmt.Errorf("coherence: cluster count %d out of range [2,64]", c.Clusters)
		}
		if c.NumL1 <= 0 || c.NumL1%c.Clusters != 0 {
			return fmt.Errorf("coherence: NumL1 %d not divisible into %d clusters", c.NumL1, c.Clusters)
		}
		if locals := c.NumL1 / c.Clusters; locals > 64 {
			return fmt.Errorf("coherence: %d L1s per cluster exceeds the 64-local hub limit", locals)
		}
		if c.Policy != nil && (c.Policy.OwnershipTransfer() || c.Policy.ForwardStateFor(false) || c.Policy.ForwardStateFor(true)) {
			return fmt.Errorf("coherence: two-level directory does not support owned/forward-state policies (%s)", c.Policy.Name())
		}
		if c.Timing.SocketCores > 0 {
			return fmt.Errorf("coherence: two-level directory is incompatible with NUMA socket distance")
		}
		if c.Policy != nil && c.Policy.phasePriority {
			// A bank arbiter may promote a queued request ahead of an older
			// eviction notice from the same cluster, reordering the hub's
			// emission order at the home and invalidating the hub's
			// "cluster last" certification.
			return fmt.Errorf("coherence: two-level directory requires FIFO bank queues (policy %s arbitrates)", c.Policy.Name())
		}
	} else if c.NumL1 <= 0 || c.NumL1 > 64 {
		return fmt.Errorf("coherence: NumL1 %d out of range [1,64] (use Clusters for larger machines)", c.NumL1)
	}
	switch c.Topology {
	case "", "crossbar":
	case "mesh":
		if c.MeshW < 1 || c.MeshH < 1 {
			return fmt.Errorf("coherence: mesh topology requires positive dimensions, got %dx%d", c.MeshW, c.MeshH)
		}
		if c.Timing.SocketCores > 0 || c.Timing.JitterMax > 0 || c.Timing.LinkOccupancy > 0 {
			return fmt.Errorf("coherence: mesh topology is incompatible with crossbar occupancy, jitter, and socket distance (use MeshLinkOccupancy)")
		}
	default:
		return fmt.Errorf("coherence: unknown topology %q", c.Topology)
	}
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("coherence: bank count %d not a power of two", c.Banks)
	}
	if c.Policy == nil {
		return fmt.Errorf("coherence: nil policy")
	}
	if err := c.L1Params.Validate(); err != nil {
		return err
	}
	if err := c.LLCParams.Validate(); err != nil {
		return err
	}
	if c.L1Params.BlockSize != c.LLCParams.BlockSize {
		return fmt.Errorf("coherence: L1/LLC block size mismatch %d != %d",
			c.L1Params.BlockSize, c.LLCParams.BlockSize)
	}
	return c.DRAM.Validate()
}

// System is a complete coherent hierarchy: L1 controllers, banked
// LLC+directory, and the DRAM model, driven by one event engine.
type System struct {
	Eng    *sim.Engine
	Timing Timing
	Policy Policy
	L1s    []*L1
	Mem    *dram.Memory

	banks     []*bank
	mapper    *cache.BankMapper
	tracer    *Tracer
	msgCounts [MsgDataFromOwner + 1]uint64
	net       interconnect.Fabric
	faults    *fault.Injector
	numL1     int
	noFast    bool

	// Two-level directory state: hubs are the per-cluster directories
	// (empty when flat), localsPer the cluster width. twoLevel gates the
	// routing funnels and the home directory's cluster-bit bookkeeping.
	hubs      []*hub
	localsPer int
	twoLevel  bool

	// lastMsgs is a fixed ring of the most recently delivered coherence
	// messages; DumpState renders it as the transaction transcript tail of
	// a failure diagnostic. msgPos counts total deliveries.
	lastMsgs [msgTailN]TraceEvent
	msgPos   uint64

	// Cached AccessSync fast-path completion state (see Handle).
	fpDone bool
	fpCond func() bool

	// Record, if set, observes every completed access (for latency CDFs).
	Record func(port int, r AccessResult)

	// Observe, if set, sees every controller transition once the receiver
	// has dispatched it: each delivered coherence message, and each CPU
	// access an L1 examines (replays of accesses queued behind an MSHR are
	// examined, and observed, again). Dispatch can nest — a data grant
	// synchronously replays merged accesses — and the inner transitions
	// are observed first. The transcript recorder and the model checker
	// validate each transition against the policy's table.
	Observe func(Transition)
}

// Transition is one observed controller transition: the receiver (an L1
// id, or DirID), the block, the table event, and the receiver's
// transition-table state before and after dispatch. Pre and Post hold a
// proto.L1State for an L1 and a proto.DirState for the directory.
type Transition struct {
	Ctrl      int
	Block     cache.Addr
	Ev        proto.Event
	Pre, Post uint8
}

// NewSystem builds and wires a hierarchy on a fresh engine.
func NewSystem(cfg SystemConfig) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		Eng:    sim.NewEngine(),
		Timing: cfg.Timing,
		Policy: cfg.Policy,
		Mem:    dram.New(cfg.DRAM),
		mapper: cache.NewBankMapper(cfg.Banks, cfg.LLCParams.BlockSize),
		numL1:  cfg.NumL1,
		noFast: cfg.NoFastPath,
	}
	numHubs := 0
	if cfg.Clusters > 1 {
		s.twoLevel = true
		s.localsPer = cfg.NumL1 / cfg.Clusters
		numHubs = cfg.Clusters
	}
	// Fabric ports: L1s first, then LLC banks, then cluster hubs.
	ports := cfg.NumL1 + cfg.Banks + numHubs
	if cfg.Topology == "mesh" {
		routers := cfg.MeshW * cfg.MeshH
		routerOf := make([]int, ports)
		for i := 0; i < cfg.NumL1; i++ {
			routerOf[i] = i * routers / cfg.NumL1
		}
		for b := 0; b < cfg.Banks; b++ {
			routerOf[cfg.NumL1+b] = b * routers / cfg.Banks
		}
		for c := 0; c < numHubs; c++ {
			// A hub sits on its cluster's first tile.
			routerOf[cfg.NumL1+cfg.Banks+c] = routerOf[c*s.localsPer]
		}
		mcfg := interconnect.MeshConfig{
			Ports:         ports,
			W:             cfg.MeshW,
			H:             cfg.MeshH,
			Latency:       cfg.Timing.Hop,
			PerHop:        cfg.MeshPerHop,
			LinkOccupancy: cfg.MeshLinkOccupancy,
			RouterOf:      routerOf,
		}
		if cfg.Faults != nil {
			// Mesh fault wiring mirrors the crossbar branch below: the
			// per-directed-link hook replaces the crossbar's per-message
			// Extra, and the DRAM/bank/hub hooks are topology-independent.
			s.faults = cfg.Faults
			mcfg.LinkExtra = cfg.Faults.MeshDelay
			s.Mem.Extra = cfg.Faults.DRAMDelay
			cfg.Faults.Attach(s.Eng)
			cfg.Faults.Diagnose = s.DumpState
		}
		net, err := interconnect.NewMesh(s.Eng, mcfg)
		if err != nil {
			return nil, err
		}
		s.net = net
	} else {
		xcfg := interconnect.Config{
			Ports:      ports,
			Latency:    cfg.Timing.Hop,
			Occupancy:  cfg.Timing.LinkOccupancy,
			JitterMax:  cfg.Timing.JitterMax,
			JitterSeed: cfg.Timing.JitterSeed,
		}
		if cfg.Timing.SocketCores > 0 {
			xcfg.Distance = func(src, dst int) sim.Cycle {
				if s.socketOf(src) != s.socketOf(dst) {
					return s.Timing.CrossSocketExtra
				}
				return 0
			}
		}
		if cfg.Faults != nil {
			s.faults = cfg.Faults
			xcfg.Extra = cfg.Faults.LinkDelay
			s.Mem.Extra = cfg.Faults.DRAMDelay
			cfg.Faults.Attach(s.Eng)
			cfg.Faults.Diagnose = s.DumpState
		}
		xbar, err := interconnect.New(s.Eng, xcfg)
		if err != nil {
			return nil, err
		}
		s.net = xbar
	}
	for c := 0; c < numHubs; c++ {
		s.hubs = append(s.hubs, newHub(c, s))
	}
	for i := 0; i < cfg.Banks; i++ {
		s.banks = append(s.banks, newBank(i, s, cfg.LLCParams))
	}
	for i := 0; i < cfg.NumL1; i++ {
		l1 := newL1(i, s, cfg.L1Params)
		l1.prefetch = cfg.Prefetch
		s.L1s = append(s.L1s, l1)
	}
	return s, nil
}

// MustNewSystem is NewSystem for static configurations.
func MustNewSystem(cfg SystemConfig) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *System) bankFor(addr cache.Addr) *bank {
	return s.banks[s.mapper.Bank(addr)]
}

// bankPort returns a bank's fabric port.
func (s *System) bankPort(bankID int) int { return s.numL1 + bankID }

// clusterOf maps an L1 id to its cluster. Only meaningful when twoLevel.
func (s *System) clusterOf(l1 int) int { return l1 / s.localsPer }

// hubPort returns a cluster hub's fabric port (after L1s and banks).
func (s *System) hubPort(cluster int) int { return s.numL1 + len(s.banks) + cluster }

// toL1 sends a message payload from fabric port src to L1 dst, with Z set
// to dst: straight to the L1 when flat, and through the destination's hub
// when two-level, so the hub's record sees every grant and demand
// entering its cluster.
func (s *System) toL1(src, dst int, p sim.Payload) {
	p.Z = int32(dst)
	if s.twoLevel {
		c := s.clusterOf(dst)
		p.Op = opHubDown
		s.net.SendEvent(src, s.hubPort(c), s.hubs[c], p)
		return
	}
	p.Op = opL1Recv
	s.net.SendEvent(src, dst, s.L1s[dst], p)
}

// toHome sends a message payload from fabric port src to its block's home
// bank for dispatch.
func (s *System) toHome(src int, p sim.Payload) {
	b := s.bankFor(cache.Addr(p.A))
	p.Op = opBankDispatch
	s.net.SendEvent(src, s.bankPort(b.id), b, p)
}

// socketOf maps a crossbar port (L1 or bank) to its NUMA socket: L1s are
// grouped SocketCores at a time; LLC banks distribute round-robin across
// the sockets (each socket holds its slice of the shared LLC).
func (s *System) socketOf(port int) int {
	if s.Timing.SocketCores <= 0 {
		return 0
	}
	if port < s.numL1 {
		return port / s.Timing.SocketCores
	}
	sockets := (s.numL1 + s.Timing.SocketCores - 1) / s.Timing.SocketCores
	if sockets == 0 {
		return 0
	}
	return (port - s.numL1) % sockets
}

// Network returns the interconnect fabric for statistics inspection.
func (s *System) Network() interconnect.Fabric { return s.net }

// initialToken derives the shadow value of untouched memory from its
// address, so the data-value invariant can be checked without
// initialization.
func initialToken(addr cache.Addr) uint64 {
	return uint64(addr)*0x9E3779B97F4A7C15 | 1
}

// memRead and memWrite access the shadow memory image. The image is
// partitioned per bank: a block's image entry lives with its home bank.
func (s *System) memRead(addr cache.Addr) uint64 {
	if v, ok := s.bankFor(addr).image[addr]; ok {
		return v
	}
	return initialToken(addr)
}

func (s *System) memWrite(addr cache.Addr, v uint64) { s.bankFor(addr).image[addr] = v }

// ExecutedEvents returns the total number of events the system's engine
// has executed.
func (s *System) ExecutedEvents() uint64 { return s.Eng.Executed() }

// Submit hands an access to port's L1. Completion is reported through
// a.Done and the system Record hook as the simulation advances.
func (s *System) Submit(port int, a Access) {
	s.L1s[port].Request(a)
}

// TryFastAccess attempts to complete a stable-state L1 hit synchronously:
// on success the array, LRU, and statistics have been updated exactly as
// the event path would have, and the returned latency is the one the event
// path would have reported — without a single event scheduled. The caller
// owns completion: it must account the latency (and invoke any callback)
// itself. Non-trivial cases — miss, transient state, upgrade that needs
// the directory, a busy or pinned bank, pre-charged translation latency, a
// Record hook, or a timing configuration in which a message issued this
// cycle could land inside the hit window — return ok=false, and the caller
// falls back to Submit.
func (s *System) TryFastAccess(port int, a Access) (AccessResult, bool) {
	if s.noFast || s.Record != nil || a.Extra != 0 {
		return AccessResult{}, false
	}
	if s.Timing.L1Tag >= s.Timing.Hop {
		// The crossbar's minimum delivery delay is Hop, so with
		// L1Tag < Hop nothing sent at or after submission time can reach
		// the L1 at or before the would-be completion time. Exotic
		// timing sweeps that violate this stay on the event path.
		return AccessResult{}, false
	}
	return s.L1s[port].tryFast(&a)
}

// sysOpFastDone is the System's only payload op: an AccessSync fast-path
// completion point.
const sysOpFastDone uint8 = 1

// Handle implements sim.Handler for the AccessSync fast path: the single
// completion event it schedules stands in for the event path's opL1Process
// at the same (cycle, seq), so engine stepping is byte-identical.
func (s *System) Handle(p sim.Payload) {
	if p.Op != sysOpFastDone {
		panic(fmt.Sprintf("coherence: system: unknown payload op %d", p.Op))
	}
	s.fpDone = true
}

// AccessSync submits an access and runs the engine until it completes,
// returning the result. It is the probe interface the attack framework
// and the protocol tests use.
func (s *System) AccessSync(port int, addr cache.Addr, write bool, wp bool, value uint64) AccessResult {
	if r, ok := s.TryFastAccess(port, Access{Addr: addr, Write: write, WP: wp, Value: value}); ok {
		if s.Eng.Pending() == 0 {
			// Nothing else in flight: skip the event engine entirely and
			// advance the clock to the completion time.
			s.Eng.RunTo(s.Eng.Now() + r.Latency)
			return r
		}
		// In-flight background work (writeback tails, queued wakeups):
		// schedule one completion event where the event path would have
		// scheduled its tag-lookup event, so the engine stops at exactly
		// the same point.
		s.fpDone = false
		if s.fpCond == nil {
			s.fpCond = func() bool { return !s.fpDone }
		}
		s.Eng.ScheduleEvent(r.Latency, s, sim.Payload{Op: sysOpFastDone})
		s.Eng.RunWhile(s.fpCond)
		return r
	}
	var out AccessResult
	done := false
	s.Submit(port, Access{
		Addr: addr, Write: write, WP: wp, Value: value,
		Done: func(r AccessResult) { out = r; done = true },
	})
	s.Eng.RunWhile(func() bool { return !done })
	if !done {
		panic("coherence: access did not complete (event queue drained)")
	}
	return out
}

// Quiesce drains all in-flight activity.
func (s *System) Quiesce() { s.Eng.Run() }

// FastPathTotals sums the fast/slow access split over all L1 controllers.
func (s *System) FastPathTotals() (fast, slow uint64) {
	for _, l1 := range s.L1s {
		fast += l1.Stats.FastHits
		slow += l1.Stats.SlowPath
	}
	return fast, slow
}

// BankStatsTotal sums statistics over all banks.
func (s *System) BankStatsTotal() BankStats {
	var t BankStats
	for _, b := range s.banks {
		t.Requests += b.Stats.Requests
		t.LLCServed += b.Stats.LLCServed
		t.Forwards += b.Stats.Forwards
		t.MemFetches += b.Stats.MemFetches
		t.Invals += b.Stats.Invals
		t.UpgradeAcks += b.Stats.UpgradeAcks
		t.Recalls += b.Stats.Recalls
		t.Writebacks += b.Stats.Writebacks
		t.QueuedWakeups += b.Stats.QueuedWakeups
	}
	return t
}

// ArbPromotions sums, over all banks, the queued requests the arbiter
// inserted ahead of at least one earlier arrival. Always 0 unless the
// policy arbitrates by phase.
func (s *System) ArbPromotions() uint64 {
	var n uint64
	for _, b := range s.banks {
		n += b.arbPromotions
	}
	return n
}

// DirStateOf reports the directory state of a block (DirInvalid if not
// resident). For tests and invariant checks.
func (s *System) DirStateOf(addr cache.Addr) DirState {
	b := s.bankFor(addr)
	if e, ok := b.entries[addr]; ok {
		return e.state
	}
	return DirInvalid
}

// L1StateOf reports port's L1 line state for a block.
func (s *System) L1StateOf(port int, addr cache.Addr) cache.LineState {
	if ln := s.L1s[port].Array().Lookup(addr); ln != nil {
		return ln.State
	}
	return cache.Invalid
}

// lowestViolation runs check on every entry of an address-keyed map and
// returns the error of the lowest failing address, so a map walk reports
// the same violation on every call without sorting the keys.
func lowestViolation[V any](m map[cache.Addr]V, check func(cache.Addr, V) error) error {
	var first error
	var at cache.Addr
	for addr, v := range m {
		if first != nil && addr > at {
			continue
		}
		if err := check(addr, v); err != nil {
			first, at = err, addr
		}
	}
	return first
}

// CheckInvariants validates the quiesced system:
//
//   - quiescence: no busy directory transaction, pinned grant, MSHR, or
//     pending hub aggregation is left behind;
//   - SWMR: at most one L1 holds a block E/M, and then no L1 holds it S;
//   - inclusion: every L1-resident block is LLC-resident;
//   - directory agreement: owner/sharer records match L1 contents;
//   - WP-never-exclusive: under a policy that never grants E to
//     write-protected loads (the SwiftDir family), a write-protected line
//     is only ever S in any L1 (the security property, structurally).
//
// It must be called with no in-flight transactions. It returns the first
// violation found. Every walk visits blocks in a fixed order — each L1
// array in set/way order, the per-block and map walks in ascending address
// order — so the same state always yields the same report.
func (s *System) CheckInvariants() error {
	for _, b := range s.banks {
		if len(b.busy) != 0 {
			return fmt.Errorf("bank %d: %d transactions still busy", b.id, len(b.busy))
		}
		if len(b.pinned) != 0 {
			// Every grant has landed at quiescence, so a pin left behind
			// leaked: it would bar its block from LLC victim selection.
			return fmt.Errorf("bank %d: %d blocks still pinned", b.id, len(b.pinned))
		}
	}
	for _, l1 := range s.L1s {
		if n := l1.OutstandingMisses(); n != 0 {
			return fmt.Errorf("L1 %d: %d MSHRs still outstanding", l1.ID, n)
		}
	}

	// Every resident L1 line as (block, L1, state), grouped by block in
	// ascending address order below, so the first violation reported is
	// the same on every call. One growing slice rather than an object per
	// block: this runs at the end of every workload job.
	type resident struct {
		addr  cache.Addr
		id    int
		state cache.LineState
	}
	var lines []resident
	wpShared := !s.Policy.GrantExclusiveOnLoad(true)
	for _, l1 := range s.L1s {
		id := l1.ID
		var err error
		l1.Array().ForEachValid(func(addr cache.Addr, ln *cache.Line) {
			lines = append(lines, resident{addr: addr, id: id, state: ln.State})
			switch {
			case err != nil:
			case wpShared && ln.WP && ln.State != cache.Shared:
				err = fmt.Errorf("L1 %d: write-protected block %#x in state %v under %s",
					id, addr, ln.State, s.Policy.Name())
			default:
				e, ok := s.bankFor(addr).entries[addr]
				switch {
				case !ok: // inclusion
					err = fmt.Errorf("L1 %d: block %#x resident but absent from LLC (inclusion)", id, addr)
				case e.state == DirPresent && (ln.State == cache.Exclusive || ln.State == cache.Modified || ln.State == cache.Shared):
					err = fmt.Errorf("dir: block %#x DirPresent but cached in L1s", addr)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	// Stable, so each block's holders stay in L1 order.
	slices.SortStableFunc(lines, func(a, b resident) int { return cmp.Compare(a.addr, b.addr) })
	var h struct{ exclusive, owned, forward, shared []int }
	for i := 0; i < len(lines); {
		addr := lines[i].addr
		h.exclusive, h.owned, h.forward, h.shared = h.exclusive[:0], h.owned[:0], h.forward[:0], h.shared[:0]
		for ; i < len(lines) && lines[i].addr == addr; i++ {
			switch id := lines[i].id; lines[i].state {
			case cache.Exclusive, cache.Modified:
				h.exclusive = append(h.exclusive, id)
			case cache.Owned:
				h.owned = append(h.owned, id)
			case cache.Forward:
				h.forward = append(h.forward, id)
			case cache.Shared:
				h.shared = append(h.shared, id)
			}
		}
		if len(h.exclusive) > 1 {
			return fmt.Errorf("SWMR: block %#x exclusive in L1s %v", addr, h.exclusive)
		}
		if len(h.exclusive) == 1 && (len(h.shared) > 0 || len(h.owned) > 0 || len(h.forward) > 0) {
			return fmt.Errorf("SWMR: block %#x exclusive in L1 %d alongside O=%v F=%v S=%v",
				addr, h.exclusive[0], h.owned, h.forward, h.shared)
		}
		// MOESI: at most one Owned holder; O may coexist with S only.
		if len(h.owned) > 1 {
			return fmt.Errorf("SWMR: block %#x owned by multiple L1s %v", addr, h.owned)
		}
		// MESIF: at most one Forward holder; F coexists with S only.
		if len(h.forward) > 1 {
			return fmt.Errorf("SWMR: block %#x forwarded by multiple L1s %v", addr, h.forward)
		}
		if len(h.forward) > 0 && len(h.owned) > 0 {
			return fmt.Errorf("SWMR: block %#x has both O=%v and F=%v holders", addr, h.owned, h.forward)
		}
	}
	// Two-level agreement: hubs quiesced, and the hub records are exact —
	// every L1-resident block has its local bit set and every set bit maps
	// to a valid line.
	if s.twoLevel {
		for _, h := range s.hubs {
			if len(h.pending) != 0 {
				return fmt.Errorf("hub %d: %d invalidation aggregations still pending", h.id, len(h.pending))
			}
			if len(h.upReqs) != 0 {
				return fmt.Errorf("hub %d: %d up-requests still awaiting grants", h.id, len(h.upReqs))
			}
		}
		for _, l1 := range s.L1s {
			c := s.clusterOf(l1.ID)
			lid := uint(l1.ID - c*s.localsPer)
			var err error
			l1.Array().ForEachValid(func(addr cache.Addr, ln *cache.Line) {
				if err == nil && s.hubs[c].record[addr]&(1<<lid) == 0 {
					err = fmt.Errorf("hub %d: L1 %d holds %#x but its record bit is clear", c, l1.ID, addr)
				}
			})
			if err != nil {
				return err
			}
		}
		for _, h := range s.hubs {
			err := lowestViolation(h.record, func(addr cache.Addr, rec uint64) error {
				for lid := 0; rec != 0; lid++ {
					if rec&1 != 0 {
						id := h.id*s.localsPer + lid
						if st := s.L1StateOf(id, addr); st == cache.Invalid {
							return fmt.Errorf("hub %d: record bit for L1 %d on %#x but the line is invalid", h.id, id, addr)
						}
					}
					rec >>= 1
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	// Directory agreement.
	for _, b := range s.banks {
		err := lowestViolation(b.entries, func(addr cache.Addr, e *dirEntry) error {
			switch e.state {
			case DirExclusive, DirModifiedL1:
				st := s.L1StateOf(e.owner, addr)
				if st != cache.Exclusive && st != cache.Modified {
					return fmt.Errorf("dir: block %#x %v owner %d holds %v", addr, e.state, e.owner, st)
				}
			case DirShared:
				if s.twoLevel {
					// Sharer bits are clusters: each set bit must map to a
					// nonempty hub record whose locals all hold S.
					for c, sh := 0, e.sharers; sh != 0; c++ {
						if sh&1 != 0 {
							rec := s.hubs[c].record[addr]
							if rec == 0 {
								return fmt.Errorf("dir: block %#x sharer cluster %d has an empty hub record", addr, c)
							}
							for lid := 0; rec != 0; lid++ {
								if rec&1 != 0 {
									id := c*s.localsPer + lid
									if st := s.L1StateOf(id, addr); st != cache.Shared {
										return fmt.Errorf("dir: block %#x cluster %d local %d holds %v", addr, c, id, st)
									}
								}
								rec >>= 1
							}
						}
						sh >>= 1
					}
					break
				}
				for id, sh := 0, e.sharers; sh != 0; id++ {
					if sh&1 != 0 {
						st := s.L1StateOf(id, addr)
						if st != cache.Shared && st != cache.Forward {
							return fmt.Errorf("dir: block %#x sharer %d holds %v", addr, id, st)
						}
						if st == cache.Forward && e.forwarder != id {
							return fmt.Errorf("dir: block %#x F holder %d not recorded (forwarder=%d)", addr, id, e.forwarder)
						}
					}
					sh >>= 1
				}
				if e.forwarder >= 0 {
					if st := s.L1StateOf(e.forwarder, addr); st != cache.Forward {
						return fmt.Errorf("dir: block %#x forwarder %d holds %v", addr, e.forwarder, st)
					}
				}
			case DirOwned:
				if st := s.L1StateOf(e.owner, addr); st != cache.Owned {
					return fmt.Errorf("dir: block %#x DirO owner %d holds %v", addr, e.owner, st)
				}
				for id, sh := 0, e.sharers; sh != 0; id++ {
					if sh&1 != 0 {
						if st := s.L1StateOf(id, addr); st != cache.Shared {
							return fmt.Errorf("dir: block %#x DirO sharer %d holds %v", addr, id, st)
						}
					}
					sh >>= 1
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
