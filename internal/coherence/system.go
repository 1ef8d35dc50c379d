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

// MarshalText writes the mode by name, for configuration files.
func (p PrefetchMode) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText reads a mode name; empty means off.
func (p *PrefetchMode) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*p = PrefetchOff
		return nil
	}
	for _, m := range []PrefetchMode{PrefetchOff, PrefetchNaive, PrefetchWPAware} {
		if m.String() == string(b) {
			*p = m
			return nil
		}
	}
	return fmt.Errorf("coherence: unknown prefetch mode %q", b)
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

	// Topology selects the interconnect: "" or "crossbar" builds the
	// paper's crossbar, the 1x1 mesh with every port on one router; "mesh"
	// a MeshW x MeshH 2D mesh with XY dimension-order routing. Timing.Hop
	// is the base traversal latency and Timing.LinkOccupancy the per-port
	// and per-link occupancy in both.
	Topology string

	// MeshW, MeshH are the mesh dimensions (required for Topology
	// "mesh"), and MeshPerHop adds latency per inter-router hop. L1s and
	// banks each spread evenly over the routers in index order, and each
	// cluster hub sits on its cluster's first tile. A 2-socket NUMA
	// machine is a 2x1 mesh whose MeshPerHop is the cross-socket penalty.
	MeshW, MeshH int
	MeshPerHop   sim.Cycle

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

	// Faults, if non-nil, threads the fault injector through the timing
	// layers: extra endpoint-port occupancy per message on the crossbar
	// (or, on a mesh, extra hold time per directed link), extra bank-local
	// service latency per response, transient cluster-hub busy windows,
	// and extra DRAM queueing delay per request. All injected delays are
	// protocol-legal timing perturbation; with Faults nil every hook is a
	// single nil check and the system is byte-identical to one built
	// without this field.
	Faults *fault.Injector
}

// Validate checks the configuration.
func (c SystemConfig) Validate() error {
	if c.Clusters < 0 {
		return fmt.Errorf("coherence: negative cluster count %d", c.Clusters)
	}
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
	net       *interconnect.Mesh
	faults    *fault.Injector
	numL1     int

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

	// Cached AccessSync probe state, so repeated synchronous probes reuse
	// one callback pair instead of allocating closures per access.
	syncOut  AccessResult
	syncDone bool
	syncCb   func(AccessResult)
	syncCond func() bool

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
	}
	numHubs := 0
	if cfg.Clusters > 1 {
		s.twoLevel = true
		s.localsPer = cfg.NumL1 / cfg.Clusters
		numHubs = cfg.Clusters
	}
	// Fabric ports: L1s first, then LLC banks, then cluster hubs. The
	// crossbar is the 1x1 mesh, whose default placement puts every port
	// on router 0.
	ports := cfg.NumL1 + cfg.Banks + numHubs
	mcfg := interconnect.MeshConfig{
		Ports:         ports,
		W:             1,
		H:             1,
		Latency:       cfg.Timing.Hop,
		LinkOccupancy: cfg.Timing.LinkOccupancy,
	}
	mesh := cfg.Topology == "mesh"
	if mesh {
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
		mcfg.W, mcfg.H, mcfg.PerHop, mcfg.RouterOf = cfg.MeshW, cfg.MeshH, cfg.MeshPerHop, routerOf
	}
	if cfg.Faults != nil {
		// The link fault class perturbs the crossbar's endpoint ports and
		// a mesh's directed links; the DRAM, bank and hub hooks are
		// topology-independent.
		s.faults = cfg.Faults
		if mesh {
			mcfg.LinkExtra = cfg.Faults.MeshDelay
		} else {
			mcfg.PortExtra = cfg.Faults.LinkDelay
		}
		s.Mem.Extra = cfg.Faults.DRAMDelay
		cfg.Faults.Attach(s.Eng)
		cfg.Faults.Diagnose = s.DumpState
	}
	net, err := interconnect.NewMesh(s.Eng, mcfg)
	if err != nil {
		return nil, err
	}
	s.net = net
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
	if v, ok := s.bankFor(addr).image.Get(uint64(addr)); ok {
		return v
	}
	return initialToken(addr)
}

func (s *System) memWrite(addr cache.Addr, v uint64) { s.bankFor(addr).image.Set(uint64(addr), v) }

// ExecutedEvents returns the total number of events the system's engine
// has executed.
func (s *System) ExecutedEvents() uint64 { return s.Eng.Executed() }

// Submit hands an access to port's L1. Completion is reported through
// a.Done as the simulation advances.
func (s *System) Submit(port int, a Access) {
	s.L1s[port].Request(a)
}

// AccessSync submits an access and runs the engine until it completes,
// returning the result. It is the probe interface the attack framework
// and the protocol tests use.
func (s *System) AccessSync(port int, addr cache.Addr, write bool, wp bool, value uint64) AccessResult {
	if s.syncCb == nil {
		s.syncCb = func(r AccessResult) {
			s.syncOut = r
			s.syncDone = true
		}
		s.syncCond = func() bool { return !s.syncDone }
	}
	s.syncDone = false
	s.Submit(port, Access{Addr: addr, Write: write, WP: wp, Value: value, Done: s.syncCb})
	s.Eng.RunWhile(s.syncCond)
	if !s.syncDone {
		panic("coherence: access did not complete (event queue drained)")
	}
	return s.syncOut
}

// Quiesce drains all in-flight activity.
func (s *System) Quiesce() { s.Eng.Run() }

// FastPathTotals returns 0 and the CPU-side access count summed over all
// L1 controllers: every access takes the event path. It remains only
// because the repository benchmark (benchmark/) reads it, and goes with
// the next change to that benchmark.
func (s *System) FastPathTotals() (fast, slow uint64) {
	for _, l1 := range s.L1s {
		slow += l1.Stats.Loads + l1.Stats.Stores
	}
	return 0, slow
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
	if e := s.bankFor(addr).entry(addr); e != nil {
		return e.state()
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

// lowest keeps the error of the lowest failing address an unordered walk
// has seen, so the walk reports the same violation on every call
// without sorting.
type lowest struct {
	err error
	at  cache.Addr
}

// skip reports whether addr cannot lower the failure already kept.
func (l *lowest) skip(addr cache.Addr) bool { return l.err != nil && addr > l.at }

// keep records err at addr unless it is nil.
func (l *lowest) keep(addr cache.Addr, err error) {
	if err != nil {
		l.err, l.at = err, addr
	}
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
// violation found. Every walk reports in a fixed order — each L1 array
// in set/way order, the per-block walk in ascending address order, and
// the LLC and hub-record walks their lowest failing address — so the same
// state always yields the same report.
func (s *System) CheckInvariants() error {
	for _, b := range s.banks {
		if n := b.busy.Len(); n != 0 {
			return fmt.Errorf("bank %d: %d transactions still busy", b.id, n)
		}
		if b.pins != 0 {
			// Every grant has landed at quiescence, so a pin left behind
			// leaked: it would bar its block from LLC victim selection.
			return fmt.Errorf("bank %d: %d blocks still pinned", b.id, len(b.pinnedAddrs()))
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
	n := 0
	for _, l1 := range s.L1s {
		n += l1.Array().CountValid()
	}
	lines := make([]resident, 0, n)
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
				e := s.bankFor(addr).entry(addr)
				switch {
				case e == nil: // inclusion
					err = fmt.Errorf("L1 %d: block %#x resident but absent from LLC (inclusion)", id, addr)
				case e.state() == DirPresent && (ln.State == cache.Exclusive || ln.State == cache.Modified || ln.State == cache.Shared):
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
			if n := h.pending.Len(); n != 0 {
				return fmt.Errorf("hub %d: %d invalidation aggregations still pending", h.id, n)
			}
			if n := h.upReqs.Len(); n != 0 {
				return fmt.Errorf("hub %d: %d up-requests still awaiting grants", h.id, n)
			}
		}
		for _, l1 := range s.L1s {
			c := s.clusterOf(l1.ID)
			lid := uint(l1.ID - c*s.localsPer)
			var err error
			l1.Array().ForEachValid(func(addr cache.Addr, ln *cache.Line) {
				if err == nil && s.hubs[c].recordOf(addr)&(1<<lid) == 0 {
					err = fmt.Errorf("hub %d: L1 %d holds %#x but its record bit is clear", c, l1.ID, addr)
				}
			})
			if err != nil {
				return err
			}
		}
		for _, h := range s.hubs {
			var low lowest
			h.record.ForEach(func(k, rec uint64) {
				addr := cache.Addr(k)
				if !low.skip(addr) {
					low.keep(addr, s.checkRecord(h, addr, rec))
				}
			})
			if low.err != nil {
				return low.err
			}
		}
	}
	// Directory agreement.
	for _, b := range s.banks {
		var low lowest
		b.arr.ForEachValid(func(addr cache.Addr, ln *cache.Line) {
			if !low.skip(addr) {
				low.keep(addr, s.checkEntry(addr, (*dirEntry)(ln)))
			}
		})
		if low.err != nil {
			return low.err
		}
	}
	return nil
}

// checkRecord checks that every local a hub's record names holds addr.
func (s *System) checkRecord(h *hub, addr cache.Addr, rec uint64) error {
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
}

// checkEntry checks a directory entry's owner and sharers against the L1
// contents.
func (s *System) checkEntry(addr cache.Addr, e *dirEntry) error {
	owner, fwd := int(e.Owner), int(e.Fwd)
	switch st := e.state(); st {
	case DirExclusive, DirModifiedL1:
		l1st := s.L1StateOf(owner, addr)
		if l1st != cache.Exclusive && l1st != cache.Modified {
			return fmt.Errorf("dir: block %#x %v owner %d holds %v", addr, st, owner, l1st)
		}
	case DirShared:
		if s.twoLevel {
			// Sharer bits are clusters: each set bit must map to a
			// nonempty hub record whose locals all hold S.
			for c, sh := 0, e.Sharers; sh != 0; c++ {
				if sh&1 != 0 {
					rec := s.hubs[c].recordOf(addr)
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
		for id, sh := 0, e.Sharers; sh != 0; id++ {
			if sh&1 != 0 {
				st := s.L1StateOf(id, addr)
				if st != cache.Shared && st != cache.Forward {
					return fmt.Errorf("dir: block %#x sharer %d holds %v", addr, id, st)
				}
				if st == cache.Forward && fwd != id {
					return fmt.Errorf("dir: block %#x F holder %d not recorded (forwarder=%d)", addr, id, fwd)
				}
			}
			sh >>= 1
		}
		if fwd >= 0 {
			if st := s.L1StateOf(fwd, addr); st != cache.Forward {
				return fmt.Errorf("dir: block %#x forwarder %d holds %v", addr, fwd, st)
			}
		}
	case DirOwned:
		if st := s.L1StateOf(owner, addr); st != cache.Owned {
			return fmt.Errorf("dir: block %#x DirO owner %d holds %v", addr, owner, st)
		}
		for id, sh := 0, e.Sharers; sh != 0; id++ {
			if sh&1 != 0 {
				if st := s.L1StateOf(id, addr); st != cache.Shared {
					return fmt.Errorf("dir: block %#x DirO sharer %d holds %v", addr, id, st)
				}
			}
			sh >>= 1
		}
	}
	return nil
}
