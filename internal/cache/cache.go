// Package cache implements the storage substrate of the memory hierarchy:
// set-associative tag/data arrays with pluggable replacement, address
// decomposition helpers, and LLC bank mapping. Coherence state is stored
// per line but interpreted by package coherence; this package only manages
// placement, lookup, and victim selection.
package cache

import (
	"fmt"
	"math/bits"
)

// Addr is a physical (or, for VIVT lookups, virtual) byte address.
type Addr uint64

// LineState is the coherence state stored alongside each cache line. The
// values mirror the MESI stable states; transient states live in the
// controllers' MSHRs, not in the array.
type LineState uint8

const (
	Invalid LineState = iota
	Shared
	Exclusive
	Modified
	// Owned is MOESI's dirty-shared state: this cache holds the only
	// up-to-date copy (memory and LLC are stale) while other caches may
	// hold Shared copies of the same value; the owner supplies data on
	// forwarded requests and writes back on eviction.
	Owned
	// Forward is MESIF's designated-responder state: a clean shared copy
	// that answers forwarded read requests cache-to-cache; at most one
	// sharer holds F.
	Forward
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Owned:
		return "O"
	case Forward:
		return "F"
	}
	return fmt.Sprintf("LineState(%d)", uint8(s))
}

// Dirty reports whether the state implies the line differs from the LLC.
func (s LineState) Dirty() bool { return s == Modified || s == Owned }

// Valid reports whether the state denotes a resident line.
func (s LineState) Valid() bool { return s != Invalid }

// Line is one cache line: a tag, a coherence state, and bookkeeping for
// replacement. Data is modeled as a 64-bit shadow token (see package
// coherence) rather than a byte payload: the simulator verifies coherence
// of values without simulating byte-level storage.
//
// An LLC line also holds its block's directory entry, as a Ruby L2 entry
// does: Sharers, Dir, Pins, Owner and Fwd. This package only clears them
// at Install; package coherence gives them their meaning, and L1 lines
// leave them zero. The small fields fill what would otherwise be the
// line's tail padding, so a Line is 40 bytes.
type Line struct {
	Tag     Addr
	Data    uint64 // shadow value token for data-value invariant checking
	lru     uint64 // last-touch stamp for LRU
	Sharers uint64 // directory: sharer bitmask
	State   LineState
	WP      bool  // write-protected hint (diagnostics only)
	Dir     uint8 // directory: state and flags
	Pins    uint8 // directory: in-flight grants that bar eviction
	Owner   int16 // directory: owning L1
	Fwd     int16 // directory: MESIF forwarder
}

// ReplPolicy selects the victim-selection policy of an array.
type ReplPolicy uint8

const (
	// LRU evicts the least recently used way (the paper's Table V
	// configuration, and the policy behind S-MESI's retention side
	// effect in §V-B).
	LRU ReplPolicy = iota
	// FIFO evicts the oldest-installed way regardless of reuse.
	FIFO
	// Random evicts a pseudo-random way (deterministically seeded).
	Random
)

func (r ReplPolicy) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	}
	return fmt.Sprintf("ReplPolicy(%d)", uint8(r))
}

// Params describes a cache geometry.
type Params struct {
	Name        string
	SizeBytes   int
	Ways        int
	BlockSize   int
	Replacement ReplPolicy // zero value = LRU
}

// Validate checks the geometry for internal consistency.
func (p Params) Validate() error {
	if p.SizeBytes <= 0 || p.Ways <= 0 || p.BlockSize <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry %+v", p.Name, p)
	}
	if p.BlockSize&(p.BlockSize-1) != 0 {
		return fmt.Errorf("cache %q: block size %d not a power of two", p.Name, p.BlockSize)
	}
	if p.SizeBytes%(p.Ways*p.BlockSize) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*block (%d*%d)",
			p.Name, p.SizeBytes, p.Ways, p.BlockSize)
	}
	sets := p.SizeBytes / (p.Ways * p.BlockSize)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", p.Name, sets)
	}
	return nil
}

// Array is a set-associative cache array. A set's ways are carved on its
// first install (see carve); until then the set is a nil slice with zero
// ways, which every read path treats as a set holding no valid line.
type Array struct {
	params    Params
	sets      int
	blockBits uint
	setMask   Addr
	lines     [][]Line // [set][way]; nil until the set's first install
	spare     []Line   // ways not yet carved into a set
	carved    int      // sets carved so far
	clock     uint64   // LRU/FIFO stamp source
	rng       uint64   // xorshift state for Random replacement

	// holes records that an Invalidate has dropped a line. Until then a
	// line only turns valid by an Install into the way Victim chose, the
	// first invalid one, so every set's valid ways come first, and Lookup
	// and the walks stop at a set's first invalid way.
	holes bool

	// Stats
	Hits, Misses, Evictions uint64
}

// NewArray builds an array from params, panicking on invalid geometry
// (geometry comes from static configuration, not runtime input).
func NewArray(p Params) *Array {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	sets := p.SizeBytes / (p.Ways * p.BlockSize)
	return &Array{
		params:    p,
		sets:      sets,
		blockBits: uint(bits.TrailingZeros(uint(p.BlockSize))),
		setMask:   Addr(sets - 1),
		lines:     make([][]Line, sets),
	}
}

// carve returns set s, giving it its ways from the spare slab on first
// use. An empty slab is replaced, never grown, by one the size of
// everything carved so far (capped at the sets still uncarved), so an
// array makes O(log sets) allocations, never holds more than sets×ways
// lines, and a carved line never moves: a *Line stays valid across other
// sets' first installs.
func (a *Array) carve(s int) []Line {
	if set := a.lines[s]; set != nil {
		return set
	}
	w := a.params.Ways
	if len(a.spare) == 0 {
		n := min(max(a.carved, 1), a.sets-a.carved)
		a.spare = make([]Line, n*w)
	}
	set := a.spare[:w:w]
	a.spare = a.spare[w:]
	a.lines[s] = set
	a.carved++
	return set
}

// Params returns the geometry the array was built with.
func (a *Array) Params() Params { return a.params }

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.sets }

// BlockAddr masks off the intra-block offset bits.
func (a *Array) BlockAddr(addr Addr) Addr {
	return addr &^ (Addr(a.params.BlockSize) - 1)
}

// SetIndex returns the set an address maps to.
func (a *Array) SetIndex(addr Addr) int {
	return int((addr >> a.blockBits) & a.setMask)
}

func (a *Array) tag(addr Addr) Addr {
	return addr >> (a.blockBits + uint(bits.TrailingZeros(uint(a.sets))))
}

// Lookup finds the line holding addr, returning nil on miss. It does not
// update replacement state or statistics; use Probe/Touch for that.
func (a *Array) Lookup(addr Addr) *Line {
	set := a.lines[a.SetIndex(addr)]
	tag := a.tag(addr)
	for i := range set {
		ln := &set[i]
		if !ln.State.Valid() {
			if !a.holes {
				return nil
			}
			continue
		}
		if ln.Tag == tag {
			return ln
		}
	}
	return nil
}

// Probe is Lookup plus statistics and an LRU touch on hit.
func (a *Array) Probe(addr Addr) *Line {
	ln := a.Lookup(addr)
	if ln == nil {
		a.Misses++
		return nil
	}
	a.Hits++
	a.touch(ln)
	return ln
}

// ProbeLine is Probe for a line the caller already found with Lookup: it
// counts a hit and refreshes the line's replacement stamp.
func (a *Array) ProbeLine(ln *Line) {
	a.Hits++
	a.touch(ln)
}

// Touch refreshes the replacement stamp of a resident line.
func (a *Array) Touch(addr Addr) {
	if ln := a.Lookup(addr); ln != nil {
		a.touch(ln)
	}
}

func (a *Array) touch(ln *Line) {
	if a.params.Replacement == FIFO {
		// FIFO stamps only at install (see Install); reuse is ignored.
		return
	}
	a.clock++
	ln.lru = a.clock
}

// nextRand advances the array's deterministic xorshift stream.
func (a *Array) nextRand() uint64 {
	x := a.rng
	if x == 0 {
		x = 0x9E3779B97F4A7C15
		for _, c := range a.params.Name {
			x ^= uint64(c)
			x *= 0x100000001B3
		}
	}
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	a.rng = x
	return x * 0x2545F4914F6CDD1D
}

// Victim selects the line to evict from addr's set: an invalid way if one
// exists, otherwise the least recently used line. The returned line is
// still resident; the caller is responsible for writeback/invalidations
// before calling Install.
func (a *Array) Victim(addr Addr) *Line {
	set := a.carve(a.SetIndex(addr))
	for i := range set {
		if !set[i].State.Valid() {
			return &set[i]
		}
	}
	if a.params.Replacement == Random {
		return &set[a.nextRand()%uint64(len(set))]
	}
	var victim *Line
	for i := range set {
		if victim == nil || set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	return victim
}

// VictimFiltered is Victim restricted to lines not rejected by blocked,
// which sees each valid way's block address and line. It returns nil if
// every way of the set is blocked (callers treat that as a structural
// stall). Invalid ways are never blocked.
func (a *Array) VictimFiltered(addr Addr, blocked func(Addr, *Line) bool) *Line {
	set := a.carve(a.SetIndex(addr))
	// Single pass, no candidate slice: count the eligible ways and track
	// the LRU minimum (first-encountered wins ties, as before).
	n := 0
	var victim *Line
	for i := range set {
		if !set[i].State.Valid() {
			return &set[i]
		}
		if blocked != nil && blocked(a.AddrOfLine(&set[i], addr), &set[i]) {
			continue
		}
		n++
		if victim == nil || set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	if n == 0 {
		return nil
	}
	if a.params.Replacement == Random {
		// One RNG draw over the candidate count, then re-walk to the k-th
		// eligible way; blocked is pure, so both passes agree.
		k := a.nextRand() % uint64(n)
		for i := range set {
			if blocked != nil && blocked(a.AddrOfLine(&set[i], addr), &set[i]) {
				continue
			}
			if k == 0 {
				return &set[i]
			}
			k--
		}
	}
	return victim
}

// Install places addr into the given line (obtained from Victim) with the
// given state, counting an eviction if the line was valid. Every other
// field starts at zero.
func (a *Array) Install(ln *Line, addr Addr, state LineState) {
	if ln.State.Valid() {
		a.Evictions++
	}
	// Install always stamps, so FIFO records insertion order.
	a.clock++
	*ln = Line{Tag: a.tag(addr), State: state, lru: a.clock}
}

// Invalidate removes addr from the array if resident, reporting whether a
// line was dropped.
func (a *Array) Invalidate(addr Addr) bool {
	if ln := a.Lookup(addr); ln != nil {
		*ln = Line{}
		a.holes = true
		return true
	}
	return false
}

// AddrOfLine reconstructs the block address of a resident line given any
// address mapping to the same set. It is used when evicting: the victim's
// full address is needed to notify the directory.
func (a *Array) AddrOfLine(ln *Line, setProbe Addr) Addr {
	set := Addr(a.SetIndex(setProbe))
	setBits := uint(bits.TrailingZeros(uint(a.sets)))
	return ln.Tag<<(a.blockBits+setBits) | set<<a.blockBits
}

// ForEachValid invokes fn for every resident line with its block address.
func (a *Array) ForEachValid(fn func(addr Addr, ln *Line)) {
	tagShift := a.blockBits + uint(bits.TrailingZeros(uint(a.sets)))
	for s, set := range a.lines {
		for w := range set {
			ln := &set[w]
			if !ln.State.Valid() {
				if !a.holes {
					break
				}
				continue
			}
			fn(ln.Tag<<tagShift|Addr(s)<<a.blockBits, ln)
		}
	}
}

// CountValid returns the number of resident lines.
func (a *Array) CountValid() int {
	n := 0
	a.ForEachValid(func(Addr, *Line) { n++ })
	return n
}

// AppendFingerprint emits a canonical encoding of the array's
// behaviorally relevant state as a stream of words: for every set, the
// resident lines in replacement order (least attractive victim last)
// with their tag, state, data token, and write-protection bit. Absolute
// LRU clock values are deliberately excluded — only the per-set ordering
// affects future victim choices — so two arrays that will behave
// identically fingerprint identically regardless of how much history
// produced them. For Random replacement the xorshift state is included,
// since it determines future victim draws.
func (a *Array) AppendFingerprint(emit func(uint64)) {
	if a.params.Replacement == Random {
		emit(a.rng)
	}
	// rank buffer reused across sets.
	rank := make([]*Line, a.params.Ways)
	for s := range a.lines {
		set := a.lines[s]
		n := 0
		for w := range set {
			if !set[w].State.Valid() {
				continue
			}
			ln := &set[w]
			// Insertion sort by lru ascending (victim order).
			i := n
			for i > 0 && rank[i-1].lru > ln.lru {
				rank[i] = rank[i-1]
				i--
			}
			rank[i] = ln
			n++
		}
		if n == 0 {
			continue
		}
		emit(uint64(s)<<8 | uint64(n))
		for i := 0; i < n; i++ {
			ln := rank[i]
			w := uint64(ln.State)
			if ln.WP {
				w |= 1 << 8
			}
			emit(uint64(ln.Tag))
			emit(w)
			emit(ln.Data)
		}
	}
}
