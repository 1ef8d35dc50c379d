package coherence

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
)

// testConfig builds a small hierarchy for protocol tests.
func testConfig(p Policy, cores int) SystemConfig {
	return SystemConfig{
		NumL1:     cores,
		L1Params:  cache.Params{Name: "L1", SizeBytes: 1 << 10, Ways: 4, BlockSize: 64},
		LLCParams: cache.Params{Name: "LLC", SizeBytes: 16 << 10, Ways: 8, BlockSize: 64},
		Banks:     2,
		Timing:    DefaultTiming(),
		Policy:    p,
		DRAM:      dram.DDR3_1600_8x8(),
	}
}

func newTestSystem(t *testing.T, p Policy, cores int) *System {
	t.Helper()
	s, err := NewSystem(testConfig(p, cores))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func quiesceAndCheck(t *testing.T, s *System) {
	t.Helper()
	s.Quiesce()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

const blockA cache.Addr = 0x10000

func TestConfigValidation(t *testing.T) {
	good := testConfig(MESI, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := good
	bad.Banks = 3
	if bad.Validate() == nil {
		t.Error("non-pow2 banks accepted")
	}
	bad = good
	bad.Policy = nil
	if bad.Validate() == nil {
		t.Error("nil policy accepted")
	}
	bad = good
	bad.NumL1 = 0
	if bad.Validate() == nil {
		t.Error("zero cores accepted")
	}
	bad = good
	bad.L1Params.BlockSize = 32
	if bad.Validate() == nil {
		t.Error("block size mismatch accepted")
	}
}

// Figure 4(c): initial load of non-write-protected data ends Exclusive in
// every protocol.
func TestInitialLoadGrantsExclusive(t *testing.T) {
	for _, p := range Policies {
		s := newTestSystem(t, p, 2)
		r := s.AccessSync(0, blockA, false, false, 0)
		if r.Served != ServedMem {
			t.Errorf("%s: cold load served from %v, want Mem", p.Name(), r.Served)
		}
		if st := s.L1StateOf(0, blockA); st != cache.Exclusive {
			t.Errorf("%s: L1 state %v, want E", p.Name(), st)
		}
		if ds := s.DirStateOf(blockA); ds != DirExclusive {
			t.Errorf("%s: dir state %v, want DirE", p.Name(), ds)
		}
		quiesceAndCheck(t, s)
	}
}

// Figure 4(a): under SwiftDir the initial load of write-protected data is
// set directly to Shared (I→S) in both the L1 and the directory.
func TestSwiftDirInitialWPLoadIsShared(t *testing.T) {
	s := newTestSystem(t, SwiftDir, 2)
	s.AccessSync(0, blockA, false, true, 0)
	if st := s.L1StateOf(0, blockA); st != cache.Shared {
		t.Fatalf("L1 state %v, want S", st)
	}
	if ds := s.DirStateOf(blockA); ds != DirShared {
		t.Fatalf("dir state %v, want DirS", ds)
	}
	quiesceAndCheck(t, s)
}

// Under MESI and S-MESI, the WP bit changes nothing on the initial load.
func TestWPBitIgnoredByMESIAndSMESI(t *testing.T) {
	for _, p := range []Policy{MESI, SMESI} {
		s := newTestSystem(t, p, 2)
		s.AccessSync(0, blockA, false, true, 0)
		if st := s.L1StateOf(0, blockA); st != cache.Exclusive {
			t.Errorf("%s: L1 state %v, want E", p.Name(), st)
		}
		quiesceAndCheck(t, s)
	}
}

// The E/S timing difference (Figure 1): a remote load of an E-state block
// under MESI takes the three-hop path; an S-state block is served from the
// LLC in LLCLoadLatency cycles.
func TestMESIRemoteLoadTimingGap(t *testing.T) {
	tm := DefaultTiming()

	// E-state victim: core 1 loads cold, core 0 loads remotely.
	s := newTestSystem(t, MESI, 2)
	s.AccessSync(1, blockA, false, false, 0)
	r := s.AccessSync(0, blockA, false, false, 0)
	if r.Served != ServedRemote {
		t.Fatalf("remote load of E block served from %v, want Remote", r.Served)
	}
	if r.Latency != tm.RemoteLoadLatency() {
		t.Fatalf("E-state remote load latency %d, want %d", r.Latency, tm.RemoteLoadLatency())
	}

	// S-state: now both are sharers; a third core's load is LLC-served.
	s2 := newTestSystem(t, MESI, 3)
	s2.AccessSync(1, blockA, false, false, 0)
	s2.AccessSync(0, blockA, false, false, 0) // E->S via forward
	r2 := s2.AccessSync(2, blockA, false, false, 0)
	if r2.Served != ServedLLC {
		t.Fatalf("load of S block served from %v, want LLC", r2.Served)
	}
	if r2.Latency != tm.LLCLoadLatency() {
		t.Fatalf("S-state load latency %d, want %d", r2.Latency, tm.LLCLoadLatency())
	}

	gap := r.Latency - r2.Latency
	if gap != tm.Hop+tm.RemoteL1Service {
		t.Fatalf("E/S gap = %d, want %d", gap, tm.Hop+tm.RemoteL1Service)
	}
	quiesceAndCheck(t, s)
	quiesceAndCheck(t, s2)
}

// Figure 4(b): under SwiftDir a remote load of write-protected data is
// always served from the LLC with the constant two-hop latency — the E/S
// channel is closed.
func TestSwiftDirWPRemoteLoadConstantLatency(t *testing.T) {
	tm := DefaultTiming()
	s := newTestSystem(t, SwiftDir, 2)
	s.AccessSync(1, blockA, false, true, 0)
	r := s.AccessSync(0, blockA, false, true, 0)
	if r.Served != ServedLLC {
		t.Fatalf("served from %v, want LLC", r.Served)
	}
	if r.Latency != tm.LLCLoadLatency() {
		t.Fatalf("latency %d, want %d", r.Latency, tm.LLCLoadLatency())
	}
	// Repeats are stable.
	s.AccessSync(0, 0x20000, false, true, 0) // unrelated
	r2 := s.AccessSync(0, blockA, false, true, 0)
	if r2.Served != ServedL1 { // now locally cached in S
		t.Fatalf("re-load served from %v, want L1", r2.Served)
	}
	quiesceAndCheck(t, s)
}

// S-MESI closes the channel differently: the remote load of an E block is
// served from the LLC because E is provably clean.
func TestSMESIServesEStateFromLLC(t *testing.T) {
	tm := DefaultTiming()
	s := newTestSystem(t, SMESI, 2)
	s.AccessSync(1, blockA, false, false, 0)
	r := s.AccessSync(0, blockA, false, false, 0)
	if r.Served != ServedLLC {
		t.Fatalf("served from %v, want LLC", r.Served)
	}
	if r.Latency != tm.LLCLoadLatency() {
		t.Fatalf("latency %d, want %d", r.Latency, tm.LLCLoadLatency())
	}
	s.Quiesce() // let the Downgrade land
	if st := s.L1StateOf(1, blockA); st != cache.Shared {
		t.Fatalf("owner state %v after downgrade, want S", st)
	}
	quiesceAndCheck(t, s)
}

// Figure 3(a)/4(d): MESI and SwiftDir upgrade E->M silently in one cycle
// with no directory transition.
func TestSilentUpgrade(t *testing.T) {
	tm := DefaultTiming()
	for _, p := range []Policy{MESI, SwiftDir} {
		s := newTestSystem(t, p, 2)
		s.AccessSync(0, blockA, false, false, 0)
		before := s.BankStatsTotal().Requests
		r := s.AccessSync(0, blockA, true, false, 7)
		if r.Latency != tm.L1Tag {
			t.Errorf("%s: silent upgrade latency %d, want %d", p.Name(), r.Latency, tm.L1Tag)
		}
		if s.BankStatsTotal().Requests != before {
			t.Errorf("%s: silent upgrade generated directory traffic", p.Name())
		}
		if st := s.L1StateOf(0, blockA); st != cache.Modified {
			t.Errorf("%s: L1 state %v, want M", p.Name(), st)
		}
		// The root cause of the channel: the directory still believes E.
		if ds := s.DirStateOf(blockA); ds != DirExclusive {
			t.Errorf("%s: dir state %v, want DirE (silent)", p.Name(), ds)
		}
		if s.L1s[0].Stats.SilentUpgrades != 1 {
			t.Errorf("%s: silent upgrade not counted", p.Name())
		}
		// The M line now serves loads and stores in L1Tag cycles.
		base := s.L1s[0].Stats
		if r := s.AccessSync(0, blockA, false, false, 0); r.Latency != tm.L1Tag || r.Value != 7 || r.Served != ServedL1 {
			t.Errorf("%s: load hit on M = %+v, want value 7 from the L1 in %d cycles", p.Name(), r, tm.L1Tag)
		}
		if r := s.AccessSync(0, blockA, true, false, 8); r.Latency != tm.L1Tag || r.Value != 8 || r.Served != ServedL1 {
			t.Errorf("%s: store hit on M = %+v, want value 8 at the L1 in %d cycles", p.Name(), r, tm.L1Tag)
		}
		if r := s.AccessSync(0, blockA, false, false, 0); r.Value != 8 {
			t.Errorf("%s: store hit not visible: loaded %#x, want 8", p.Name(), r.Value)
		}
		if st := s.L1s[0].Stats; st.Loads != base.Loads+2 || st.Stores != base.Stores+1 ||
			st.LoadHits != base.LoadHits+2 || st.StoreHits != base.StoreHits+1 {
			t.Errorf("%s: hit counters %+v, base %+v", p.Name(), st, base)
		}
		quiesceAndCheck(t, s)
	}
}

// Figure 2 / Figure 3(b): S-MESI's explicit E->M costs a full round trip
// through EM^A and synchronizes the M state to the directory.
func TestSMESIExplicitUpgrade(t *testing.T) {
	tm := DefaultTiming()
	s := newTestSystem(t, SMESI, 2)
	s.AccessSync(0, blockA, false, false, 0)
	r := s.AccessSync(0, blockA, true, false, 7)
	want := tm.L1Tag + tm.Hop + tm.LLCTag + tm.Hop
	if r.Latency != want {
		t.Fatalf("E->M upgrade latency %d, want %d", r.Latency, want)
	}
	if r.Served != ServedUpgrade {
		t.Fatalf("served %v, want Upgrade", r.Served)
	}
	if ds := s.DirStateOf(blockA); ds != DirModifiedL1 {
		t.Fatalf("dir state %v, want DirM (synchronized)", ds)
	}
	if s.L1s[0].Stats.ExplicitUpgrades != 1 || s.L1s[0].Stats.SilentUpgrades != 0 {
		t.Fatalf("upgrade accounting wrong: %+v", s.L1s[0].Stats)
	}
	quiesceAndCheck(t, s)
}

// A store to a Shared block invalidates the other sharers in every
// protocol.
func TestStoreOnSharedInvalidatesSharers(t *testing.T) {
	for _, p := range Policies {
		s := newTestSystem(t, p, 3)
		// Make the block Shared in cores 1 and 2.
		s.AccessSync(1, blockA, false, true, 0)
		s.AccessSync(2, blockA, false, true, 0)
		s.Quiesce()
		// Core 1 stores (e.g., after a CoW the page would be private,
		// but the protocol must handle a raw store on S regardless).
		r := s.AccessSync(1, blockA, true, false, 42)
		if r.Served != ServedUpgrade && r.Served != ServedLLC && r.Served != ServedMem {
			t.Errorf("%s: store served %v", p.Name(), r.Served)
		}
		s.Quiesce()
		if st := s.L1StateOf(2, blockA); st != cache.Invalid {
			t.Errorf("%s: sharer not invalidated: %v", p.Name(), st)
		}
		if st := s.L1StateOf(1, blockA); st != cache.Modified {
			t.Errorf("%s: writer state %v, want M", p.Name(), st)
		}
		if ds := s.DirStateOf(blockA); ds != DirModifiedL1 {
			t.Errorf("%s: dir state %v, want DirM", p.Name(), ds)
		}
		quiesceAndCheck(t, s)
	}
}

// A store miss (GETX) yanks the block from a remote owner.
func TestStoreMissInvalidatesOwner(t *testing.T) {
	for _, p := range Policies {
		s := newTestSystem(t, p, 2)
		s.AccessSync(1, blockA, false, false, 0)        // owner in E
		s.AccessSync(1, blockA, true, false, 0xAA)      // now M (silent or explicit)
		r := s.AccessSync(0, blockA, true, false, 0xBB) // remote store
		s.Quiesce()
		if st := s.L1StateOf(1, blockA); st != cache.Invalid {
			t.Errorf("%s: old owner not invalidated: %v", p.Name(), st)
		}
		if st := s.L1StateOf(0, blockA); st != cache.Modified {
			t.Errorf("%s: new owner state %v, want M", p.Name(), st)
		}
		_ = r
		quiesceAndCheck(t, s)
	}
}

// Data-value invariant across a three-hop transfer: the silently modified
// value must reach a remote reader (MESI's forwarding correctness).
func TestDirtyDataForwardedOnRemoteLoad(t *testing.T) {
	for _, p := range Policies {
		s := newTestSystem(t, p, 2)
		s.AccessSync(1, blockA, false, false, 0)
		s.AccessSync(1, blockA, true, false, 0xFEED)
		r := s.AccessSync(0, blockA, false, false, 0)
		if r.Value != 0xFEED {
			t.Errorf("%s: remote load got %#x, want 0xFEED", p.Name(), r.Value)
		}
		quiesceAndCheck(t, s)
	}
}

// After a forwarded GETS the LLC must have absorbed the dirty data, so a
// third reader gets the right value from the LLC.
func TestLLCAbsorbsDirtyDataAfterForward(t *testing.T) {
	s := newTestSystem(t, MESI, 3)
	s.AccessSync(0, blockA, false, false, 0)
	s.AccessSync(0, blockA, true, false, 0xBEEF) // silent M
	s.AccessSync(1, blockA, false, false, 0)     // 3-hop; LLC absorbs
	r := s.AccessSync(2, blockA, false, false, 0)
	if r.Served != ServedLLC {
		t.Fatalf("third load served %v, want LLC", r.Served)
	}
	if r.Value != 0xBEEF {
		t.Fatalf("third load value %#x, want 0xBEEF", r.Value)
	}
	quiesceAndCheck(t, s)
}

// Evicted dirty data must survive the round trip through the LLC and
// memory. The tiny L1 (4 ways, 4 sets) forces conflict evictions.
func TestWritebackPreservesData(t *testing.T) {
	for _, p := range Policies {
		s := newTestSystem(t, p, 1)
		l1Sets := s.L1s[0].Array().Sets()
		stride := cache.Addr(l1Sets * 64)
		base := cache.Addr(0x40000)
		// Fill one set beyond capacity with dirty lines.
		for i := 0; i < 8; i++ {
			addr := base + cache.Addr(i)*stride
			s.AccessSync(0, addr, true, false, uint64(0x1000+i))
		}
		s.Quiesce()
		for i := 0; i < 8; i++ {
			addr := base + cache.Addr(i)*stride
			r := s.AccessSync(0, addr, false, false, 0)
			if r.Value != uint64(0x1000+i) {
				t.Errorf("%s: block %d read %#x, want %#x", p.Name(), i, r.Value, 0x1000+i)
			}
		}
		quiesceAndCheck(t, s)
	}
}

// Untouched memory returns its deterministic initial token.
func TestInitialMemoryToken(t *testing.T) {
	s := newTestSystem(t, MESI, 1)
	r := s.AccessSync(0, blockA, false, false, 0)
	if r.Value != initialToken(blockA) {
		t.Fatalf("cold read %#x, want %#x", r.Value, initialToken(blockA))
	}
}

// MSHR merging: concurrent accesses to one block produce a single
// directory transaction.
func TestMSHRMerging(t *testing.T) {
	s := newTestSystem(t, MESI, 1)
	completed := 0
	for i := 0; i < 4; i++ {
		s.Submit(0, Access{Addr: blockA + cache.Addr(i*8), Done: func(AccessResult) { completed++ }})
	}
	s.Quiesce()
	if completed != 4 {
		t.Fatalf("completed = %d, want 4", completed)
	}
	if got := s.BankStatsTotal().MemFetches; got != 1 {
		t.Fatalf("mem fetches = %d, want 1 (merged)", got)
	}
	quiesceAndCheck(t, s)
}

// Concurrent cross-core requests to the same block serialize at the
// directory and both complete.
func TestDirectorySerializesRacingRequests(t *testing.T) {
	for _, p := range Policies {
		s := newTestSystem(t, p, 2)
		var results []AccessResult
		s.Submit(0, Access{Addr: blockA, Done: func(r AccessResult) { results = append(results, r) }})
		s.Submit(1, Access{Addr: blockA, Done: func(r AccessResult) { results = append(results, r) }})
		s.Quiesce()
		if len(results) != 2 {
			t.Fatalf("%s: %d completions, want 2", p.Name(), len(results))
		}
		quiesceAndCheck(t, s)
	}
}

// Racing stores from two cores: exactly one final owner, dir knows it.
func TestRacingStores(t *testing.T) {
	for _, p := range Policies {
		s := newTestSystem(t, p, 2)
		s.Submit(0, Access{Addr: blockA, Write: true, Value: 0xA})
		s.Submit(1, Access{Addr: blockA, Write: true, Value: 0xB})
		s.Quiesce()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if ds := s.DirStateOf(blockA); ds != DirModifiedL1 {
			t.Fatalf("%s: dir state %v, want DirM", p.Name(), ds)
		}
		// The surviving value is one of the two stores.
		r := s.AccessSync(0, blockA, false, false, 0)
		if r.Value != 0xA && r.Value != 0xB {
			t.Fatalf("%s: final value %#x", p.Name(), r.Value)
		}
	}
}

// A store racing an upgrade: core 0 and core 1 both share the block; both
// store concurrently. One Upgrade must be resolved as a GETX.
func TestUpgradeRace(t *testing.T) {
	for _, p := range Policies {
		s := newTestSystem(t, p, 2)
		s.AccessSync(0, blockA, false, true, 0)
		s.AccessSync(1, blockA, false, true, 0)
		s.Quiesce()
		s.Submit(0, Access{Addr: blockA, Write: true, Value: 0xC0})
		s.Submit(1, Access{Addr: blockA, Write: true, Value: 0xC1})
		s.Quiesce()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		r := s.AccessSync(0, blockA, false, false, 0)
		if r.Value != 0xC0 && r.Value != 0xC1 {
			t.Fatalf("%s: final value %#x", p.Name(), r.Value)
		}
	}
}

// TestMidUpgradeWAR is the write-after-read litmus of §III on a store that
// needs an Upgrade: while core 0's store to a shared block is in flight, a
// sharer's read ordered before the home bank takes the Upgrade sees the
// old value, and a read after the invalidation sees the new one.
func TestMidUpgradeWAR(t *testing.T) {
	for _, p := range Policies {
		t.Run(p.Name(), func(t *testing.T) {
			s := newTestSystem(t, p, 2)
			const old, new_ = uint64(0xAA), uint64(0xBB)
			s.AccessSync(0, blockA, true, false, old)
			s.AccessSync(1, blockA, false, false, 0) // port 1 joins as sharer
			s.Quiesce()
			if st := s.L1StateOf(1, blockA); st != cache.Shared {
				t.Fatalf("setup: port 1 state %v, want S", st)
			}

			storeDone := false
			s.Submit(0, Access{Addr: blockA, Write: true, Value: new_,
				Done: func(AccessResult) { storeDone = true }})
			s.Eng.RunFor(s.Timing.L1Tag + 1) // tag lookup done, Upgrade in the network
			if s.L1s[0].OutstandingMisses() != 1 {
				t.Fatal("store is not in flight")
			}

			var read AccessResult
			readDone := false
			s.Submit(1, Access{Addr: blockA, Done: func(r AccessResult) { read, readDone = r, true }})
			s.Eng.RunWhile(func() bool { return !readDone })
			if b := s.bankFor(blockA); b.busy.Len() != 0 || b.pins != 0 {
				t.Fatal("home bank took the Upgrade before the sharer's read completed")
			}
			if read.Value != old {
				t.Fatalf("pre-serialization read saw %#x, want old value %#x", read.Value, old)
			}

			s.Quiesce()
			if !storeDone {
				t.Fatal("store never completed")
			}
			if st := s.L1StateOf(1, blockA); st != cache.Invalid {
				t.Fatalf("sharer kept state %v after upgrade, want I", st)
			}
			if got := s.AccessSync(1, blockA, false, false, 0); got.Value != new_ {
				t.Fatalf("post-upgrade read saw %#x, want %#x", got.Value, new_)
			}
			quiesceAndCheck(t, s)
		})
	}
}

// LLC capacity evictions recall L1 copies (inclusion) without losing data.
func TestLLCRecallPreservesInclusionAndData(t *testing.T) {
	cfg := testConfig(MESI, 2)
	// Tiny LLC: 2 banks x 1KB, 2 ways => heavy conflict pressure.
	cfg.LLCParams = cache.Params{Name: "LLC", SizeBytes: 1 << 10, Ways: 2, BlockSize: 64}
	s := MustNewSystem(cfg)
	base := cache.Addr(0x80000)
	// Write distinct values over more blocks than the LLC holds.
	n := 64
	for i := 0; i < n; i++ {
		s.AccessSync(0, base+cache.Addr(i*64), true, false, uint64(0x9000+i))
	}
	s.Quiesce()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.BankStatsTotal().Recalls == 0 {
		t.Fatal("expected recalls under LLC pressure")
	}
	for i := 0; i < n; i++ {
		r := s.AccessSync(0, base+cache.Addr(i*64), false, false, 0)
		if r.Value != uint64(0x9000+i) {
			t.Fatalf("block %d lost data: %#x", i, r.Value)
		}
	}
	quiesceAndCheck(t, s)
}

// Eviction race: the owner evicts (PUTX in flight) while the directory
// forwards a GETS; the owner must serve from its writeback buffer.
func TestForwardRacesWriteback(t *testing.T) {
	s := newTestSystem(t, MESI, 2)
	l1Sets := s.L1s[0].Array().Sets()
	stride := cache.Addr(l1Sets * 64)
	base := cache.Addr(0x40000)
	// Core 0: dirty block at base.
	s.AccessSync(0, base, true, false, 0x77)
	// Evict it by filling the set; at the same time core 1 reads base.
	for i := 1; i <= 4; i++ {
		s.Submit(0, Access{Addr: base + cache.Addr(i)*stride})
	}
	var got uint64
	s.Submit(1, Access{Addr: base, Done: func(r AccessResult) { got = r.Value }})
	s.Quiesce()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got != 0x77 {
		t.Fatalf("reader got %#x, want 0x77", got)
	}
}

// Determinism: identical runs produce identical final cycles and stats.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		s := newTestSystem(t, SwiftDir, 4)
		for i := 0; i < 100; i++ {
			port := i % 4
			addr := cache.Addr(0x1000 + (i%17)*64)
			s.Submit(port, Access{Addr: addr, Write: i%3 == 0, WP: i%5 == 0, Value: uint64(i)})
		}
		s.Quiesce()
		return uint64(s.Eng.Now()), s.BankStatsTotal().Requests
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", c1, r1, c2, r2)
	}
}

// TestCheckInvariantsReportsLowestViolation: with two blocks forced into
// an SWMR violation (each Modified in both L1s), CheckInvariants names the
// lower address, and the same state gives the same text on every call.
// The report ends up verbatim in model-checker counterexamples.
func TestCheckInvariantsReportsLowestViolation(t *testing.T) {
	s := newTestSystem(t, MESI, 2)
	blocks := []cache.Addr{blockA + 5*64, blockA}
	for _, a := range blocks {
		s.AccessSync(0, a, true, false, 1)
	}
	s.Quiesce()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("clean system: %v", err)
	}
	arr := s.L1s[1].Array()
	for _, a := range blocks {
		arr.Install(arr.Victim(a), a, cache.Modified)
	}
	first := s.CheckInvariants()
	want := fmt.Sprintf("SWMR: block %#x exclusive in L1s [0 1]", blockA)
	if first == nil || !strings.Contains(first.Error(), want) {
		t.Fatalf("CheckInvariants = %v, want %q", first, want)
	}
	for i := 1; i < 50; i++ {
		if err := s.CheckInvariants(); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d reported %v, first call %v", i+1, err, first)
		}
	}
}
