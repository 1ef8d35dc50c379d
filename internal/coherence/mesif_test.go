package coherence

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cache"
)

// MESIF: the second reader of a clean block is served by the E-holder and
// becomes the Forward holder; later readers are served by the current
// forwarder, each becoming the new forwarder.
func TestMESIFForwardChain(t *testing.T) {
	s := newTestSystem(t, MESIF, 4)
	s.AccessSync(0, blockA, false, false, 0) // E on core 0
	r1 := s.AccessSync(1, blockA, false, false, 0)
	if r1.Served != ServedRemote {
		t.Fatalf("second reader served %v, want Remote (from E holder)", r1.Served)
	}
	s.Quiesce()
	if st := s.L1StateOf(1, blockA); st != cache.Forward {
		t.Fatalf("core 1 state %v, want F", st)
	}
	if st := s.L1StateOf(0, blockA); st != cache.Shared {
		t.Fatalf("core 0 state %v, want S", st)
	}

	r2 := s.AccessSync(2, blockA, false, false, 0)
	if r2.Served != ServedRemote {
		t.Fatalf("third reader served %v, want Remote (from forwarder)", r2.Served)
	}
	s.Quiesce()
	if st := s.L1StateOf(2, blockA); st != cache.Forward {
		t.Fatalf("core 2 state %v, want F (new forwarder)", st)
	}
	if st := s.L1StateOf(1, blockA); st != cache.Shared {
		t.Fatalf("core 1 state %v, want S (old forwarder demoted)", st)
	}
	quiesceAndCheck(t, s)
}

// When the forwarder evicts, the LLC serves the next reader, who becomes
// the new forwarder.
func TestMESIFForwarderEvictionFallsBackToLLC(t *testing.T) {
	s := newTestSystem(t, MESIF, 3)
	l1Sets := s.L1s[0].Array().Sets()
	stride := cache.Addr(l1Sets * 64)
	s.AccessSync(0, blockA, false, false, 0)
	s.AccessSync(1, blockA, false, false, 0) // core 1 = F
	s.Quiesce()
	// Evict core 1's F line.
	for i := 1; i <= 4; i++ {
		s.AccessSync(1, blockA+cache.Addr(i)*stride, false, false, 0)
	}
	s.Quiesce()
	r := s.AccessSync(2, blockA, false, false, 0)
	if r.Served != ServedLLC {
		t.Fatalf("post-eviction reader served %v, want LLC", r.Served)
	}
	s.Quiesce()
	if st := s.L1StateOf(2, blockA); st != cache.Forward {
		t.Fatalf("core 2 state %v, want F", st)
	}
	quiesceAndCheck(t, s)
}

// The MESIF hazard this suite exists for: a GETX on a block with three
// sharers must invalidate ALL of them, including those that shared before
// the latest forwarder transfer.
func TestMESIFStoreInvalidatesAllSharers(t *testing.T) {
	s := newTestSystem(t, MESIF, 4)
	s.AccessSync(0, blockA, false, false, 0)
	s.AccessSync(1, blockA, false, false, 0)
	s.AccessSync(2, blockA, false, false, 0)
	s.Quiesce()
	// Core 3 writes.
	s.AccessSync(3, blockA, true, false, 0x3333)
	s.Quiesce()
	for core := 0; core < 3; core++ {
		if st := s.L1StateOf(core, blockA); st != cache.Invalid {
			t.Fatalf("core %d survived the store: %v", core, st)
		}
	}
	// And every reader sees the new value.
	for core := 0; core < 3; core++ {
		r := s.AccessSync(core, blockA, false, false, 0)
		if r.Value != 0x3333 {
			t.Fatalf("core %d read %#x", core, r.Value)
		}
	}
	quiesceAndCheck(t, s)
}

// A store by the forwarder itself upgrades; other sharers invalidate.
func TestMESIFForwarderUpgrade(t *testing.T) {
	s := newTestSystem(t, MESIF, 3)
	s.AccessSync(0, blockA, false, false, 0)
	s.AccessSync(1, blockA, false, false, 0) // 1 = F, 0 = S
	w := s.AccessSync(1, blockA, true, false, 9)
	if w.Served != ServedUpgrade {
		t.Fatalf("forwarder store served %v", w.Served)
	}
	s.Quiesce()
	if st := s.L1StateOf(0, blockA); st != cache.Invalid {
		t.Fatalf("sharer state %v", st)
	}
	if st := s.L1StateOf(1, blockA); st != cache.Modified {
		t.Fatalf("writer state %v", st)
	}
	quiesceAndCheck(t, s)
}

// SwiftDir-MESIF: write-protected data get neither E nor F — every access
// is the constant LLC service, closing both the E/S channel and MESIF's
// residual forwarder-present channel.
func TestSwiftDirMESIFConstantWPService(t *testing.T) {
	tm := DefaultTiming()
	s := newTestSystem(t, SwiftDirMESIF, 4)
	s.AccessSync(0, blockA, false, true, 0)
	for core := 1; core < 4; core++ {
		r := s.AccessSync(core, blockA, false, true, 0)
		if r.Served != ServedLLC || r.Latency != tm.LLCLoadLatency() {
			t.Fatalf("core %d: served %v latency %d", core, r.Served, r.Latency)
		}
	}
	s.Quiesce()
	for core := 0; core < 4; core++ {
		if st := s.L1StateOf(core, blockA); st != cache.Shared {
			t.Fatalf("core %d state %v, want S (no F for WP data)", core, st)
		}
	}
	// Non-WP data keep the forwarder optimization.
	s.AccessSync(0, 0x20000, false, false, 0)
	s.AccessSync(1, 0x20000, false, false, 0)
	s.Quiesce()
	if st := s.L1StateOf(1, 0x20000); st != cache.Forward {
		t.Fatalf("non-WP reader state %v, want F", st)
	}
	quiesceAndCheck(t, s)
}

// MESIF's residual channel, demonstrated: the attacker can distinguish
// "forwarder present" (3-hop) from "forwarder absent" (2-hop) for plain
// MESIF, while SwiftDir-MESIF keeps WP data constant.
func TestMESIFResidualChannel(t *testing.T) {
	s := newTestSystem(t, MESIF, 4)
	// Line with forwarder: loads are 43 cycles.
	s.AccessSync(0, blockA, false, true, 0)
	s.AccessSync(1, blockA, false, true, 0)
	withF := s.AccessSync(2, blockA, false, true, 0)
	if withF.Latency != DefaultTiming().RemoteLoadLatency() {
		t.Fatalf("with-forwarder latency %d", withF.Latency)
	}
	// Under SwiftDir-MESIF the same sequence is flat.
	s2 := newTestSystem(t, SwiftDirMESIF, 4)
	s2.AccessSync(0, blockA, false, true, 0)
	s2.AccessSync(1, blockA, false, true, 0)
	flat := s2.AccessSync(2, blockA, false, true, 0)
	if flat.Latency != DefaultTiming().LLCLoadLatency() {
		t.Fatalf("SwiftDir-MESIF latency %d, want constant LLC", flat.Latency)
	}
}

// Sequential-consistency property for the MESIF family.
func TestMESIFSequentialConsistencyProperty(t *testing.T) {
	for _, p := range []Policy{MESIF, SwiftDirMESIF} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			f := func(ops []uint32) bool {
				cfg := testConfig(p, 4)
				cfg.LLCParams = cache.Params{Name: "LLC", SizeBytes: 4 << 10, Ways: 4, BlockSize: 64}
				s := MustNewSystem(cfg)
				shadow := map[cache.Addr]uint64{}
				val := uint64(1)
				for _, op := range ops {
					core := int(op % 4)
					block := cache.Addr(0x100000 + (uint64(op>>2)%24)*64)
					if op&(1<<30) != 0 {
						val++
						s.AccessSync(core, block, true, false, val)
						shadow[block] = val
					} else {
						r := s.AccessSync(core, block, false, op&(1<<29) != 0, 0)
						want, ok := shadow[block]
						if !ok {
							want = initialToken(block)
						}
						if r.Value != want {
							return false
						}
					}
				}
				s.Quiesce()
				return s.CheckInvariants() == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Concurrent stress for MESIF.
func TestMESIFConcurrentStress(t *testing.T) {
	cfg := testConfig(MESIF, 4)
	cfg.LLCParams = cache.Params{Name: "LLC", SizeBytes: 4 << 10, Ways: 4, BlockSize: 64}
	s := MustNewSystem(cfg)
	for i := 0; i < 1500; i++ {
		s.Submit(i%4, Access{
			Addr:  cache.Addr(0x100000 + (i%32)*64),
			Write: i%4 == 0,
			Value: uint64(i),
		})
	}
	s.Eng.RunBounded(50_000_000)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsWPForwardUnderSwiftDirMESIF: the WP-never-exclusive
// invariant asks the policy, so it covers SwiftDir-MESIF too, whose
// write-protected data must get neither E nor F. A WP line forced into F
// (with the directory agreeing, so no other invariant trips) must fail.
func TestCheckInvariantsWPForwardUnderSwiftDirMESIF(t *testing.T) {
	s := newTestSystem(t, SwiftDirMESIF, 2)
	s.AccessSync(0, blockA, false, true, 0)
	s.Quiesce()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("clean system: %v", err)
	}
	ln := s.L1s[0].Array().Lookup(blockA)
	if ln == nil || !ln.WP || ln.State != cache.Shared {
		t.Fatalf("setup: WP load left line %+v, want a write-protected S copy", ln)
	}
	ln.State = cache.Forward
	s.bankFor(blockA).entries[blockA].forwarder = 0
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "write-protected") {
		t.Fatalf("WP line in F under SwiftDir-MESIF: CheckInvariants = %v, want a write-protected violation", err)
	}
}
