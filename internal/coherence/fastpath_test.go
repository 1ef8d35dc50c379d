package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// Fast-path tests: TryFastAccess must fire exactly on stable-state L1
// hits, decline every hazardous case, and — with the NoFastPath knob —
// be statistically indistinguishable from the event path.

// warmTo installs addr in port's L1, optionally drives it to M, and
// quiesces: AccessSync returns at the Done callback, which can leave
// directory-side cleanup events pending and the home bank still busy —
// a state the fast path conservatively declines.
func warmTo(s *System, port int, addr cache.Addr, modified bool) {
	s.AccessSync(port, addr, false, false, 0)
	if modified {
		s.AccessSync(port, addr, true, false, uint64(addr))
	}
	s.Eng.Run()
}

func TestFastPathHitLoadAndStore(t *testing.T) {
	s := MustNewSystem(testConfig(MESI, 2))
	warmTo(s, 0, blockA, true)
	base := s.L1s[0].Stats

	r, ok := s.TryFastAccess(0, Access{Addr: blockA})
	if !ok {
		t.Fatal("fast load of an M-state line declined")
	}
	if want := s.Timing.L1Tag; r.Latency != want {
		t.Fatalf("fast hit latency = %d, want L1Tag = %d", r.Latency, want)
	}
	if r.Value != uint64(blockA) || r.Served != ServedL1 {
		t.Fatalf("fast load returned value %#x served %v", r.Value, r.Served)
	}

	r, ok = s.TryFastAccess(0, Access{Addr: blockA, Write: true, Value: 7})
	if !ok {
		t.Fatal("fast store to an M-state line declined")
	}
	if r.Latency != s.Timing.L1Tag || r.Value != 7 {
		t.Fatalf("fast store result = %+v", r)
	}
	st := s.L1s[0].Stats
	if got := s.AccessSync(0, blockA, false, false, 0); got.Value != 7 {
		t.Fatalf("store not visible: loaded %#x, want 7", got.Value)
	}
	if st.FastHits != base.FastHits+2 {
		t.Fatalf("FastHits = %d, want %d", st.FastHits, base.FastHits+2)
	}
	if st.Loads != base.Loads+1 || st.Stores != base.Stores+1 ||
		st.LoadHits != base.LoadHits+1 || st.StoreHits != base.StoreHits+1 {
		t.Fatalf("load/store counters diverged: %+v vs base %+v", st, base)
	}
}

func TestFastPathSilentUpgrade(t *testing.T) {
	// A store hitting E must fast-path only under policies that upgrade
	// silently; S-MESI notifies the LLC (the EM^A round trip, §III) and
	// must take the event path.
	for _, tc := range []struct {
		p    Policy
		want bool
	}{{MESI, true}, {SwiftDir, true}, {SMESI, false}} {
		s := MustNewSystem(testConfig(tc.p, 2))
		warmTo(s, 0, blockA, false)
		if st := s.L1StateOf(0, blockA); st != cache.Exclusive {
			t.Fatalf("%s: warm load left state %v, want E", tc.p.Name(), st)
		}
		_, ok := s.TryFastAccess(0, Access{Addr: blockA, Write: true, Value: 1})
		if ok != tc.want {
			t.Errorf("%s: fast store to E accepted=%v, want %v", tc.p.Name(), ok, tc.want)
		}
		if tc.want {
			if st := s.L1StateOf(0, blockA); st != cache.Modified {
				t.Errorf("%s: silent fast upgrade left state %v, want M", tc.p.Name(), st)
			}
			if s.L1s[0].Stats.SilentUpgrades != 1 {
				t.Errorf("%s: SilentUpgrades = %d, want 1", tc.p.Name(), s.L1s[0].Stats.SilentUpgrades)
			}
		}
	}
}

func TestFastPathDeclines(t *testing.T) {
	mk := func(mut func(*SystemConfig)) *System {
		cfg := testConfig(MESI, 2)
		if mut != nil {
			mut(&cfg)
		}
		return MustNewSystem(cfg)
	}

	t.Run("not resident", func(t *testing.T) {
		s := mk(nil)
		if _, ok := s.TryFastAccess(0, Access{Addr: blockA}); ok {
			t.Fatal("fast path hit a line that was never installed")
		}
	})

	t.Run("store to shared", func(t *testing.T) {
		s := mk(nil)
		warmTo(s, 0, blockA, false)
		s.AccessSync(1, blockA, false, false, 0) // both S now
		s.Eng.Run()
		if _, ok := s.TryFastAccess(0, Access{Addr: blockA, Write: true, Value: 1}); ok {
			t.Fatal("fast store to an S-state line must take the Upgrade round trip")
		}
	})

	t.Run("knob off", func(t *testing.T) {
		s := mk(func(c *SystemConfig) { c.NoFastPath = true })
		warmTo(s, 0, blockA, true)
		if _, ok := s.TryFastAccess(0, Access{Addr: blockA}); ok {
			t.Fatal("fast path fired with NoFastPath set")
		}
	})

	t.Run("extra latency", func(t *testing.T) {
		s := mk(nil)
		warmTo(s, 0, blockA, true)
		if _, ok := s.TryFastAccess(0, Access{Addr: blockA, Extra: 1}); ok {
			t.Fatal("fast path fired on an access with deferred-translation Extra")
		}
	})

	t.Run("slow tag", func(t *testing.T) {
		// L1Tag >= Hop voids the no-delivery-in-window argument; the
		// whole system must decline.
		s := mk(func(c *SystemConfig) { c.Timing.L1Tag = c.Timing.Hop })
		warmTo(s, 0, blockA, true)
		if _, ok := s.TryFastAccess(0, Access{Addr: blockA}); ok {
			t.Fatal("fast path fired with L1Tag >= Hop")
		}
	})
}

// TestFastPathMidUpgradeWAR is the fast/event interleaving litmus: while
// port 0's store to a shared line is mid-upgrade, reads must serialize
// correctly around the write (the paper's §III write-after-read concern).
//   - The writer's own L1 declines (MSHR in flight): its later accesses
//     stay ordered behind the store.
//   - A sharer may still fast-hit the line *before* the directory starts
//     the upgrade — that read is globally ordered before the write and
//     must see the old value.
//   - Once the home bank owns the transaction, the sharer declines too;
//     after the invalidation it re-fetches and must see the new value.
func TestFastPathMidUpgradeWAR(t *testing.T) {
	s := MustNewSystem(testConfig(MESI, 2))
	const old, new_ = uint64(0xAA), uint64(0xBB)
	warmTo(s, 0, blockA, true)
	s.AccessSync(0, blockA, true, false, old)
	s.AccessSync(1, blockA, false, false, 0) // port 1 joins as sharer
	s.Eng.Run()
	if st := s.L1StateOf(1, blockA); st != cache.Shared {
		t.Fatalf("setup: port 1 state %v, want S", st)
	}

	storeDone := false
	s.Submit(0, Access{Addr: blockA, Write: true, Value: new_,
		Done: func(AccessResult) { storeDone = true }})
	s.Eng.RunFor(s.Timing.L1Tag + 1) // tag lookup done, Upgrade in the crossbar

	if _, ok := s.TryFastAccess(0, Access{Addr: blockA}); ok {
		t.Fatal("writer's L1 fast-pathed a load behind its own in-flight store")
	}
	r, ok := s.TryFastAccess(1, Access{Addr: blockA})
	if !ok {
		t.Fatal("sharer load declined before the home bank saw the upgrade")
	}
	if r.Value != old {
		t.Fatalf("pre-serialization read saw %#x, want old value %#x", r.Value, old)
	}

	// Advance until the home bank owns the transaction: the sharer must
	// now decline (its read can no longer be ordered before the write).
	b := s.bankFor(blockA)
	for b.busy.Len() == 0 && !b.pinned(s.L1s[0].arr.BlockAddr(blockA)) {
		if s.Eng.Pending() == 0 {
			t.Fatal("engine drained before the bank processed the upgrade")
		}
		s.Eng.RunFor(1)
	}
	if !storeDone {
		if _, ok := s.TryFastAccess(1, Access{Addr: blockA}); ok {
			t.Fatal("sharer fast-pathed a read while the home bank owned the upgrade")
		}
	}

	s.Eng.Run()
	if !storeDone {
		t.Fatal("store never completed")
	}
	if st := s.L1StateOf(1, blockA); st != cache.Invalid {
		t.Fatalf("sharer kept state %v after upgrade, want I", st)
	}
	if _, ok := s.TryFastAccess(1, Access{Addr: blockA}); ok {
		t.Fatal("sharer fast-hit an invalidated line")
	}
	if got := s.AccessSync(1, blockA, false, false, 0); got.Value != new_ {
		t.Fatalf("post-upgrade read saw %#x, want %#x", got.Value, new_)
	}
	s.Eng.Run()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathRandomEquivalence drives the same random synchronous access
// sequence through a fast-path system and a NoFastPath twin and demands
// byte-identical results: every AccessResult, every statistic except the
// FastHits/SlowPath split, and the final simulated clock.
func TestFastPathRandomEquivalence(t *testing.T) {
	for _, p := range Policies {
		t.Run(p.Name(), func(t *testing.T) {
			fast := MustNewSystem(testConfig(p, 4))
			slow := MustNewSystem(func() SystemConfig {
				c := testConfig(p, 4)
				c.NoFastPath = true
				return c
			}())

			rng := sim.NewRNG(0xFA57 ^ uint64(len(p.Name())))
			// 8 blocks spanning both banks, far fewer than the 16-block
			// L1, so hits dominate but evictions and sharing still occur.
			addrs := make([]cache.Addr, 8)
			for i := range addrs {
				addrs[i] = blockA + cache.Addr(i*64)
			}
			for i := 0; i < 4000; i++ {
				port := int(rng.Uint64() % 4)
				addr := addrs[rng.Uint64()%uint64(len(addrs))]
				write := rng.Bool(0.3)
				value := rng.Uint64()
				rf := fast.AccessSync(port, addr, write, false, value)
				rs := slow.AccessSync(port, addr, write, false, value)
				if rf != rs {
					t.Fatalf("op %d (port %d addr %#x write %v): fast %+v != slow %+v",
						i, port, addr, write, rf, rs)
				}
			}
			fast.Quiesce()
			slow.Quiesce()
			if fast.Eng.Now() != slow.Eng.Now() {
				t.Fatalf("clocks diverged: fast %d, slow %d", fast.Eng.Now(), slow.Eng.Now())
			}
			var fastHits uint64
			for i := range fast.L1s {
				fs, ss := fast.L1s[i].Stats, slow.L1s[i].Stats
				fastHits += fs.FastHits
				fs.FastHits, fs.SlowPath = 0, 0
				ss.FastHits, ss.SlowPath = 0, 0
				if fs != ss {
					t.Fatalf("L1 %d stats diverged:\nfast %+v\nslow %+v", i, fs, ss)
				}
			}
			if fastHits == 0 {
				t.Fatal("equivalence run never exercised the fast path")
			}
			if fb, sb := fast.BankStatsTotal(), slow.BankStatsTotal(); fb != sb {
				t.Fatalf("bank stats diverged:\nfast %+v\nslow %+v", fb, sb)
			}
			if err := fast.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := slow.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
