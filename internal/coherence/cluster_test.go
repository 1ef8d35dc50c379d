package coherence

import (
	"testing"

	"repro/internal/cache"
)

// clusterTestConfig builds a two-level hierarchy: cores L1s partitioned
// into clusters equal clusters, each behind a hub, over 8 banks. The LLC
// is kept small enough that stress workloads exercise recalls through the
// hub records.
func clusterTestConfig(p Policy, cores, clusters int) SystemConfig {
	cfg := testConfig(p, cores)
	cfg.Clusters = clusters
	cfg.Banks = 8
	cfg.LLCParams = cache.Params{Name: "LLC", SizeBytes: 4 << 10, Ways: 4, BlockSize: 64}
	return cfg
}

// twoLevelPolicies are the policies the two-level directory supports (no
// owned state, no forward state, no bank arbitration).
var twoLevelPolicies = []Policy{MESI, SwiftDir, SMESI, SwiftDirEwp, MSI}

func TestClusterConfigValidation(t *testing.T) {
	good := clusterTestConfig(MESI, 8, 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	reject := func(name string, mutate func(*SystemConfig)) {
		bad := clusterTestConfig(MESI, 8, 4)
		mutate(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	reject("65 clusters", func(c *SystemConfig) { c.NumL1, c.Clusters = 130, 65 })
	reject("non-divisible cluster count", func(c *SystemConfig) { c.NumL1, c.Clusters = 10, 4 })
	reject("65 locals per cluster", func(c *SystemConfig) { c.NumL1, c.Clusters = 130, 2 })
	reject("flat NumL1 > 64", func(c *SystemConfig) { c.NumL1, c.Clusters = 128, 0 })
	reject("MOESI with clusters", func(c *SystemConfig) { c.Policy = MOESI })
	reject("MESIF with clusters", func(c *SystemConfig) { c.Policy = MESIF })
	reject("arbitrating policy with clusters", func(c *SystemConfig) { c.Policy = PhasePriority })
	reject("NUMA distance with clusters", func(c *SystemConfig) { c.Timing.SocketCores = 2 })
}

// Two-level basic protocol behaviour: the cluster hierarchy must preserve
// the paper's state assignments end to end.
func TestTwoLevelBasicStates(t *testing.T) {
	for _, p := range twoLevelPolicies {
		s := MustNewSystem(clusterTestConfig(p, 8, 4))
		// Cold load: E everywhere except MSI (S), WP load under SwiftDir: S.
		s.AccessSync(0, blockA, false, false, 0)
		st := s.L1StateOf(0, blockA)
		if p.Name() == "MSI" {
			if st != cache.Shared {
				t.Errorf("%s: cold load state %v, want S", p.Name(), st)
			}
		} else if st != cache.Exclusive {
			t.Errorf("%s: cold load state %v, want E", p.Name(), st)
		}
		quiesceAndCheck(t, s)
	}
}

// A remote load across clusters observes a silently modified value: the
// three-hop forward path must thread both hubs.
func TestTwoLevelCrossClusterForward(t *testing.T) {
	for _, p := range twoLevelPolicies {
		s := MustNewSystem(clusterTestConfig(p, 8, 4))
		// Core 0 lives in cluster 0; core 6 lives in cluster 3.
		s.AccessSync(0, blockA, false, false, 0)
		s.AccessSync(0, blockA, true, false, 0xFEED)
		r := s.AccessSync(6, blockA, false, false, 0)
		if r.Value != 0xFEED {
			t.Errorf("%s: cross-cluster load got %#x, want 0xFEED", p.Name(), r.Value)
		}
		quiesceAndCheck(t, s)
	}
}

// The home directory tracks sharer CLUSTERS: two sharers in one cluster
// occupy one home bit and two hub record bits; a sharer in another
// cluster occupies a second home bit.
func TestTwoLevelSharersAreClusterBits(t *testing.T) {
	s := MustNewSystem(clusterTestConfig(SwiftDir, 8, 4))
	// Cores 0 and 1 are cluster 0's locals; core 2 is cluster 1's first.
	s.AccessSync(0, blockA, false, true, 0)
	s.AccessSync(1, blockA, false, true, 0)
	s.AccessSync(2, blockA, false, true, 0)
	s.Quiesce()
	v, ok := s.DirEntryOf(blockA)
	if !ok || v.State != DirShared {
		t.Fatalf("dir entry %+v ok=%v, want DirShared", v, ok)
	}
	if v.Sharers != 0b11 {
		t.Fatalf("home sharer bits %#b, want clusters {0,1} = 0b11", v.Sharers)
	}
	recorded := map[int]uint64{}
	s.ForEachHubState(func(hub int, addr cache.Addr, record uint64, pending, upReqs int) {
		if addr == blockA {
			recorded[hub] = record
		}
	})
	if recorded[0] != 0b11 || recorded[1] != 0b01 {
		t.Fatalf("hub records %v, want hub0=0b11 hub1=0b01", recorded)
	}
	quiesceAndCheck(t, s)
}

// A store on a widely shared block invalidates sharers in the writer's
// own cluster and in remote clusters, through the hubs' ack aggregation.
func TestTwoLevelStoreInvalidatesAcrossClusters(t *testing.T) {
	for _, p := range twoLevelPolicies {
		s := MustNewSystem(clusterTestConfig(p, 8, 4))
		for _, core := range []int{0, 1, 2, 5, 7} {
			s.AccessSync(core, blockA, false, true, 0)
		}
		s.Quiesce()
		s.AccessSync(1, blockA, true, false, 0x42)
		s.Quiesce()
		for _, core := range []int{0, 2, 5, 7} {
			if st := s.L1StateOf(core, blockA); st != cache.Invalid {
				t.Errorf("%s: sharer %d not invalidated: %v", p.Name(), core, st)
			}
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

// A non-last eviction is absorbed by the hub: the home keeps one sharer
// bit for the cluster until the last local evicts.
func TestTwoLevelHubFiltersEvictions(t *testing.T) {
	s := MustNewSystem(clusterTestConfig(MESI, 8, 4))
	l1Sets := s.L1s[0].Array().Sets()
	stride := cache.Addr(l1Sets * 64)
	// Cores 0 and 1 (cluster 0) share blockA.
	s.AccessSync(0, blockA, false, true, 0)
	s.AccessSync(1, blockA, false, true, 0)
	s.Quiesce()
	before := s.MsgCount(MsgPUTS)
	// Conflict-evict blockA out of core 1 only.
	for i := 1; i <= 4; i++ {
		s.AccessSync(1, blockA+cache.Addr(i)*stride, false, false, 0)
	}
	s.Quiesce()
	if st := s.L1StateOf(1, blockA); st != cache.Invalid {
		t.Fatalf("core 1 still holds %v after conflict pressure", st)
	}
	if got := s.MsgCount(MsgPUTS); got != before {
		t.Fatalf("non-last PUTS reached the home (count %d -> %d)", before, got)
	}
	v, _ := s.DirEntryOf(blockA)
	if v.State != DirShared || v.Sharers&1 == 0 {
		t.Fatalf("home lost cluster 0's sharer bit: %+v", v)
	}
	// Now evict it from core 0 as well: the cluster's last PUTS reaches
	// the home and the bit clears.
	for i := 1; i <= 4; i++ {
		s.AccessSync(0, blockA+cache.Addr(i)*stride, false, false, 0)
	}
	s.Quiesce()
	if got := s.MsgCount(MsgPUTS); got != before+1 {
		t.Fatalf("last PUTS not forwarded exactly once (count %d -> %d)", before, got)
	}
	if ds := s.DirStateOf(blockA); ds != DirPresent {
		t.Fatalf("dir state %v after cluster emptied, want DirPresent", ds)
	}
	quiesceAndCheck(t, s)
}

// S-MESI's explicit E->M upgrade is granted by an Upgrade_ACK, which has
// no Unblock: it is pinned at send and crosses the hub like any grant. The
// hub's in-flight accounting must retire it on delivery and the pin must be
// released, or CheckInvariants trips.
func TestTwoLevelSMESIUpgradePinnedPath(t *testing.T) {
	s := MustNewSystem(clusterTestConfig(SMESI, 8, 4))
	s.AccessSync(3, blockA, false, false, 0)
	r := s.AccessSync(3, blockA, true, false, 7)
	if r.Served != ServedUpgrade {
		t.Fatalf("served %v, want Upgrade", r.Served)
	}
	if ds := s.DirStateOf(blockA); ds != DirModifiedL1 {
		t.Fatalf("dir state %v, want DirM", ds)
	}
	quiesceAndCheck(t, s)
}

// Racing stores from different clusters: one owner survives, invariants
// hold, and the value is one of the two.
func TestTwoLevelRacingStores(t *testing.T) {
	for _, p := range twoLevelPolicies {
		s := MustNewSystem(clusterTestConfig(p, 8, 4))
		s.AccessSync(0, blockA, false, true, 0)
		s.AccessSync(5, blockA, false, true, 0)
		s.Quiesce()
		s.Submit(0, Access{Addr: blockA, Write: true, Value: 0xC0})
		s.Submit(5, Access{Addr: blockA, Write: true, Value: 0xC1})
		s.Quiesce()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		r := s.AccessSync(2, blockA, false, false, 0)
		if r.Value != 0xC0 && r.Value != 0xC1 {
			t.Fatalf("%s: final value %#x", p.Name(), r.Value)
		}
	}
}

// LLC recalls under capacity pressure must walk the hub records (not the
// cluster bits) and preserve every dirty value.
func TestTwoLevelRecallPreservesData(t *testing.T) {
	cfg := clusterTestConfig(MESI, 8, 4)
	cfg.LLCParams = cache.Params{Name: "LLC", SizeBytes: 1 << 10, Ways: 2, BlockSize: 64}
	s := MustNewSystem(cfg)
	base := cache.Addr(0x80000)
	n := 64
	for i := 0; i < n; i++ {
		s.AccessSync(i%8, base+cache.Addr(i*64), true, false, uint64(0x9000+i))
	}
	s.Quiesce()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.BankStatsTotal().Recalls == 0 {
		t.Fatal("expected recalls under LLC pressure")
	}
	for i := 0; i < n; i++ {
		r := s.AccessSync(i%8, base+cache.Addr(i*64), false, false, 0)
		if r.Value != uint64(0x9000+i) {
			t.Fatalf("block %d lost data: %#x", i, r.Value)
		}
	}
	quiesceAndCheck(t, s)
}

// The concurrent stress workload (overlapping chains per core, heavy
// cross-cluster sharing) drains clean with every access completed and
// the invariants intact, on the event path and with the fast path on.
func TestTwoLevelConcurrentWorkload(t *testing.T) {
	for _, p := range Policies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			for _, noFast := range []bool{true, false} {
				cfg := clusterTestConfig(p, 8, 4)
				cfg.NoFastPath = noFast
				runConcurrentWorkload(t, cfg, 4242, 150)
			}
		})
	}
}

// The serialized probe stream asserts the data-value invariant inline on
// a two-level machine.
func TestTwoLevelAccessSyncWorkload(t *testing.T) {
	for _, p := range twoLevelPolicies {
		cfg := clusterTestConfig(p, 8, 4)
		runSyncWorkload(t, cfg, 11, 500)
	}
}

// meshClusterConfig places the two-level machine on a 2D mesh.
func meshClusterConfig(p Policy, cores, clusters, w, h int) SystemConfig {
	cfg := clusterTestConfig(p, cores, clusters)
	cfg.Topology = "mesh"
	cfg.MeshW, cfg.MeshH = w, h
	cfg.MeshPerHop = 2
	return cfg
}

// A 1x1 mesh is a crossbar: the full system fingerprint — cycle, events,
// message counts, stats, memory image, every access result — must be
// byte-identical between the two topologies.
func TestSystemMesh1x1MatchesCrossbar(t *testing.T) {
	for _, p := range Policies {
		flat := testConfig(p, 4)
		flat.Banks = 8
		mesh := flat
		mesh.Topology = "mesh"
		mesh.MeshW, mesh.MeshH = 1, 1
		mesh.MeshPerHop = 5 // irrelevant at distance 0
		want := runConcurrentWorkload(t, flat, 777, 150)
		got := runConcurrentWorkload(t, mesh, 777, 150)
		checkFingerprintsEqual(t, want, got, p.Name()+"/mesh1x1")
	}
}

// The same stress workload on a two-level machine over a 4x2 mesh.
func TestTwoLevelMeshConcurrentWorkload(t *testing.T) {
	for _, noFast := range []bool{true, false} {
		cfg := meshClusterConfig(SwiftDir, 16, 4, 4, 2)
		cfg.NoFastPath = noFast
		runConcurrentWorkload(t, cfg, 2026, 100)
	}
}

// A 64-core, 8-cluster machine on an 8x4 mesh — the scale the flat
// directory cannot represent — drains a mixed workload with invariants
// intact.
func TestTwoLevelLargeMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("large machine stress")
	}
	cfg := meshClusterConfig(SwiftDir, 64, 8, 8, 4)
	runConcurrentWorkload(t, cfg, 31337, 60)
}
