package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// twoSockets places cfg on a 2-socket machine: a 2x1 mesh with one
// router per socket, whose one hop costs penalty. The first half of the
// L1s and of the banks sit on socket 0, the rest on socket 1.
func twoSockets(cfg *SystemConfig, penalty sim.Cycle) {
	cfg.Topology = "mesh"
	cfg.MeshW, cfg.MeshH = 2, 1
	cfg.MeshPerHop = penalty
}

// numaConfig builds a 2-socket, 4-core machine: L1 ports {0,1} on socket
// 0, {2,3} on socket 1 (with the I-cache-free raw coherence layout, each
// port is a core), and bank b on socket b.
func numaConfig(p Policy) SystemConfig {
	cfg := testConfig(p, 4)
	cfg.Banks = 2
	twoSockets(&cfg, 40)
	return cfg
}

func TestNUMALocalVsRemoteSocketLatency(t *testing.T) {
	// Identical cold loads of the same bank-0 block, from a socket-local
	// and a cross-socket core, on fresh systems (so the DRAM state
	// matches exactly).
	local := MustNewSystem(numaConfig(MESI)).AccessSync(0, 0x10000, false, false, 0)
	remote := MustNewSystem(numaConfig(MESI)).AccessSync(2, 0x10000, false, false, 0)
	if remote.Latency <= local.Latency {
		t.Fatalf("cross-socket load %d not slower than local %d", remote.Latency, local.Latency)
	}
	// Two hops (request + response), each +40.
	if remote.Latency != local.Latency+2*40 {
		t.Fatalf("cross-socket delta = %d, want 80", remote.Latency-local.Latency)
	}
}

// The NUMA dimension of the channel: under MESI the receiver's probe
// latency reveals WHICH SOCKET the prior accessor was on (the forward
// path's length differs), leaking locality information beyond the E/S
// bit. Under SwiftDir the probe is served by the (fixed) home bank, so
// the latency is independent of who accessed the data before.
func TestNUMASocketLocationChannel(t *testing.T) {
	probe := func(p Policy, owner int) sim.Cycle {
		s := MustNewSystem(numaConfig(p))
		block := cache.Addr(0x20000) // bank 0, socket 0
		s.AccessSync(owner, block, false, true, 0)
		s.Quiesce()
		r := s.AccessSync(1, block, false, true, 0) // receiver on socket 0
		return r.Latency
	}

	// MESI: owner on socket 0 (core 0) vs socket 1 (core 2).
	near := probe(MESI, 0)
	far := probe(MESI, 2)
	if far <= near {
		t.Fatalf("MESI: far-owner probe %d not slower than near-owner %d (no locality leak?)", far, near)
	}

	// SwiftDir: identical regardless of the prior accessor's socket.
	sdNear := probe(SwiftDir, 0)
	sdFar := probe(SwiftDir, 2)
	if sdNear != sdFar {
		t.Fatalf("SwiftDir NUMA probe differs: %d vs %d", sdNear, sdFar)
	}
}

// NUMA timing must not break any invariant under concurrent stress.
func TestNUMAStress(t *testing.T) {
	for _, p := range []Policy{MESI, SwiftDir, SMESI, MOESI, MESIF} {
		cfg := numaConfig(p)
		cfg.LLCParams = cache.Params{Name: "LLC", SizeBytes: 4 << 10, Ways: 4, BlockSize: 64}
		s := MustNewSystem(cfg)
		for i := 0; i < 1000; i++ {
			s.Submit(i%4, Access{
				Addr:  cache.Addr(0x100000 + (i%32)*64),
				Write: i%4 == 0,
				WP:    i%3 == 0 && i%4 != 0,
				Value: uint64(i),
			})
		}
		s.Eng.RunBounded(80_000_000)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

func TestSocketOfMapping(t *testing.T) {
	net := MustNewSystem(numaConfig(MESI)).net
	// L1 ports 0,1 -> socket 0; 2,3 -> socket 1; banks (ports 4,5) one
	// per socket.
	for port, want := range []int{0, 0, 1, 1, 0, 1} {
		if got := net.RouterOfPort(port); got != want {
			t.Errorf("port %d on socket %d, want %d", port, got, want)
		}
	}
}
