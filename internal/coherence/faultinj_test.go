package coherence

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/sim"
)

// driveMix runs a deterministic multi-core sharing mix and returns the
// per-access values observed plus the final memory-image hash.
func driveMix(t *testing.T, s *System) ([]uint64, string) {
	t.Helper()
	rng := sim.NewRNG(0xD1CE)
	var values []uint64
	for i := 0; i < 600; i++ {
		port := rng.Intn(len(s.L1s))
		addr := cache.Addr(rng.Uint64n(64) * 64)
		write := rng.Bool(0.3)
		r := s.AccessSync(port, addr, write, false, uint64(i)<<8|uint64(port))
		values = append(values, r.Value)
	}
	quiesceAndCheck(t, s)
	return values, s.MemImageHash()
}

// Timing faults must move cycles, never values: the same access sequence
// against a heavily perturbed system yields identical data and an
// identical final memory image.
func TestInjectorPreservesArchitecturalValues(t *testing.T) {
	for _, p := range []Policy{MESI, SMESI, SwiftDir} {
		t.Run(p.Name(), func(t *testing.T) {
			base := newTestSystem(t, p, 4)
			baseVals, baseHash := driveMix(t, base)

			plan := fault.Plan{
				Name: "stress", Seed: 11,
				LinkSpikeProb: 0.2, LinkSpikeMax: 30,
				BankBusyProb: 0.15, BankBusyMax: 12,
				DRAMStallProb: 0.25, DRAMStallMax: 90,
				LinkStorms: []fault.Window{{Start: 500, End: 4_000}},
			}
			cfg := testConfig(p, 4)
			cfg.Faults = fault.MustNewInjector(plan)
			faulty, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			faultyVals, faultyHash := driveMix(t, faulty)

			for i := range baseVals {
				if baseVals[i] != faultyVals[i] {
					t.Fatalf("access %d: value %#x with faults, %#x without", i, faultyVals[i], baseVals[i])
				}
			}
			if baseHash != faultyHash {
				t.Fatalf("memory image diverged: %s vs %s", faultyHash, baseHash)
			}
			if cfg.Faults.Stats.LinkFaults == 0 && cfg.Faults.Stats.BankFaults == 0 && cfg.Faults.Stats.DRAMFaults == 0 {
				t.Fatal("injector never fired; the test perturbed nothing")
			}
			if base.Eng.Now() == faulty.Eng.Now() {
				t.Log("note: fault plan did not move the final cycle (unusual but legal)")
			}
		})
	}
}

// MemImageHash must not depend on which never-written blocks happen to be
// cache-resident, only on written values.
func TestMemImageHashIgnoresCleanResidency(t *testing.T) {
	a := newTestSystem(t, MESI, 2)
	b := newTestSystem(t, MESI, 2)
	for _, s := range []*System{a, b} {
		s.AccessSync(0, blockA, true, false, 0x1111)
	}
	// System b additionally reads (never writes) a disjoint region,
	// changing its cache residency but not any architectural value.
	for i := 0; i < 32; i++ {
		b.AccessSync(1, cache.Addr(0x80000+i*64), false, false, 0)
	}
	a.Quiesce()
	b.Quiesce()
	if ah, bh := a.MemImageHash(), b.MemImageHash(); ah != bh {
		t.Fatalf("clean residency changed the hash: %s vs %s", ah, bh)
	}
}

func TestDumpStateSections(t *testing.T) {
	s := newTestSystem(t, MESI, 2)
	// Put a transaction in flight so the dump has transient state: run
	// until the directory is busy with the miss.
	s.Submit(0, Access{Addr: blockA, Write: true, Value: 7})
	for s.Eng.Step() && s.bankFor(blockA).txnOf(blockA) == nil {
	}
	dump := s.DumpState()
	for _, frag := range []string{
		"=== system state at cycle",
		"-- pending events",
		"-- directory transient transactions --",
		"-- L1 MSHR / writeback state --",
		"delivered messages",
		"GETX",
	} {
		if !strings.Contains(dump, frag) {
			t.Errorf("dump missing %q:\n%s", frag, dump)
		}
	}
	if !strings.Contains(dump, "MSHR") {
		t.Errorf("dump missing MSHR line:\n%s", dump)
	}
	s.Quiesce()
}

// A protocol-illegal delivery must surface as a typed *fault.Violation
// carrying cycle, component, address, and a non-empty dump.
func TestProtocolPanicIsTypedViolation(t *testing.T) {
	s := newTestSystem(t, MESI, 2)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		// UpgradeAck with no outstanding MSHR: impossible under the
		// protocol, exactly what the containment layer must catch.
		s.L1s[0].Receive(Msg{Kind: MsgUpgradeAck, Addr: blockA, Src: DirID})
	}()
	v := fault.AsViolation(recovered)
	if v == nil {
		t.Fatalf("recovered %v (%T), want *fault.Violation", recovered, recovered)
	}
	if v.Kind != fault.KindProtocol || v.Component != "L1 0" || v.Addr != uint64(blockA) {
		t.Errorf("violation = %+v", v)
	}
	if !strings.Contains(v.Dump, "=== system state at cycle") {
		t.Errorf("violation dump missing system state:\n%s", v.Dump)
	}
	if !strings.Contains(v.Error(), "Upgrade_ACK in state I is illegal") {
		t.Errorf("Error() = %q", v.Error())
	}
}

// The bank-side conversion: WB_Data for an idle block.
func TestBankPanicIsTypedViolation(t *testing.T) {
	s := newTestSystem(t, MESI, 2)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		s.banks[0].dispatch(Msg{Kind: MsgWBData, Addr: blockA, Src: 0})
	}()
	v := fault.AsViolation(recovered)
	if v == nil {
		t.Fatalf("recovered %v, want *fault.Violation", recovered)
	}
	if v.Kind != fault.KindProtocol || v.Component != "bank 0" {
		t.Errorf("violation = %+v", v)
	}
}

// dumpSet renders every way of the target set with its eviction status —
// the diagnostic attached to resource-exhaustion violations.
func TestDumpSetRendersWays(t *testing.T) {
	s := newTestSystem(t, MESI, 2)
	s.AccessSync(0, blockA, false, false, 0)
	s.Quiesce()
	b := s.bankFor(blockA)
	out := b.dumpSet(blockA)
	if !strings.Contains(out, "install target") || !strings.Contains(out, "evictable") {
		t.Errorf("dumpSet output:\n%s", out)
	}
}

// A zero-value injector plan attached to a system must not change a
// single cycle relative to no injector at all.
func TestNilPlanInjectorIsTransparent(t *testing.T) {
	base := newTestSystem(t, MESI, 2)
	cfg := testConfig(MESI, 2)
	cfg.Faults = fault.MustNewInjector(fault.Plan{Name: "empty"})
	inj, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*System{base, inj} {
		s.AccessSync(0, blockA, true, false, 1)
		s.AccessSync(1, blockA, false, false, 0)
		s.Quiesce()
	}
	if base.Eng.Now() != inj.Eng.Now() {
		t.Fatalf("zero plan moved time: %d vs %d", inj.Eng.Now(), base.Eng.Now())
	}
	if base.Eng.Executed() != inj.Eng.Executed() {
		t.Fatalf("zero plan changed event count: %d vs %d", inj.Eng.Executed(), base.Eng.Executed())
	}
}

// A message a hub parks for an injected busy window stays the hub's
// event: the dump names it hub(c) and the fingerprint gives it hub c's
// role, so parked messages at different hubs are told apart. A storm that
// never closes delays each message once, so the system still drains.
func TestParkedHubMessageKeepsItsHub(t *testing.T) {
	cfg := clusterTestConfig(MESI, 8, 4)
	inj := fault.MustNewInjector(fault.Plan{
		Name: "hub-storm", Seed: 1, HubBusyMax: 50, HubStorms: []fault.Window{{Start: 0}},
	})
	cfg.Faults = inj
	s := MustNewSystem(cfg)
	// Core 6 lives in cluster 3: its GETS is parked at hub 3.
	s.Submit(6, Access{Addr: blockA})
	for s.Eng.Step() && inj.Stats.HubFaults == 0 {
	}
	parked := 0
	s.Eng.ForEachPending(func(_ sim.Cycle, h sim.Handler, p sim.Payload) {
		if p.Op != opHubUp {
			return
		}
		parked++
		if got, want := s.handlerID(h), s.handlerID(s.hubs[3]); got != want {
			t.Errorf("parked HubUp has handler role %d, want hub 3's %d", got, want)
		}
	})
	if parked != 1 {
		t.Fatalf("%d pending HubUp events, want the one parked message", parked)
	}
	dump := s.DumpState()
	found := false
	for _, line := range strings.Split(dump, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[2] == "HubUp" {
			found = true
			if f[1] != "hub(3)" {
				t.Errorf("parked message rendered as %q, want hub(3):\n%s", f[1], line)
			}
		}
	}
	if !found {
		t.Fatalf("dump lists no pending HubUp:\n%s", dump)
	}
	s.Eng.RunBounded(1_000_000)
	if n := s.Eng.Pending(); n != 0 {
		t.Fatalf("%d events still pending under a never-closing hub storm", n)
	}
	quiesceAndCheck(t, s)
}
