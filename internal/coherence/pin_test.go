package coherence

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// A pin outliving its grant bars the block from LLC victim selection for
// the rest of the run; at quiescence every grant has landed, so any pin
// left behind is a leak CheckInvariants must report.
func TestCheckInvariantsReportsLeakedPin(t *testing.T) {
	s := newTestSystem(t, SMESI, 2)
	s.AccessSync(0, blockA, false, false, 0)
	s.AccessSync(0, blockA, true, false, 1) // E -> M: Upgrade, Upgrade_ACK
	quiesceAndCheck(t, s)
	s.bankFor(blockA).pinned[blockA]++
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("CheckInvariants = %v, want a leaked-pin report", err)
	}
}

// Releasing a pin that was never taken is a protocol violation, not a
// silent no-op.
func TestUnpinWithoutPinViolates(t *testing.T) {
	s := newTestSystem(t, MESI, 2)
	defer func() {
		r := recover()
		if v := fault.AsViolation(r); v == nil || v.Kind != fault.KindProtocol || v.Msg != "unpin of an unpinned block" {
			t.Fatalf("recovered %v, want an unpin protocol violation", r)
		}
	}()
	s.bankFor(blockA).unpin(blockA)
}

// An Upgrade_ACK is pinned from the event that sends it until the event
// that hands it to the L1, and released in that event: flat, the grant
// waits one bank-stage event; two-level, the stage and the destination's
// hub.
func TestUpgradeAckPinHeldUntilDelivery(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SystemConfig
		held int // events run while the grant was in flight
	}{
		{"flat", testConfig(SMESI, 2), 1},
		{"two-level", clusterTestConfig(SMESI, 2, 2), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := MustNewSystem(tc.cfg)
			s.AccessSync(1, blockA, false, false, 0) // E at L1 1
			s.Quiesce()
			b := s.bankFor(blockA)
			tr := s.AttachTracer()
			s.Submit(1, Access{Addr: blockA, Write: true, Value: 1})
			held, acked := 0, false
			for s.Eng.Step() {
				upgraded := tr.Count(MsgUpgrade) == 1
				landed := tr.Count(MsgUpgradeAck) == 1
				pins := b.pinned[blockA]
				switch {
				case landed && !acked:
					acked = true
					e := tr.Events[len(tr.Events)-1]
					if e.Msg.Kind != MsgUpgradeAck || e.Dst != 1 {
						t.Fatalf("grant event delivered %v to %d, want Upgrade_ACK to L1 1", e.Msg.Kind, e.Dst)
					}
					if pins != 0 {
						t.Fatalf("pin still held (x%d) after the L1 received the grant", pins)
					}
				case landed:
					if pins != 0 {
						t.Fatalf("pin re-taken (x%d) after delivery", pins)
					}
				case upgraded:
					if pins != 1 {
						t.Fatalf("grant in flight with %d pins, want 1", pins)
					}
					held++
				default:
					if pins != 0 {
						t.Fatalf("block pinned (x%d) before the bank saw the Upgrade", pins)
					}
				}
			}
			if !acked {
				t.Fatal("Upgrade_ACK never delivered")
			}
			// The Upgrade's own dispatch event takes the pin.
			if held-1 != tc.held {
				t.Errorf("grant in flight across %d events, want %d", held-1, tc.held)
			}
			quiesceAndCheck(t, s)
		})
	}
}

// stepUntilPending steps s until a pending event satisfies match, failing
// if the engine drains first.
func stepUntilPending(t *testing.T, s *System, match func(h sim.Handler, p sim.Payload) bool) {
	t.Helper()
	for {
		found := false
		s.Eng.ForEachPending(func(_ sim.Cycle, h sim.Handler, p sim.Payload, isClosure bool) {
			found = found || (!isClosure && match(h, p))
		})
		if found {
			return
		}
		if !s.Eng.Step() {
			t.Fatal("engine drained before the awaited event was pending")
		}
	}
}

// dumpLine returns the dump's pending-event line naming op, or "".
func dumpLine(dump, op string) string {
	for _, ln := range strings.Split(dump, "\n") {
		if strings.Contains(ln, " "+op+" ") {
			return ln
		}
	}
	return ""
}

// DumpState names the destination of every message in transit, L1 0
// included (its id is the zero value of the payload's Z).
func TestDumpStateNamesL1Zero(t *testing.T) {
	s := newTestSystem(t, MESI, 2)
	s.Submit(0, Access{Addr: blockA})
	stepUntilPending(t, s, func(h sim.Handler, p sim.Payload) bool {
		return h == s.L1s[0] && p.Op == opL1Recv
	})
	ln := dumpLine(s.DumpState(), "L1Recv")
	if !strings.Contains(ln, "Data_Exclusive") || !strings.Contains(ln, "dst=L1(0)") {
		t.Fatalf("grant line %q does not name dst=L1(0)", ln)
	}
	quiesceAndCheck(t, s)
}

// A two-level Inv travels to a hub by cluster, then to the hub's locals:
// the dump names the hub as hub(c), then each L1.
func TestDumpStateNamesHubDestination(t *testing.T) {
	s := MustNewSystem(clusterTestConfig(MESI, 4, 2))
	s.AccessSync(2, blockA, false, false, 0)
	s.AccessSync(3, blockA, false, false, 0) // cluster 1 shares the block
	s.Quiesce()
	s.Submit(0, Access{Addr: blockA, Write: true, Value: 1})
	stepUntilPending(t, s, func(h sim.Handler, p sim.Payload) bool {
		return h == s.hubs[1] && p.Op == opHubInv
	})
	if ln := dumpLine(s.DumpState(), "HubInv"); !strings.Contains(ln, "Inv") || !strings.Contains(ln, "dst=hub(1)") {
		t.Fatalf("hub Inv line %q does not name dst=hub(1)", ln)
	}
	stepUntilPending(t, s, func(h sim.Handler, p sim.Payload) bool {
		return h == s.L1s[2] && p.Op == opL1Recv
	})
	if ln := dumpLine(s.DumpState(), "L1Recv"); !strings.Contains(ln, "Inv") || !strings.Contains(ln, "dst=L1(2)") {
		t.Fatalf("multicast Inv line %q does not name dst=L1(2)", ln)
	}
	quiesceAndCheck(t, s)
}
