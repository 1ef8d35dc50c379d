package coherence

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/sim"
)

// msgTailN sizes the delivered-message ring kept for failure diagnostics.
// Power of two; 32 messages comfortably covers the transcript of the
// transactions implicated in any single violation.
const msgTailN = 32

// opNames renders the shared L1/bank payload-op namespace (message.go).
var opNames = [...]string{
	opL1Recv: "L1Recv", opL1Process: "L1Process", opL1ProcessMiss: "L1ProcessMiss",
	opL1DataRetry: "L1DataRetry", opL1Respond: "L1Respond", opL1RespondRetained: "L1RespondRetained",
	opBankDispatch: "BankDispatch", opBankSendStage: "BankSendStage",
	opBankSendStagePin: "BankSendStagePin", opBankDeliverPin: "BankDeliverPin",
	opBankFetchIssue: "BankFetchIssue", opBankInstall: "BankInstall",
	opHubUp: "HubUp", opHubDown: "HubDown", opHubDownPin: "HubDownPin",
	opHubInv: "HubInv", opBankSendStageHub: "BankSendStageHub",
}

// msgCarrying reports whether op's payload encodes a full Msg (so the
// dump can decode it with msgFromPayload).
func msgCarrying(op uint8) bool {
	switch op {
	case opL1Recv, opL1DataRetry, opBankDispatch, opBankSendStage, opBankSendStagePin, opBankDeliverPin,
		opHubUp, opHubDown, opHubDownPin, opHubInv, opBankSendStageHub:
		return true
	}
	return false
}

// handlerName renders an event handler for the dump: this system's L1s,
// banks, and fast-path completions by role, anything else by type.
func (s *System) handlerName(h sim.Handler) string {
	switch v := h.(type) {
	case *L1:
		if v.sys == s {
			return fmt.Sprintf("L1(%d)", v.ID)
		}
	case *bank:
		if v.sys == s {
			return fmt.Sprintf("bank(%d)", v.id)
		}
	case *System:
		if v == s {
			return "system"
		}
	case *hub:
		if v.sys == s {
			return fmt.Sprintf("hub(%d)", v.id)
		}
	}
	return fmt.Sprintf("%T", h)
}

// DumpState renders the structured failure diagnostic the issue's
// containment story is built on: the complete pending-event queue, every
// directory transient transaction, pinned grants, per-L1 MSHR and
// writeback-buffer state, and the tail of delivered coherence messages.
// Iteration is in canonical (sorted) order throughout, so a deterministic
// replay reproduces the dump byte for byte. Failure-path only — it
// allocates freely.
func (s *System) DumpState() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== system state at cycle %d ===\n", s.Eng.Now())

	renderEvent := func(rel sim.Cycle, h sim.Handler, p sim.Payload, isClosure bool) {
		if isClosure {
			fmt.Fprintf(&sb, "  +%-6d closure\n", rel)
			return
		}
		name := "?"
		if _, isSys := h.(*System); isSys && p.Op == sysOpFastDone {
			name = "SysFastDone"
		} else if int(p.Op) < len(opNames) && opNames[p.Op] != "" {
			name = opNames[p.Op]
		}
		fmt.Fprintf(&sb, "  +%-6d %-9s %-17s", rel, s.handlerName(h), name)
		if msgCarrying(p.Op) {
			m := msgFromPayload(p)
			fmt.Fprintf(&sb, " %s %#x src=%s", m.Kind, uint64(m.Addr), endpoint(m.Src))
			if p.Z != 0 || p.Op == opBankSendStage || p.Op == opBankSendStagePin || p.Op == opBankDeliverPin {
				fmt.Fprintf(&sb, " dst=%s", endpoint(int(p.Z)))
			}
		} else {
			fmt.Fprintf(&sb, " A=%#x B=%#x X=%d Z=%d", p.A, p.B, p.X, p.Z)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "-- pending events (%d, execution order) --\n", s.Eng.Pending())
	s.Eng.ForEachPending(renderEvent)

	sb.WriteString("-- directory transient transactions --\n")
	s.ForEachBusy(func(bank int, addr cache.Addr, v TxnView) {
		fmt.Fprintf(&sb, "  bank %d %#x: req=%s src=%s waitUnblock=%v waitWB=%v waitAcks=%d pendKind=%d queued=%d\n",
			bank, uint64(addr), v.Req.Kind, endpoint(v.Req.Src),
			v.WaitUnblock, v.WaitWB, v.WaitAcks, v.PendKind, len(v.Queued))
	})
	s.ForEachPinned(func(bank int, addr cache.Addr, n int) {
		fmt.Fprintf(&sb, "  bank %d %#x: pinned x%d\n", bank, uint64(addr), n)
	})
	if s.twoLevel {
		sb.WriteString("-- hub records --\n")
		s.ForEachHubState(func(hub int, addr cache.Addr, record uint64, pending, upReqs int) {
			fmt.Fprintf(&sb, "  hub %d %#x: record=%#x pending=%d upReqs=%d\n",
				hub, uint64(addr), record, pending, upReqs)
		})
	}

	sb.WriteString("-- L1 MSHR / writeback state --\n")
	for _, l1 := range s.L1s {
		l1.ForEachMSHR(func(block cache.Addr, st Transient, wp bool, pending []Access) {
			fmt.Fprintf(&sb, "  L1 %d MSHR %#x: %s wp=%v pending=%d\n",
				l1.ID, uint64(block), st, wp, len(pending))
		})
		l1.ForEachWB(func(block cache.Addr, data uint64, dirty bool) {
			fmt.Fprintf(&sb, "  L1 %d WB %#x: data=%#x dirty=%v\n",
				l1.ID, uint64(block), data, dirty)
		})
	}

	fmt.Fprintf(&sb, "-- last %d delivered messages (oldest first) --\n", msgTailN)
	start := uint64(0)
	if s.msgPos > msgTailN {
		start = s.msgPos - msgTailN
	}
	for i := start; i < s.msgPos; i++ {
		sb.WriteString(s.lastMsgs[i&(msgTailN-1)].String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// MemImageHash hashes the architectural memory state of a quiesced
// system: for every block, the value a fresh load would observe — the
// dirty L1 copy if one exists, else the LLC copy, else the main-memory
// shadow. Blocks still holding their initial address-derived token are
// excluded, so the hash is independent of which never-written blocks
// happen to be cache-resident. Timing faults move blocks between these
// locations but never change the winning value, which is exactly what the
// metamorphic soak asserts.
func (s *System) MemImageHash() string {
	vals := s.MemValues()
	h := sha256.New()
	for _, a := range sortedAddrs(vals) {
		fmt.Fprintf(h, "%x %x\n", uint64(a), vals[a])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MemValues returns the winning value of every block that has diverged
// from its initial address-derived token: the dirty L1 copy if one
// exists, else the LLC copy, else the main-memory shadow. This is the
// per-physical-block architectural image; core.Machine.ArchMemHash
// re-keys it by virtual address for the machine-level soak oracle, where
// physical-frame assignment is itself timing-dependent.
func (s *System) MemValues() map[cache.Addr]uint64 {
	n := 0
	for _, b := range s.banks {
		n += len(b.image)
	}
	vals := make(map[cache.Addr]uint64, n)
	for _, b := range s.banks {
		for a, v := range b.image {
			vals[a] = v
		}
	}
	for _, b := range s.banks {
		b.arr.ForEachValid(func(a cache.Addr, ln *cache.Line) {
			vals[a] = ln.Data
		})
	}
	for _, l1 := range s.L1s {
		l1.arr.ForEachValid(func(a cache.Addr, ln *cache.Line) {
			if ln.State.Dirty() {
				vals[a] = ln.Data
			}
		})
	}
	for a, v := range vals {
		if v == initialToken(a) {
			delete(vals, a)
		}
	}
	return vals
}
