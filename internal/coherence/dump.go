package coherence

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
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
	opBankFetchIssue: "BankFetchIssue", opBankInstall: "BankInstall",
	opHubUp: "HubUp", opHubDown: "HubDown",
	opHubInv: "HubInv", opBankSendStageHub: "BankSendStageHub",
	opL1Arrive: "L1Arrive",
}

// msgCarrying reports whether op's payload encodes a full Msg (so the
// dump can decode it with msgFromPayload).
func msgCarrying(op uint8) bool {
	switch op {
	case opL1Recv, opL1DataRetry, opBankDispatch, opBankSendStage,
		opHubUp, opHubDown, opHubInv, opBankSendStageHub:
		return true
	}
	return false
}

// handlerName renders an event handler for the dump: this system's L1s,
// banks and hubs by role, anything else by type.
func (s *System) handlerName(h sim.Handler) string {
	id, banksEnd := s.handlerID(h), s.numL1+len(s.banks)
	switch {
	case id < 0:
		return fmt.Sprintf("%T", h)
	case id < s.numL1:
		return fmt.Sprintf("L1(%d)", id)
	case id < banksEnd:
		return fmt.Sprintf("bank(%d)", id-s.numL1)
	}
	return fmt.Sprintf("hub(%d)", id-banksEnd)
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

	renderEvent := func(rel sim.Cycle, h sim.Handler, p sim.Payload) {
		name := "?"
		if int(p.Op) < len(opNames) && opNames[p.Op] != "" {
			name = opNames[p.Op]
		}
		fmt.Fprintf(&sb, "  +%-6d %-9s %-17s", rel, s.handlerName(h), name)
		if msgCarrying(p.Op) {
			m := msgFromPayload(p)
			fmt.Fprintf(&sb, " %s %#x src=%s", m.Kind, uint64(m.Addr), endpoint(m.Src))
			// Z names where a message in transit is headed: an L1, or a
			// hub by cluster. Every other op's handler is its receiver.
			switch p.Op {
			case opL1Recv, opBankSendStage, opHubDown:
				fmt.Fprintf(&sb, " dst=%s", endpoint(int(p.Z)))
			case opBankSendStageHub, opHubInv:
				fmt.Fprintf(&sb, " dst=hub(%d)", p.Z)
			}
		} else {
			fmt.Fprintf(&sb, " A=%#x B=%#x X=%d Z=%d", p.A, p.B, p.X, p.Z)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "-- pending events (%d, execution order) --\n", s.Eng.Pending())
	s.Eng.ForEachPending(renderEvent)

	sb.WriteString("-- directory transient transactions --\n")
	for _, b := range s.banks {
		for _, k := range sortedKeys(&b.busy) {
			t, _ := b.busy.Get(k)
			fmt.Fprintf(&sb, "  bank %d %#x: req=%s src=%s waitUnblock=%v waitWB=%v waitAcks=%d pendKind=%d queued=%d\n",
				b.id, k, t.req.Kind, endpoint(t.req.Src),
				t.waitUnblock, t.waitWB, t.waitAcks, t.pendKind, len(t.queued))
		}
	}
	for _, b := range s.banks {
		for _, addr := range b.pinnedAddrs() {
			fmt.Fprintf(&sb, "  bank %d %#x: pinned x%d\n", b.id, uint64(addr), b.entry(addr).Pins)
		}
	}
	if s.twoLevel {
		sb.WriteString("-- hub records --\n")
		for _, h := range s.hubs {
			for _, k := range h.trackedKeys() {
				pending, _ := h.pending.Get(k)
				fmt.Fprintf(&sb, "  hub %d %#x: record=%#x pending=%d upReqs=%d\n",
					h.id, k, h.recordOf(cache.Addr(k)), pending, h.upReqsOf(cache.Addr(k)))
			}
		}
	}

	sb.WriteString("-- L1 MSHR / writeback state --\n")
	for _, l1 := range s.L1s {
		for _, k := range sortedKeys(&l1.mshrs) {
			ms, _ := l1.mshrs.Get(k)
			fmt.Fprintf(&sb, "  L1 %d MSHR %#x: %s wp=%v pending=%d\n",
				l1.ID, k, ms.state, ms.wp, len(ms.pending))
		}
		for _, k := range sortedKeys(&l1.wb) {
			e, _ := l1.wb.Get(k)
			fmt.Fprintf(&sb, "  L1 %d WB %#x: data=%#x dirty=%v\n",
				l1.ID, k, e.data, e.dirty)
		}
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
// metamorphic soak asserts. Each block hashes as the line
// "<address> <value>\n", both in lowercase hex.
func (s *System) MemImageHash() string {
	h := sha256.New()
	var buf []byte
	for _, bv := range s.MemValues() {
		buf = strconv.AppendUint(buf, uint64(bv.Addr), 16)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, bv.Value, 16)
		buf = append(buf, '\n')
		if len(buf) >= 4096 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// BlockValue is one block of the architectural memory image.
type BlockValue struct {
	Addr  cache.Addr
	Value uint64
}

// MemValues returns the winning value of every block that has diverged
// from its initial address-derived token, in ascending address order:
// the dirty L1 copy if one exists, else the LLC copy, else the
// main-memory shadow. This is the per-physical-block architectural
// image; core.Machine.ArchMemHash re-keys it by virtual address for the
// machine-level soak oracle, where physical-frame assignment is itself
// timing-dependent.
func (s *System) MemValues() []BlockValue {
	// Every copy of every block, ranked by precedence: the memory shadow,
	// then the LLC, then L1 i's dirty copy at 2+i. Sorted by address and
	// rank, each block's winning copy ends its run.
	type ranked struct {
		BlockValue
		rank int32
	}
	n := 0
	for _, b := range s.banks {
		n += b.image.Len() + b.arr.CountValid()
	}
	for _, l1 := range s.L1s {
		n += l1.arr.CountValid()
	}
	all := make([]ranked, 0, n)
	for _, b := range s.banks {
		b.image.ForEach(func(k, v uint64) {
			all = append(all, ranked{BlockValue{cache.Addr(k), v}, 0})
		})
	}
	for _, b := range s.banks {
		b.arr.ForEachValid(func(a cache.Addr, ln *cache.Line) {
			all = append(all, ranked{BlockValue{a, ln.Data}, 1})
		})
	}
	for i, l1 := range s.L1s {
		l1.arr.ForEachValid(func(a cache.Addr, ln *cache.Line) {
			if ln.State.Dirty() {
				all = append(all, ranked{BlockValue{a, ln.Data}, 2 + int32(i)})
			}
		})
	}
	slices.SortFunc(all, func(x, y ranked) int {
		if c := cmp.Compare(x.Addr, y.Addr); c != 0 {
			return c
		}
		return cmp.Compare(x.rank, y.rank)
	})
	vals := make([]BlockValue, 0, len(all))
	for i, c := range all {
		if i+1 < len(all) && all[i+1].Addr == c.Addr {
			continue
		}
		if c.Value != initialToken(c.Addr) {
			vals = append(vals, c.BlockValue)
		}
	}
	return vals
}
