package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/intmap"
	"repro/internal/sim"
)

// hub is a cluster-level directory: the middle tier of the two-level
// organization (SystemConfig.Clusters). Each cluster's L1 traffic funnels
// through its hub, which keeps an exact record of which locals hold each
// block, so the home directory only needs one sharer bit per CLUSTER —
// lifting the flat 64-sharer limit to 64 clusters x 64 locals.
//
// The hub never resolves a protocol table entry: it is routing plus local
// bookkeeping. Upward it filters evictions (a PUTS from a non-last holder
// is absorbed; only the cluster's last eviction reaches the home) and
// aggregates invalidation acks (the home sends ONE Inv per sharer cluster
// and receives ONE ack back). Downward it records grants and forwards.
//
// The home's cluster bits are deliberately conservative: whenever a grant
// for a block is still in flight into the cluster (upReqs > 0), the hub
// cannot decide "cluster empty", so it absorbs the eviction notice (or
// suppresses the PUTX ClusterLast flag) and leaves the home's bit set. An
// invalidation that later reaches an actually-empty cluster is acked
// immediately on the cluster's behalf. Exact clearing in that window
// would race the in-flight grant and silently orphan the new holder.
type hub struct {
	id     int
	sys    *System
	engine *sim.Engine

	// record tracks, per block, exactly which locals hold the block in
	// any valid state (bit = global id minus the cluster base).
	record intmap.Map[uint64]

	// pending counts outstanding local Inv acks per block while the hub
	// aggregates a home-directory invalidation.
	pending intmap.Map[int]

	// upReqs counts in-flight requests (GETS/GETS_WP/GETX/Upgrade) this
	// hub has forwarded toward a home bank and whose grant has not yet
	// been delivered back into the cluster. Nonzero makes "cluster
	// empty" undecidable at the hub, turning eviction filtering
	// conservative (see the type comment).
	upReqs intmap.Map[int]

	// faultFree is the injected-busy-window release ledger: no message may
	// dispatch before it. Serializing delayed messages behind it keeps the
	// hub's input FIFO — a message that drew no delay cannot overtake an
	// earlier one still parked, which would reorder a cluster's writeback
	// against its own follow-up request and break the blocking protocol.
	faultFree sim.Cycle
}

func newHub(id int, sys *System) *hub {
	return &hub{id: id, sys: sys, engine: sys.Eng}
}

// recordOf returns the block's record (zero when absent); upReqsOf the
// block's in-flight up-request count.
func (h *hub) recordOf(addr cache.Addr) uint64 {
	rec, _ := h.record.Get(uint64(addr))
	return rec
}

func (h *hub) upReqsOf(addr cache.Addr) int {
	n, _ := h.upReqs.Get(uint64(addr))
	return n
}

// setRecord stores a block's record, dropping it when empty.
func (h *hub) setRecord(addr cache.Addr, rec uint64) {
	if rec != 0 {
		h.record.Set(uint64(addr), rec)
	} else {
		h.record.Delete(uint64(addr))
	}
}

// base returns the cluster's first global L1 id.
func (h *hub) base() int { return h.id * h.sys.localsPer }

// localBit returns the record bit for a global L1 id in this cluster.
func (h *hub) localBit(l1 int) uint64 { return 1 << uint(l1-h.base()) }

// port returns the hub's fabric port.
func (h *hub) port() int { return h.sys.hubPort(h.id) }

// Handle dispatches the hub's payload events (see the op constants in
// message.go). With a fault injector attached, each message first rolls
// the hub busy-window class: a nonzero draw parks the message, marked
// pfHubParked, until the hub is free again, modeling a transiently busy
// hub that queues its input. A parked message re-enters Handle without
// rolling again, and the mark is cleared before dispatch, so the roll
// happens exactly once per message — a never-closing storm window must
// delay each message once, not orbit it forever. The faultFree ledger
// makes the delay FIFO-preserving: later messages — even ones drawing no
// delay of their own — release no earlier than everything parked before
// them, and the engine's (cycle, insertion-order) tie-break keeps
// same-cycle releases in arrival order. That matters for correctness,
// not just fidelity: a cluster's request overtaking its own earlier
// writeback through the hub would present the home directory with an
// owner re-requesting a block it still holds.
func (h *hub) Handle(p sim.Payload) {
	if p.F&pfHubParked != 0 {
		p.F &^= pfHubParked
	} else if f := h.sys.faults; f != nil {
		now := h.engine.Now()
		release := now + f.HubDelay(h.id, now)
		if release < h.faultFree {
			release = h.faultFree
		}
		if release > now {
			h.faultFree = release
			p.F |= pfHubParked
			h.engine.ScheduleEvent(release-now, h, p)
			return
		}
	}
	switch p.Op {
	case opHubUp:
		h.up(p)
	case opHubDown:
		h.down(p)
	case opHubInv:
		h.inv(p)
	default:
		h.violate(cache.Addr(p.A), "unknown payload op %d", p.Op)
	}
}

// up filters and forwards an L1's upward message.
func (h *hub) up(p sim.Payload) {
	addr := cache.Addr(p.A)
	src := int(p.X)
	switch MsgKind(p.K) {
	case MsgPUTS:
		rec := h.recordOf(addr) &^ h.localBit(src)
		h.setRecord(addr, rec)
		if rec != 0 {
			return // other locals still hold the block: absorbed
		}
		if h.upReqsOf(addr) > 0 {
			// A grant in flight will repopulate the cluster, so the home
			// must keep its sharer bit. PUTS is fire-and-forget, so
			// absorbing it is legal.
			return
		}
		// Cluster empty for good: the home clears this cluster's bit.
		h.toHome(p)
	case MsgPUTX:
		rec := h.recordOf(addr) &^ h.localBit(src)
		h.setRecord(addr, rec)
		if rec == 0 && h.upReqsOf(addr) == 0 {
			p.F |= pfClusterLast
		}
		// Always forwarded: the evictor blocks on the home's WB_Ack.
		h.toHome(p)
	case MsgInvAck:
		n := h.pending.Ptr(uint64(addr))
		if n == nil {
			h.violate(addr, "Inv_Ack without pending invalidation")
		}
		if *n--; *n > 0 {
			return
		}
		h.pending.Delete(uint64(addr))
		// Last local ack: one aggregate ack represents the cluster.
		h.toHome(p)
	case MsgGETS, MsgGETSWP, MsgGETX, MsgUpgrade:
		*h.upReqs.Put(uint64(addr))++
		h.toHome(p)
	default:
		// Unblock, Exclusive_Unblock, WB_Data: pure pass-through.
		h.toHome(p)
	}
}

// down records and delivers a home/owner message to a local L1 (Z = dst).
func (h *hub) down(p sim.Payload) {
	addr := cache.Addr(p.A)
	dst := int(p.Z)
	switch MsgKind(p.K) {
	case MsgData, MsgDataExclusive, MsgDataFromOwner, MsgUpgradeAck:
		*h.record.Put(uint64(addr)) |= h.localBit(dst)
		h.grantDelivered(addr)
	case MsgFwdGETX:
		// The local surrenders its copy to the requestor on receipt (a
		// copy already parked in its writeback buffer cleared the bit
		// when its PUTX passed through).
		h.clearBit(addr, dst)
	}
	p.Op = opL1Recv
	h.sys.net.SendEvent(h.port(), dst, h.sys.L1s[dst], p)
}

// inv multicasts a home invalidation to the recorded locals and arms the
// ack aggregation; an empty cluster is acked immediately.
func (h *hub) inv(p sim.Payload) {
	addr := cache.Addr(p.A)
	targets := h.recordOf(addr)
	if targets == 0 {
		// The home's sharer bit was conservative (the cluster emptied
		// under an in-flight grant, or the grant itself raced the
		// invalidation's transaction): ack on the cluster's behalf.
		ack := Msg{Kind: MsgInvAck, Addr: addr, Src: h.base(), Requestor: int(p.Y)}
		h.toHome(ack.payload(opBankDispatch))
		return
	}
	if h.pending.Has(uint64(addr)) {
		h.violate(addr, "overlapping invalidations")
	}
	h.record.Delete(uint64(addr))
	h.pending.Set(uint64(addr), bits.OnesCount64(targets))
	p.Op = opL1Recv
	base := h.base()
	for lid := 0; targets != 0; lid++ {
		if targets&1 != 0 {
			dst := base + lid
			p.Z = int32(dst)
			h.sys.net.SendEvent(h.port(), dst, h.sys.L1s[dst], p)
		}
		targets >>= 1
	}
}

// toHome forwards a payload to the block's home bank for dispatch.
func (h *hub) toHome(p sim.Payload) { h.sys.toHome(h.port(), p) }

// clearBit clears one local's record bit, dropping empty entries.
func (h *hub) clearBit(addr cache.Addr, l1 int) {
	h.setRecord(addr, h.recordOf(addr)&^h.localBit(l1))
}

// grantDelivered retires one answered up-request.
func (h *hub) grantDelivered(addr cache.Addr) {
	n := h.upReqs.Ptr(uint64(addr))
	if n == nil {
		h.violate(addr, "grant delivered without an in-flight request")
	}
	if *n--; *n == 0 {
		h.upReqs.Delete(uint64(addr))
	}
}

// violate panics with a typed, contained protocol violation (see
// bank.violate). It never returns.
func (h *hub) violate(addr cache.Addr, format string, args ...any) {
	panic(&fault.Violation{
		Kind:      fault.KindProtocol,
		Cycle:     uint64(h.engine.Now()),
		Component: fmt.Sprintf("hub %d", h.id),
		Addr:      uint64(addr),
		Msg:       fmt.Sprintf(format, args...),
		Dump:      h.sys.DumpState(),
	})
}
