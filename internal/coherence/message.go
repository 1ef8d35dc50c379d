// Package coherence implements the two-level directory-based cache
// coherence protocols the paper studies: the MESI baseline, the S-MESI
// defense (Yao et al.), and SwiftDir. One shared state-machine
// implementation — a per-core L1 controller and a banked LLC/directory
// controller — is specialized by a Policy, a value of feature settings
// that captures exactly the three behavioural differences of Table IV:
//
//   - whether a store to an E-state L1 line upgrades silently (MESI,
//     SwiftDir) or must synchronize the M state with the LLC (S-MESI);
//   - whether the initial load of a block is granted exclusivity (always
//     in MESI/S-MESI; only for non-write-protected data in SwiftDir,
//     whose GETS_WP request pins write-protected data in state S);
//   - whether a GETS that hits a directory-E block is served directly
//     from the LLC (S-MESI, where E is known clean) or must be forwarded
//     three-hop to the owner (MESI/SwiftDir, where E may hide a silent
//     upgrade).
//
// The message vocabulary mirrors the paper's Table III.
package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/sim"
)

// MsgKind enumerates coherence events exchanged between L1 controllers and
// the directory (Table III), plus the writeback/invalidation plumbing the
// table summarizes under generic ACKs.
type MsgKind uint8

const (
	// L1 -> LLC requests.
	MsgGETS             MsgKind = iota // load miss
	MsgGETSWP                          // load miss for write-protected data (SwiftDir only)
	MsgGETX                            // store miss
	MsgUpgrade                         // store hit on S (all) or E (S-MESI) needing permission
	MsgPUTS                            // clean sharer eviction notice
	MsgPUTX                            // owner eviction writeback (clean or dirty)
	MsgUnblock                         // requestor received Data; directory may unblock
	MsgExclusiveUnblock                // requestor received Data_Exclusive
	MsgInvAck                          // sharer finished invalidating
	MsgWBData                          // owner's copy sent down on a forwarded GETS (WB_Data / WB_Data_Clean)

	// LLC -> L1 responses and demands.
	MsgData          // shared data grant
	MsgDataExclusive // exclusive data grant
	MsgUpgradeAck    // upgrade permission granted
	MsgInv           // invalidate your S copy
	MsgFwdGETS       // serve this load on behalf of the directory
	MsgFwdGETX       // surrender your copy to the requestor
	MsgDowngrade     // S-MESI: your E copy is now S (LLC served a sharer)
	MsgWBAck         // eviction acknowledged

	// L1 -> L1 (three-hop data forwarding).
	MsgDataFromOwner // Data_From_Owner
)

var msgKindNames = [...]string{
	MsgGETS: "GETS", MsgGETSWP: "GETS_WP", MsgGETX: "GETX",
	MsgUpgrade: "Upgrade", MsgPUTS: "PUTS", MsgPUTX: "PUTX",
	MsgUnblock: "Unblock", MsgExclusiveUnblock: "Exclusive_Unblock",
	MsgInvAck: "Inv_Ack", MsgWBData: "WB_Data",
	MsgData: "Data", MsgDataExclusive: "Data_Exclusive",
	MsgUpgradeAck: "Upgrade_ACK", MsgInv: "Inv",
	MsgFwdGETS: "Fwd_GETS", MsgFwdGETX: "Fwd_GETX",
	MsgDowngrade: "Downgrade", MsgWBAck: "WB_Ack",
	MsgDataFromOwner: "Data_From_Owner",
}

func (k MsgKind) String() string {
	if int(k) < len(msgKindNames) && msgKindNames[k] != "" {
		return msgKindNames[k]
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Msg is one coherence message. Addr is always block-aligned.
type Msg struct {
	Kind        MsgKind
	Addr        cache.Addr
	Src         int  // sending L1 id, or -1 for the directory
	Requestor   int  // original requestor for forwarded requests
	WP          bool // write-protection bit hitchhiked from the MMU
	Data        uint64
	Dirty       bool     // PUTX/WBData: data differs from the LLC's copy
	FromWB      bool     // WBData: served out of the writeback buffer; sender holds no copy
	Excl        bool     // DataFromOwner: grant carries exclusivity (GETX forward)
	Owned       bool     // WBData: sender retains the dirty copy in state O (MOESI)
	MakeForward bool     // Data/DataFromOwner: requestor becomes the MESIF forwarder
	ClusterLast bool     // PUTX via a hub: the evictor was its cluster's last holder
	Served      ServedBy // Data/DataExclusive: where the grant was served from
}

// DirID is the Src value used by the directory.
const DirID = -1

// Payload op codes (sim.Payload.Op): every timed action an L1 or bank
// performs rides the engine as a (handler, payload) event instead of a
// captured closure, so the hot path allocates nothing per message.
const (
	opL1Recv            uint8 = iota + 1 // deliver a Msg to an L1 (trace + Receive; Z = dst)
	opL1Process                          // tag lookup done; examine a pooled Access
	opL1ProcessMiss                      // deferred VIVT translation done; re-check the miss
	opL1DataRetry                        // install stalled; retry a data grant
	opL1Respond                          // owner's delayed three-hop response
	opL1RespondRetained                  // MOESI owner response, dirty copy retained
	opBankDispatch                       // deliver a Msg to a bank
	opBankSendStage                      // bank-local latency elapsed; enter the fabric toward an L1 (Z = dst)
	opBankFetchIssue                     // LLC tag miss confirmed; issue the DRAM access
	opBankInstall                        // DRAM responded; install and grant (retries on stall)

	// Two-level directory routing (cluster hubs). Hub events are pure
	// routing plus exact-local-set bookkeeping: they never resolve a
	// protocol table entry and are invisible to the Observe hook.
	opHubUp            // L1 -> hub: filter/forward a request toward the home bank
	opHubDown          // bank/owner -> hub: record and deliver a message to a local L1 (Z = dst)
	opHubInv           // home -> hub: multicast Inv to the recorded locals, aggregate acks
	opBankSendStageHub // bank-local latency elapsed; enter the fabric toward a hub (Z = cluster)
)

// Msg flag bits packed into sim.Payload.F.
const (
	pfWP uint8 = 1 << iota
	pfDirty
	pfFromWB
	pfExcl
	pfOwned
	pfMakeForward
	pfClusterLast
)

// payload packs the message into a fixed-size event payload. Z is left
// free for routing: the destination L1, or the cluster of a hub-bound op.
func (m Msg) payload(op uint8) sim.Payload {
	var f uint8
	if m.WP {
		f |= pfWP
	}
	if m.Dirty {
		f |= pfDirty
	}
	if m.FromWB {
		f |= pfFromWB
	}
	if m.Excl {
		f |= pfExcl
	}
	if m.Owned {
		f |= pfOwned
	}
	if m.MakeForward {
		f |= pfMakeForward
	}
	if m.ClusterLast {
		f |= pfClusterLast
	}
	return sim.Payload{
		A: uint64(m.Addr), B: m.Data,
		X: int32(m.Src), Y: int32(m.Requestor),
		K: uint8(m.Kind), F: f, Aux: uint8(m.Served), Op: op,
	}
}

// msgFromPayload is the inverse of Msg.payload.
func msgFromPayload(p sim.Payload) Msg {
	return Msg{
		Kind:        MsgKind(p.K),
		Addr:        cache.Addr(p.A),
		Src:         int(p.X),
		Requestor:   int(p.Y),
		WP:          p.F&pfWP != 0,
		Data:        p.B,
		Dirty:       p.F&pfDirty != 0,
		FromWB:      p.F&pfFromWB != 0,
		Excl:        p.F&pfExcl != 0,
		Owned:       p.F&pfOwned != 0,
		MakeForward: p.F&pfMakeForward != 0,
		ClusterLast: p.F&pfClusterLast != 0,
		Served:      ServedBy(p.Aux),
	}
}
