package coherence

import "repro/internal/proto"

// Protocol is one coherence policy, defined entirely by data: a name, the
// proto.Features on which the protocols differ (Table IV), and whether
// the directory arbitrates its queued requests by phase. Everything else
// — the transaction structure, transient states, forwarding,
// invalidation, writebacks — is shared across protocols. The transition
// relation is built from the features once, when the policy is defined,
// and every controller and the model checker read that one instance.
type Protocol struct {
	name     string
	features proto.Features
	table    *proto.Table

	// phasePriority installs a priority discipline on the directory's
	// per-transaction request queues (see queueClass): queued requests are
	// kept sorted by class, stably, except that a request never overtakes
	// an earlier request from the same source (a core's eviction notice
	// must stay ahead of its own re-request for the block, or the
	// directory would see the owner re-request its own block).
	phasePriority bool
}

// Policy is how the rest of the repository names a protocol: a pointer to
// its one definition, so policies compare with ==.
type Policy = *Protocol

// NewPolicy defines a protocol from its features. The shipped policies
// are the package variables below; NewPolicy exists for experimental
// variants such as a deliberately broken policy under the model checker.
func NewPolicy(name string, f proto.Features) Policy {
	return &Protocol{name: name, features: f, table: proto.Build(name, f)}
}

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return p.name }

// Features returns the feature values that define the protocol.
func (p *Protocol) Features() proto.Features { return p.features }

// Table returns the protocol's transition relation: the instance both
// controllers dispatch from and the model checker verifies against.
func (p *Protocol) Table() *proto.Table { return p.table }

// SilentUpgrade reports whether a store hitting an E-state L1 line (whose
// write-protection marking is lineWP) may transition to M locally without
// notifying the LLC. MESI and SwiftDir keep this speedup unconditionally;
// S-MESI revokes it (Figure 3); the E_wp ablation must revoke it for E_wp
// lines or the LLC would serve stale data (the hazard that makes E_wp
// "complicated").
func (p *Protocol) SilentUpgrade(lineWP bool) bool { return p.features.SilentE.For(lineWP) }

// LoadRequest returns the coherence request an L1 load miss emits, given
// the access's write-protection bit. SwiftDir (and the E_wp ablation)
// emit GETS_WP for write-protected data.
func (p *Protocol) LoadRequest(wp bool) MsgKind {
	if wp && p.features.WPLoads {
		return MsgGETSWP
	}
	return MsgGETS
}

// GrantExclusiveOnLoad reports whether the directory grants exclusivity
// (I→E) for an initial load. SwiftDir answers false for write-protected
// data, enforcing the I→S transition of Figure 4(a).
func (p *Protocol) GrantExclusiveOnLoad(wp bool) bool { return p.features.Exclusive.For(wp) }

// ServeExclusiveFromLLC reports whether a GETS hitting a
// directory-Exclusive block may be served directly from the LLC, given
// whether the block was write-protected when granted. S-MESI answers true
// unconditionally (its explicit upgrades make E provably clean); the E_wp
// ablation answers true only for write-protected blocks (which cannot
// have been silently modified); MESI and SwiftDir must forward.
func (p *Protocol) ServeExclusiveFromLLC(blockWP bool) bool { return p.features.LLCServeE.For(blockWP) }

// OwnershipTransfer reports whether the protocol uses MOESI's Owned
// state: a dirty owner answering a forwarded GETS keeps its dirty copy in
// state O and supplies sharers directly, instead of writing back to the
// LLC and downgrading to S.
func (p *Protocol) OwnershipTransfer() bool { return p.features.Owned }

// ForwardStateFor reports whether the protocol designates a MESIF Forward
// holder among the sharers of a (possibly write-protected) block, so
// shared reads are served cache-to-cache by the forwarder rather than by
// the LLC. The SwiftDir adaptation answers false for write-protected
// data, keeping their service at the LLC constant.
func (p *Protocol) ForwardStateFor(wp bool) bool { return p.features.Forward.For(wp) }

// The protocols under evaluation.
var (
	MESI = NewPolicy("MESI", proto.Features{
		Exclusive: proto.TriAlways, SilentE: proto.TriAlways,
	})
	// SwiftDir is MESI with one decision changed: write-protected loads
	// request GETS_WP and are never granted E (the I→S rule, §III).
	SwiftDir = NewPolicy("SwiftDir", proto.Features{
		WPLoads: true, Exclusive: proto.TriNoWP, SilentE: proto.TriAlways,
	})
	// SMESI revokes silent E→M upgrades, so E is provably clean and the
	// LLC serves loads on E blocks directly (Figure 3).
	SMESI = NewPolicy("S-MESI", proto.Features{
		Exclusive: proto.TriAlways, SilentE: proto.TriNever, LLCServeE: proto.TriAlways,
	})
	// SwiftDirEwp is the alternative design the paper considers and
	// rejects in §III-B3: instead of eliminating the E state for
	// write-protected data, a specialized E_wp state keeps exclusivity but
	// lets the LLC serve remote loads directly (E_wp blocks are
	// write-protected, hence provably unmodified). It is equally secure
	// but complicates the protocol — an extra stable state at the
	// directory and a Downgrade flow — which is exactly why SwiftDir
	// prefers the I→S simplification. Kept as an executable ablation.
	SwiftDirEwp = NewPolicy("SwiftDir-Ewp", proto.Features{
		WPLoads: true, Exclusive: proto.TriAlways, SilentE: proto.TriNoWP, LLCServeE: proto.TriWPOnly,
	})
	// MOESI is the MOESI baseline (AMD Opteron family, §II-A2): MESI plus
	// the Owned state, so dirty data migrate cache-to-cache without LLC
	// writebacks. The E/S (and O/S) timing channel exists here exactly as
	// in MESI.
	MOESI = NewPolicy("MOESI", proto.Features{
		Exclusive: proto.TriAlways, SilentE: proto.TriAlways, Owned: true,
	})
	// SwiftDirMOESI applies SwiftDir's I→S rule on top of MOESI: the
	// defense is orthogonal to ownership transfer, since write-protected
	// data never reach E, M, or O.
	SwiftDirMOESI = NewPolicy("SwiftDir-MOESI", proto.Features{
		WPLoads: true, Exclusive: proto.TriNoWP, SilentE: proto.TriAlways, Owned: true,
	})
	// MESIF is the MESIF baseline (Intel QPI-era point-to-point
	// interconnects): among the clean sharers of a block, the most recent
	// requestor holds the Forward state and answers shared reads
	// cache-to-cache, leaving a residual forwarder-present/absent timing
	// channel.
	MESIF = NewPolicy("MESIF", proto.Features{
		Exclusive: proto.TriAlways, SilentE: proto.TriAlways, Forward: proto.TriAlways,
	})
	// SwiftDirMESIF applies SwiftDir to MESIF: write-protected data get
	// neither E nor F, so every access to them is the constant LLC
	// service; unprotected data keep the forwarder optimization.
	SwiftDirMESIF = NewPolicy("SwiftDir-MESIF", proto.Features{
		WPLoads: true, Exclusive: proto.TriNoWP, SilentE: proto.TriAlways, Forward: proto.TriNoWP,
	})
	// MSI is the three-state baseline that predates MESI: no Exclusive
	// state at all, so every store to a previously-loaded line pays an
	// explicit Upgrade round trip. It closes the E/S channel trivially —
	// the naive "just drop the E state" fix — but taxes every private
	// read-then-write, the cost the E state was invented to remove
	// (§II-A1).
	MSI = NewPolicy("MSI", proto.Features{})
	// PhasePriority is MESI plus phase-priority directory arbitration
	// (after the at-memory request-priority schemes of arXiv:1305.3038):
	// requests that retire an already-started coherence phase drain before
	// requests that would open a new one. The transition relation is
	// exactly MESI's — arbitration only reorders the replay of queued
	// requests, which is not an externally observable event.
	PhasePriority = func() Policy {
		p := NewPolicy("Phase-Priority", MESI.features)
		p.phasePriority = true
		return p
	}()
)

// Policies lists the paper's three protocols in its comparison order.
var Policies = []Policy{MESI, SwiftDir, SMESI}

// AllPolicies additionally includes the E_wp ablation, the MOESI and
// MESIF families, and the MSI baseline. The ablation sweep iterates this
// list, so its membership is part of the golden report surface; purely
// additive policies (arbitration variants) go in ExtendedPolicies.
var AllPolicies = []Policy{MESI, SwiftDir, SMESI, SwiftDirEwp, MOESI, SwiftDirMOESI, MESIF, SwiftDirMESIF, MSI}

// ExtendedPolicies is every selectable policy: AllPolicies plus the
// arbitration variants that are protocol-identical to a baseline.
var ExtendedPolicies = append(append([]Policy{}, AllPolicies...), PhasePriority)

// PolicyNames lists every selectable policy name, in ExtendedPolicies
// order — the single source for CLI flag help, so the lists cannot go
// stale as policies are added.
func PolicyNames() []string {
	names := make([]string, len(ExtendedPolicies))
	for i, p := range ExtendedPolicies {
		names[i] = p.Name()
	}
	return names
}

// PolicyByName resolves a protocol by its Name, or nil.
func PolicyByName(name string) Policy {
	for _, p := range ExtendedPolicies {
		if p.Name() == name {
			return p
		}
	}
	return nil
}
