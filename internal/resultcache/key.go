// Package resultcache memoizes experiment reports in a content-addressed
// store: a bounded in-memory LRU in front of an optional on-disk
// directory, keyed by the SHA-256 of the canonical JSON encoding of
// (experiment name, normalized parameters, compared-policy set, runtime
// seeds, code version).
//
// The soundness argument is the repository's determinism guarantee: an
// experiment's report bytes are a pure function of that tuple — golden
// hashes pin them across engine rewrites, and the j1-vs-jN equivalence
// suites prove the worker count cannot leak in. A cache hit is therefore provably byte-identical to a re-run,
// which is what lets swiftdir-serve turn O(grid) repeat traffic into
// O(1) lookups without weakening any result.
//
// Reads are hash-verified: a disk entry whose payload digest or key
// digest does not match is treated as a miss (and deleted), never
// served. Disk failures of any kind degrade the cache to compute-through
// with a logged warning — the store is an accelerator, not a dependency.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"

	"repro/internal/experiments"
)

// ID is a cache key digest: the SHA-256 of the key's canonical JSON.
type ID [sha256.Size]byte

// String renders the digest as lowercase hex (the on-disk file stem).
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// ParseID parses the hex form produced by String.
func ParseID(s string) (ID, error) {
	var id ID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(id) {
		return ID{}, fmt.Errorf("resultcache: bad id %q", s)
	}
	copy(id[:], b)
	return id, nil
}

// Key is the identity of one deterministic experiment execution. Field
// order is the canonical JSON order; every field is normalized by NewKey
// so semantically identical requests encode byte-identically:
//
//   - Params come from Experiment.Normalize — knobs the experiment
//     ignores are cleared, unset knobs resolve to their defaults.
//   - Policies is the compared-policy set (sorted), today always the
//     paper's three; a future policy-set knob forks the keyspace.
//   - Seeds carries runtime-varied RNG seeds (sorted). The current
//     registry embeds every seed in code, so it is empty and the code
//     version covers them; the field exists so a seed-sweeping
//     experiment cannot collide with the fixed-seed one.
//   - CodeVersion pins the simulator build (VCS revision when the binary
//     embeds one): any code change that could move a report forks the key.
type Key struct {
	Experiment  string             `json:"experiment"`
	Params      experiments.Params `json:"params"`
	Policies    []string           `json:"policies"`
	Seeds       []int64            `json:"seeds,omitempty"`
	CodeVersion string             `json:"code_version"`
}

// NewKey builds the normalized key for running experiment name with p
// under the current build. Unknown names are rejected with the registry
// vocabulary, and non-positive consumed knobs with an
// *experiments.InvalidParamsError, so a malformed request never reaches
// the simulator or the cache.
func NewKey(name string, p experiments.Params) (Key, error) {
	e, ok := experiments.Lookup(name)
	if !ok {
		return Key{}, &experiments.UnknownExperimentError{Name: name}
	}
	if err := e.Validate(p); err != nil {
		return Key{}, err
	}
	return Key{
		Experiment:  e.Name,
		Params:      e.Normalize(p),
		Policies:    experiments.PolicyNames(),
		CodeVersion: CodeVersion(),
	}, nil
}

// Canonical returns the key's canonical JSON encoding: struct field
// order, normalized fields, no indentation. This is the preimage of ID.
func (k Key) Canonical() []byte {
	b, err := json.Marshal(k)
	if err != nil {
		// Key holds only plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("resultcache: canonicalize key: %v", err))
	}
	return b
}

// ID returns the content address: SHA-256 over Canonical().
func (k Key) ID() ID { return sha256.Sum256(k.Canonical()) }

// codeVersion is resolved once at init: the VCS revision stamped into
// the binary (with a +dirty marker for modified trees) when available,
// else "dev". `go test` binaries are typically unstamped.
var codeVersion = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			if modified == "true" {
				return rev + "+dirty"
			}
			return rev
		}
	}
	return "dev"
}()

// CodeVersion reports the build identity baked into cache keys.
func CodeVersion() string { return codeVersion }
