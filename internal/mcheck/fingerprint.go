package mcheck

import (
	"math/bits"
	"sort"
)

// fp is a 128-bit state fingerprint. Two independently mixed 64-bit
// accumulators make accidental collisions (which would unsoundly merge
// distinct states) negligible at the state counts mcheck explores.
type fp struct{ a, b uint64 }

type fpHash struct{ a, b uint64 }

func newFPHash() *fpHash {
	return &fpHash{a: 0xcbf29ce484222325, b: 0x9E3779B97F4A7C15}
}

func (h *fpHash) emit(v uint64) {
	h.a ^= v
	h.a *= 0x100000001b3
	h.a = bits.RotateLeft64(h.a, 27)
	h.b += v*0x9E3779B97F4A7C15 + 0x7F4A7C15
	h.b ^= h.b >> 29
	h.b *= 0xBF58476D1CE4E5B9
}

func (h *fpHash) sum() fp { return fp{h.a, h.b} }

// fingerprint computes the canonical fingerprint of the runner's current
// state: the specification's own bookkeeping (outstanding accesses, legal
// value sets, committed values, token counters), which decides future
// checks and token values, followed by the hierarchy's encoding of itself
// (System.AppendFingerprint: everything that can influence the
// controllers' future behaviour, with time only as deltas from now).
func (c *checker) fingerprint(r *runner) fp {
	h := newFPHash()
	emit := h.emit

	emit(uint64(r.injected))
	for core := 0; core < c.cfg.Cores; core++ {
		emit(uint64(r.perCore[core])<<8 | uint64(len(r.out[core])))
		for _, pa := range r.out[core] {
			emit(uint64(pa.line)<<16 | uint64(pa.op)<<8 | uint64(pa.core))
			if pa.legal != nil {
				keys := make([]uint64, 0, len(pa.legal))
				for k := range pa.legal {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				emit(uint64(len(keys)))
				for _, k := range keys {
					emit(k)
				}
			}
		}
	}
	for _, v := range r.committed {
		emit(v)
	}

	r.sys.AppendFingerprint(emit)
	return h.sum()
}
