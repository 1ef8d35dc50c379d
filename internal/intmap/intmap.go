// Package intmap implements Map, a hash table keyed by a 64-bit block
// address or page number. The coherence controllers keep their per-block
// tables in it (directory transactions, the memory image, MSHRs,
// writeback buffers, store sequence numbers and the cluster hubs'
// records and counters), and the TLB its page index.
//
// A Map is open-addressed: a slot is the key and the value, probed
// linearly from a Fibonacci hash of the key. The load stays at or below
// 3/4, and a delete shifts the rest of its probe run back, so there are
// no tombstones. A slot is empty when its key word is zero, so a slot
// holds its key plus one, and the key 1<<64-1 is reserved. A Map never
// shrinks: once it has held n entries, Set and Delete allocate nothing
// until it holds more.
package intmap

import "math/bits"

// reserved is the one key a Map cannot hold.
const reserved = ^uint64(0)

// minSlots is the slot count of a Map's first allocation.
const minSlots = 8

type slot[V any] struct {
	key uint64 // the key plus one; zero marks an empty slot
	val V
}

// Map is a hash table from uint64 keys to V. The zero Map is empty and
// ready to use; it allocates on its first Set.
type Map[V any] struct {
	slots []slot[V]
	n     int
	shift uint // 64 minus log2(len(slots))
}

// home returns the slot at which a probe for stored key s starts.
func (m *Map[V]) home(s uint64) uint64 { return (s * 0x9E3779B97F4A7C15) >> m.shift }

// find returns the index of stored key s, or -1. The stored form of
// reserved is zero, which no entry has.
func (m *Map[V]) find(s uint64) int {
	if m.n == 0 || s == 0 {
		return -1
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(s); ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case s:
			return int(i)
		case 0:
			return -1
		}
	}
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

// Get returns the value stored under k and whether there is one.
func (m *Map[V]) Get(k uint64) (V, bool) {
	if i := m.find(k + 1); i >= 0 {
		return m.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Has reports whether k has an entry.
func (m *Map[V]) Has(k uint64) bool { return m.find(k+1) >= 0 }

// Ptr returns a pointer to the value stored under k, or nil if there is
// none. The pointer is valid until the next Set or Delete.
func (m *Map[V]) Ptr(k uint64) *V {
	if i := m.find(k + 1); i >= 0 {
		return &m.slots[i].val
	}
	return nil
}

// Set stores v under k. It panics if k is 1<<64-1.
func (m *Map[V]) Set(k uint64, v V) { *m.Put(k) = v }

// Put returns a pointer to the value stored under k, first storing the
// zero value if there is none. The pointer is valid until the next Set,
// Put or Delete. It panics if k is 1<<64-1.
func (m *Map[V]) Put(k uint64) *V {
	if k == reserved {
		panic("intmap: the reserved key")
	}
	s := k + 1
	if i := m.find(s); i >= 0 {
		return &m.slots[i].val
	}
	if (m.n+1)*4 > len(m.slots)*3 {
		m.grow()
	}
	mask := uint64(len(m.slots) - 1)
	i := m.home(s)
	for m.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	m.slots[i].key = s
	m.n++
	return &m.slots[i].val
}

// grow doubles the slot count (or makes the first allocation) and
// re-inserts every entry.
func (m *Map[V]) grow() {
	old := m.slots
	n := max(2*len(old), minSlots)
	m.slots = make([]slot[V], n)
	m.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(len(m.slots) - 1)
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := m.home(e.key)
		for m.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = e
	}
}

// Delete removes k's entry, if any. Each later entry of its probe run
// that may move back does, so every entry stays reachable from its home
// slot without tombstones.
func (m *Map[V]) Delete(k uint64) {
	i := m.find(k + 1)
	if i < 0 {
		return
	}
	mask := uint64(len(m.slots) - 1)
	hole := uint64(i)
	for j := (hole + 1) & mask; m.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies
		// cyclically after the hole, in (hole, j].
		if (j-m.home(m.slots[j].key))&mask >= (j-hole)&mask {
			m.slots[hole] = m.slots[j]
			hole = j
		}
	}
	m.slots[hole] = slot[V]{}
	m.n--
}

// Clear removes every entry and keeps the slots.
func (m *Map[V]) Clear() {
	clear(m.slots)
	m.n = 0
}

// ForEach calls fn for every entry, in slot order (not key order). fn
// must not change the Map.
func (m *Map[V]) ForEach(fn func(k uint64, v V)) {
	for i := range m.slots {
		if s := m.slots[i].key; s != 0 {
			fn(s-1, m.slots[i].val)
		}
	}
}

// AppendKeys appends every key to dst, in slot order, and returns the
// extended slice.
func (m *Map[V]) AppendKeys(dst []uint64) []uint64 {
	for i := range m.slots {
		if s := m.slots[i].key; s != 0 {
			dst = append(dst, s-1)
		}
	}
	return dst
}
