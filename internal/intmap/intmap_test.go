package intmap

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// homedAt returns n keys whose probes start at slot `at` of a table of
// `slots` slots. A key homed at the last slot of a 2^k-slot table is homed
// at the last slot of every smaller one too, so such keys collide and
// wrap at every size the table grows through.
func homedAt(n, slots int, at uint64) []uint64 {
	m := Map[int]{}
	for len(m.slots) < slots {
		m.grow()
	}
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if m.home(k+1) == at {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkSame fails unless m holds exactly ref's entries.
func checkSame(t *testing.T, m *Map[uint64], ref map[uint64]uint64) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len %d, want %d", m.Len(), len(ref))
	}
	got := map[uint64]uint64{}
	m.ForEach(func(k, v uint64) { got[k] = v })
	if len(got) != len(ref) {
		t.Fatalf("ForEach visited %d entries, want %d", len(got), len(ref))
	}
	for k, v := range ref {
		if g, ok := m.Get(k); !ok || g != v || got[k] != v {
			t.Fatalf("key %#x: Get %d %v, ForEach %d; want %d", k, g, ok, got[k], v)
		}
	}
	keys := m.AppendKeys(nil)
	slices.Sort(keys)
	want := make([]uint64, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Fatalf("AppendKeys %v, want %v", keys, want)
	}
}

// TestMatchesGoMap drives a Map and a Go map with one random sequence of
// sets, puts, gets and deletes, and requires equal contents and lengths
// after every step. The key pool mixes keys that share a home slot at
// every table size (so probe runs collide, wrap past the last slot, and
// lose entries from their middle), block addresses, page numbers and
// random words; it is large enough that the table grows four times.
func TestMatchesGoMap(t *testing.T) {
	pool := homedAt(12, 128, 127)
	pool = append(pool, homedAt(6, 128, 0)...)
	for i := uint64(0); i < 24; i++ {
		pool = append(pool, 0x10000+i*64, i)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 16; i++ {
		if k := rng.Uint64(); k != reserved {
			pool = append(pool, k)
		}
	}
	var m Map[uint64]
	ref := map[uint64]uint64{}
	maxLen := 0
	for step := 0; step < 200_000; step++ {
		k := pool[rng.IntN(len(pool))]
		switch op := rng.IntN(10); {
		case op < 4:
			v := rng.Uint64()
			m.Set(k, v)
			ref[k] = v
		case op == 4:
			*m.Put(k) += 3
			ref[k] += 3
		case op < 8:
			m.Delete(k)
			delete(ref, k)
		default:
			v, ok := m.Get(k)
			rv, rok := ref[k]
			if v != rv || ok != rok || m.Has(k) != rok || (m.Ptr(k) != nil) != rok {
				t.Fatalf("step %d: key %#x reads %d %v, want %d %v", step, k, v, ok, rv, rok)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, m.Len(), len(ref))
		}
		maxLen = max(maxLen, len(ref))
		if step%997 == 0 {
			checkSame(t, &m, ref)
		}
	}
	checkSame(t, &m, ref)
	if len(m.slots) < 128 {
		t.Fatalf("the table reached only %d slots (at most %d entries); the sequence never grew it", len(m.slots), maxLen)
	}
	m.Clear()
	clear(ref)
	checkSame(t, &m, ref)
}

// TestDeleteInsideWrappedRun deletes each entry of a probe run that wraps
// from the last slot to the first, in turn, and requires every other
// entry to stay reachable.
func TestDeleteInsideWrappedRun(t *testing.T) {
	keys := append(homedAt(3, 8, 7), homedAt(2, 8, 0)...)
	for victim := range keys {
		var m Map[uint64]
		for i, k := range keys {
			m.Set(k, uint64(i))
		}
		if len(m.slots) != 8 || m.slots[7].key != keys[0]+1 || m.slots[0].key != keys[1]+1 {
			t.Fatalf("the run does not wrap: %+v", m.slots)
		}
		m.Delete(keys[victim])
		for i, k := range keys {
			v, ok := m.Get(k)
			if want := i != victim; ok != want || (ok && v != uint64(i)) {
				t.Fatalf("after deleting key %d: key %d reads %d %v", victim, i, v, ok)
			}
		}
	}
}

// TestReservedKey: Put panics on the reserved key, and lookups miss it.
func TestReservedKey(t *testing.T) {
	var m Map[int]
	m.Set(1, 1)
	if m.Has(reserved) || m.Ptr(reserved) != nil {
		t.Fatal("the reserved key reads as present")
	}
	m.Delete(reserved)
	if m.Len() != 1 {
		t.Fatal("deleting the reserved key changed the map")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set of the reserved key did not panic")
		}
	}()
	m.Set(reserved, 2)
}

// TestSteadyStateAllocatesNothing: once a table has held n entries, gets,
// sets and deletes over at most n keys allocate nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	const n = 100
	var m Map[uint64]
	for k := uint64(0); k < n; k++ {
		m.Set(k*64, k)
	}
	for k := uint64(0); k < n; k++ {
		m.Delete(k * 64)
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		k := i % n * 64
		m.Set(k, i)
		*m.Put(k + 64) += 1
		if _, ok := m.Get(k); !ok {
			panic("lost key")
		}
		m.Delete(k)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per steady-state round, want 0", allocs)
	}
}

// TestZeroMapAllocatesNothing: a Map that is only read or deleted from
// never allocates.
func TestZeroMapAllocatesNothing(t *testing.T) {
	var m Map[uint64]
	allocs := testing.AllocsPerRun(100, func() {
		m.Get(64)
		m.Delete(64)
		m.ForEach(func(uint64, uint64) {})
	})
	if allocs != 0 || m.slots != nil {
		t.Fatalf("%v allocations, slots %v; want none", allocs, m.slots)
	}
}
