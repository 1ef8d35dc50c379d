package main

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/resultcache"
	"repro/internal/server"
)

func TestInputsAreSeedDeterministic(t *testing.T) {
	for name, gen := range map[string]func(uint64) any{
		"spec profiles": func(s uint64) any { return specProfiles(s) },
		"war profiles":  func(s uint64) any { return warProfiles(s) },
		"mesh layouts": func(s uint64) any {
			var ls []meshLayout
			for k := 0; k < meshLayouts; k++ {
				ls = append(ls, newMeshLayout(s, k))
			}
			return ls
		},
		"serve schedule": func(s uint64) any {
			rng := newRNG(s, 1)
			return []any{arrivals(rng, 1000, time.Second), missKeys(rng, 300), dedupKeys(rng, 100)}
		},
	} {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

func TestJobListsDependOnlyOnSeed(t *testing.T) {
	for name, w := range simWorkloads {
		a, b := w.gen(3), w.gen(3)
		if len(a) != len(b) || len(a)%3 != 0 {
			t.Fatalf("%s: %d and %d jobs, want equal multiples of the 3 policies", name, len(a), len(b))
		}
		seen := map[string]bool{}
		for i := range a {
			if a[i].name != b[i].name {
				t.Errorf("%s: job %d is %s then %s", name, i, a[i].name, b[i].name)
			}
			if seen[a[i].name] {
				t.Errorf("%s: duplicate job name %s", name, a[i].name)
			}
			seen[a[i].name] = true
		}
	}
}

func TestWARProfilesAreL1Resident(t *testing.T) {
	for _, p := range warProfiles(11) {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if p.WorkingSetKB < 8 || p.WorkingSetKB > 24 || p.WARFrac < 0.4 || p.WARFrac > 0.8 || p.Instrs != 50_000 {
			t.Errorf("%s: working set %d KB, WARFrac %.2f, %d instrs; want 8-24 KB, 0.4-0.8, 50k",
				p.Name, p.WorkingSetKB, p.WARFrac, p.Instrs)
		}
	}
}

func TestMeshLayoutGroups(t *testing.T) {
	l := newMeshLayout(5, 0)
	for j, m := range l.members {
		if len(m) != 8 {
			t.Errorf("group %d has %d members, want 8", j, len(m))
		}
		for _, c := range m {
			if l.groupOf[c] != j {
				t.Errorf("core %d listed in group %d but mapped to %d", c, j, l.groupOf[c])
			}
		}
	}
}

// cacheKey is the result-cache key the server derives for a spec body.
func cacheKey(t *testing.T, body []byte) string {
	t.Helper()
	var s server.Spec
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	k, err := resultcache.NewKey(s.Experiment, s.Params)
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	return k.ID().String()
}

func TestServeKeysAreColdAndDistinct(t *testing.T) {
	rng := newRNG(9, 2)
	seen := map[string]bool{}
	for _, w := range warmSpecs {
		seen[cacheKey(t, []byte(w.body))] = true
	}
	for _, k := range append(missKeys(rng, maxMissKeys), dedupKeys(rng, 100)...) {
		id := cacheKey(t, k)
		if seen[id] {
			t.Errorf("key %s repeats or is warm", k)
		}
		seen[id] = true
	}
}
