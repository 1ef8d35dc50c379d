package coherence

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// sysFingerprint captures everything a run can observe about a system:
// final clock, executed-event count, message accounting, controller
// statistics, the architectural memory image, and the full per-access
// result stream in completion order. Two byte-identical runs must agree on
// all of it.
type sysFingerprint struct {
	end      sim.Cycle
	executed uint64
	messages uint64
	kinds    [MsgDataFromOwner + 1]uint64
	bank     BankStats
	l1       []L1Stats
	memHash  string
	results  []AccessResult
}

func fingerprint(s *System, results []AccessResult) sysFingerprint {
	fp := sysFingerprint{
		end:      s.Eng.Now(),
		executed: s.ExecutedEvents(),
		messages: s.TotalMessages(),
		bank:     s.BankStatsTotal(),
		memHash:  s.MemImageHash(),
		results:  results,
	}
	for k := range fp.kinds {
		fp.kinds[k] = s.MsgCount(MsgKind(k))
	}
	for _, l1 := range s.L1s {
		fp.l1 = append(fp.l1, l1.Stats)
	}
	return fp
}

func checkFingerprintsEqual(t *testing.T, want, got sysFingerprint, label string) {
	t.Helper()
	if want.end != got.end {
		t.Errorf("%s: final cycle %d, want %d", label, got.end, want.end)
	}
	if want.executed != got.executed {
		t.Errorf("%s: executed %d, want %d", label, got.executed, want.executed)
	}
	if want.messages != got.messages {
		t.Errorf("%s: messages %d, want %d", label, got.messages, want.messages)
	}
	if want.kinds != got.kinds {
		t.Errorf("%s: per-kind counts diverged:\n got %v\nwant %v", label, got.kinds, want.kinds)
	}
	if want.bank != got.bank {
		t.Errorf("%s: bank stats diverged:\n got %+v\nwant %+v", label, got.bank, want.bank)
	}
	if !reflect.DeepEqual(want.l1, got.l1) {
		t.Errorf("%s: L1 stats diverged:\n got %+v\nwant %+v", label, got.l1, want.l1)
	}
	if want.memHash != got.memHash {
		t.Errorf("%s: memory image hash %s, want %s", label, got.memHash, want.memHash)
	}
	if len(want.results) != len(got.results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.results), len(want.results))
	}
	for i := range want.results {
		if want.results[i] != got.results[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got.results[i], want.results[i])
		}
	}
}

// plannedAccess is one pre-generated workload access. The whole workload
// is planned up front, per core, so each core's stream is independent of
// how the cores' completions interleave.
type plannedAccess struct {
	block     cache.Addr
	write, wp bool
	value     uint64
}

func planWorkload(cores, perCore int, seed uint64) [][]plannedAccess {
	plans := make([][]plannedAccess, cores)
	for c := range plans {
		rng := sim.NewRNG(seed + uint64(c)*1000003)
		for i := 0; i < perCore; i++ {
			write := rng.Bool(0.3)
			plans[c] = append(plans[c], plannedAccess{
				block: cache.Addr(0x100000 + uint64(rng.Intn(32))*64),
				write: write,
				wp:    !write && rng.Bool(0.4),
				value: rng.Uint64(),
			})
		}
	}
	return plans
}

// runConcurrentWorkload drives overlapping per-core access chains (the
// stress pattern) over a pre-planned workload and returns the fingerprint
// after a full drain. Results are collected per core and concatenated by
// core id.
func runConcurrentWorkload(t *testing.T, cfg SystemConfig, seed uint64, perCore int) sysFingerprint {
	t.Helper()
	s := MustNewSystem(cfg)
	plans := planWorkload(cfg.NumL1, perCore, seed)
	perCoreResults := make([][]AccessResult, cfg.NumL1)
	next := make([]int, cfg.NumL1)
	for c := 0; c < cfg.NumL1; c++ {
		c := c
		var issue func()
		issue = func() {
			if next[c] >= len(plans[c]) {
				return
			}
			pa := plans[c][next[c]]
			next[c]++
			s.Submit(c, Access{
				Addr: pa.block, Write: pa.write, WP: pa.wp, Value: pa.value,
				Done: func(r AccessResult) {
					perCoreResults[c] = append(perCoreResults[c], r)
					issue()
				},
			})
		}
		// Three overlapping chains per core.
		issue()
		issue()
		issue()
	}
	s.Quiesce()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
	var results []AccessResult
	for c := range perCoreResults {
		if len(perCoreResults[c]) != perCore {
			t.Fatalf("core %d completed %d/%d accesses", c, len(perCoreResults[c]), perCore)
		}
		results = append(results, perCoreResults[c]...)
	}
	return fingerprint(s, results)
}

// runSyncWorkload drives a serialized AccessSync stream — the probe
// interface — asserting the data-value invariant on the way, and
// fingerprints the result (including every AccessResult).
func runSyncWorkload(t *testing.T, cfg SystemConfig, seed uint64, n int) sysFingerprint {
	t.Helper()
	s := MustNewSystem(cfg)
	rng := sim.NewRNG(seed)
	shadow := map[cache.Addr]uint64{}
	var results []AccessResult
	val := seed
	for i := 0; i < n; i++ {
		core := rng.Intn(cfg.NumL1)
		block := cache.Addr(0x100000 + uint64(rng.Intn(24))*64)
		write := rng.Bool(0.3)
		wp := !write && rng.Bool(0.4)
		if write {
			val++
			results = append(results, s.AccessSync(core, block, true, false, val))
			shadow[block] = val
		} else {
			r := s.AccessSync(core, block, false, wp, 0)
			want, ok := shadow[block]
			if !ok {
				want = initialToken(block)
			}
			if r.Value != want {
				t.Fatalf("load %#x on core %d: got %#x want %#x", block, core, r.Value, want)
			}
			results = append(results, r)
		}
	}
	s.Quiesce()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
	return fingerprint(s, results)
}
