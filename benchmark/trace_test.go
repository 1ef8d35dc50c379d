package main

import (
	"math"
	"os"
	"testing"
	"time"
)

func TestFoldTopCannedProfile(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, gc, err := foldTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"coherence.l1": 25, "coherence.directory": 15, "coherence.hub": 7, "coherence.system": 4,
		"sim": 10, "campaign": 4, "runtime": 13, "nethttp": 7, "other": 15,
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("%s.cpu_pct = %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	if math.Abs(gc-13) > 1e-9 {
		t.Errorf("gc share = %v, want 13 (mark workers 1s + assists 0.3s of 10s)", gc)
	}
}

func TestFoldTopRejectsEmptyOutput(t *testing.T) {
	if _, _, err := foldTop("File: x\nType: cpu\n"); err == nil {
		t.Error("foldTop accepted output without a sample table")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/coherence.(*L1).Request.func1":                "coherence.l1",
		"repro/internal/coherence.L1.String":                          "coherence.l1",
		"repro/internal/coherence.(*System).L1StateOf":                "coherence.system",
		"repro/internal/coherence.(*bank).grant":                      "coherence.directory",
		"repro/internal/coherence.(*hub).Handle":                      "coherence.hub",
		"repro/internal/dram.(*Memory).Access":                        "dram",
		"repro/internal/stats.(*Histogram).Add":                       "other",
		"repro/internal/campaign.Run[go.shape.struct { net/http.x }]": "campaign",
		"net/http.(*persistConn).readLoop":                            "nethttp",
		"internal/poll.(*FD).Read":                                    "nethttp",
		"runtime.mallocgc":                                            "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                "runtime",
		"crypto/sha256.block":                                         "other",
		"main.runSim":                                                 "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseSampleTime(t *testing.T) {
	for s, want := range map[string]float64{
		"0": 0, "120ms": 0.12, "1.25s": 1.25, "2.50mins": 150, "1.10hrs": 3960, "250us": 250e-6, "250µs": 250e-6,
	} {
		got, err := parseSampleTime(s)
		if err != nil || math.Abs(got-want) > 1e-9 {
			t.Errorf("parseSampleTime(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100_000_000},
		{ID: 2, Parent: 1, Name: "a", Start: 10_000_000, End: 30_000_000},
		{ID: 3, Parent: 1, Name: "a", Start: 20_000_000, End: 50_000_000},  // overlaps 2
		{ID: 4, Parent: 1, Name: "b", Start: 90_000_000, End: 120_000_000}, // overruns the parent
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the job's 100 ms.
	if got := self["job"]; math.Abs(got-50) > 1e-9 {
		t.Errorf("job self time = %v ms, want 50", got)
	}
	if got := self["a"]; math.Abs(got-50) > 1e-9 {
		t.Errorf("a self time = %v ms, want 20+30", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	for _, ns := range []uint64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 123456, 1 << 40} {
		i := bucketOf(ns)
		if lo, hi := bucketLow(i), bucketLow(i+1); ns < lo || ns >= hi {
			t.Errorf("%d ns in bucket %d = [%d, %d)", ns, i, lo, hi)
		}
	}
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	p50, err := h.percentile(0.5)
	if err != nil || p50 > 500_000 || p50 < 500_000*7/8 {
		t.Errorf("p50 = %v, %v; want within a bucket below 500us", p50, err)
	}
	if _, err := h.percentile(0.995); err == nil {
		t.Error("p99.5 of 1000 samples has 5 beyond it and must be refused")
	}
}
