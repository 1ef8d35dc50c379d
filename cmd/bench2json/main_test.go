package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU @ 1.00GHz
BenchmarkEngineEventThroughput-8   	68719476	        17.44 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineEventThroughput-8   	68719476	        18.02 ns/op	       0 B/op	       0 allocs/op
BenchmarkAccessMESI-8              	 1634336	       703.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig7_SPEC-8               	       2	 512345678 ns/op	        95.40 SwiftDir-normIPC	        97.10 SMESI-normIPC	  524288 B/op	    4096 allocs/op
PASS
ok  	repro	12.345s
`

func TestParseFoldsRuns(t *testing.T) {
	entries, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(entries))
	}
	e := entries[0]
	if e.Name != "BenchmarkEngineEventThroughput" || e.Runs != 2 {
		t.Fatalf("first entry = %+v", e)
	}
	if e.NsPerOp != 17.44 {
		t.Fatalf("ns/op should keep the minimum across runs: got %v", e.NsPerOp)
	}
	if e.AllocsPerOp != 0 || e.BytesPerOp != 0 {
		t.Fatalf("allocs/bytes = %v/%v, want 0/0", e.AllocsPerOp, e.BytesPerOp)
	}
	// ReportMetric extras must not pollute the standard fields.
	fig := entries[2]
	if fig.Name != "BenchmarkFig7_SPEC" || fig.NsPerOp != 512345678 || fig.AllocsPerOp != 4096 {
		t.Fatalf("fig7 entry = %+v", fig)
	}
}

func TestParseEmptyInput(t *testing.T) {
	entries, err := parse(bufio.NewScanner(strings.NewReader("PASS\n")))
	if err != nil || len(entries) != 0 {
		t.Fatalf("entries=%v err=%v", entries, err)
	}
}

func TestGate(t *testing.T) {
	entries, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if v := gate(entries, "BenchmarkAccessMESI=2500", "^BenchmarkAccessMESI$"); len(v) != 0 {
		t.Fatalf("clean run reported violations: %v", v)
	}
	v := gate(entries, "BenchmarkAccessMESI=500,BenchmarkMissing=1", "^BenchmarkFig7")
	if len(v) != 3 {
		t.Fatalf("got %d violations, want 3 (ceiling, missing name, allocs): %v", len(v), v)
	}
	if v := gate(entries, "", "^NoSuchBenchmark"); len(v) != 1 {
		t.Fatalf("unmatched -zeroalloc regexp must be a violation, got %v", v)
	}
	if v := gate(entries, "garbage", ""); len(v) != 1 {
		t.Fatalf("malformed ceiling spec must be a violation, got %v", v)
	}
}

func TestPrintDiff(t *testing.T) {
	entries, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	baseline := dir + "/base.json"
	if err := os.WriteFile(baseline, []byte(`[
  {"name": "BenchmarkAccessMESI", "runs": 6, "ns_per_op": 800.0},
  {"name": "BenchmarkGone", "runs": 6, "ns_per_op": 42.0}
]`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := dir + "/diff.txt"
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := printDiff(f, baseline, entries, hostOf([]byte(sample))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	text, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got := string(text)
	for _, want := range []string{"-12.1%", "new", "removed", "BenchmarkGone", "BenchmarkEngineEventThroughput",
		"WARNING: baseline has no host stamp"} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
}

func TestHostOfReadsBenchmarkHeader(t *testing.T) {
	h := hostOf([]byte(sample))
	if h.GOMAXPROCS != 8 || h.CPU != "Test CPU @ 1.00GHz" || h.NumCPU < 1 || h.GoVersion == "" {
		t.Fatalf("host = %+v, want GOMAXPROCS 8 from the -8 suffix and the cpu header", h)
	}
	if h := hostOf([]byte("BenchmarkX \t 10 \t 5 ns/op\n")); h.GOMAXPROCS != 1 {
		t.Fatalf("no -N suffix means GOMAXPROCS 1, got %d", h.GOMAXPROCS)
	}
}

// A stamped record round-trips through readRecord, legacy bare arrays
// still read, and -diff warns only when the hosts differ.
func TestRecordFormatsAndHostWarning(t *testing.T) {
	entries, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	host := hostOf([]byte(sample))
	dir := t.TempDir()
	stamped := dir + "/stamped.json"
	data, err := json.Marshal(Record{Host: &host, Benchmarks: entries})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stamped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := readRecord(stamped)
	if err != nil || rec.Host == nil || *rec.Host != host || len(rec.Benchmarks) != 3 {
		t.Fatalf("stamped record = %+v, err %v", rec, err)
	}
	legacy, err := readRecord("../../BENCH_2026-08-05.json")
	if err != nil || legacy.Host != nil || len(legacy.Benchmarks) == 0 {
		t.Fatalf("legacy record: host %v, %d entries, err %v", legacy.Host, len(legacy.Benchmarks), err)
	}

	var out bytes.Buffer
	if err := printDiff(&out, stamped, entries, host); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "WARNING") {
		t.Fatalf("same host warned:\n%s", out.String())
	}
	other := host
	other.NumCPU++
	out.Reset()
	if err := printDiff(&out, stamped, entries, other); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "WARNING: hosts differ") {
		t.Fatalf("different host did not warn:\n%s", out.String())
	}
}
