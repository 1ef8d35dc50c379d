package workload

import (
	"context"
	"strings"
	"testing"

	"repro/internal/coherence"
)

func TestMultiprogramSmoke(t *testing.T) {
	mix := SPECRateMixes()["lib-heavy"]
	var small []Profile
	for _, p := range mix {
		small = append(small, p.Scale(0.02))
	}
	r, err := RunMultiprogram(context.Background(), small, coherence.SwiftDir, DerivO3CPU)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerThread) != 4 || r.Instrs == 0 {
		t.Fatalf("result %+v", r)
	}
	if !strings.Contains(r.Benchmark, "perlbench") {
		t.Fatalf("benchmark label %q", r.Benchmark)
	}
}

func TestMultiprogramValidation(t *testing.T) {
	if _, err := RunMultiprogram(context.Background(), nil, coherence.MESI, DerivO3CPU); err == nil {
		t.Fatal("empty mix accepted")
	}
	multi := PARSEC3()[0] // 4 threads: not allowed per program
	if _, err := RunMultiprogram(context.Background(), []Profile{multi}, coherence.MESI, DerivO3CPU); err == nil {
		t.Fatal("multithreaded profile accepted")
	}
}

func TestSPECRateMixesWellFormed(t *testing.T) {
	mixes := SPECRateMixes()
	if len(mixes) != 5 {
		t.Fatalf("mixes = %d", len(mixes))
	}
	for name, ps := range mixes {
		if len(ps) != 4 {
			t.Errorf("%s: %d programs", name, len(ps))
		}
		for _, p := range ps {
			if err := p.Validate(); err != nil {
				t.Errorf("%s/%s: %v", name, p.Name, err)
			}
		}
	}
}

// The multiprogrammed lib-heavy mix is where SwiftDir's cross-process
// library sharing gains should be visible: faster than (or equal to) MESI.
func TestMultiprogramSwiftDirNotSlower(t *testing.T) {
	var small []Profile
	for _, p := range SPECRateMixes()["lib-heavy"] {
		small = append(small, p.Scale(0.05))
	}
	mesi, err := RunMultiprogram(context.Background(), small, coherence.MESI, DerivO3CPU)
	if err != nil {
		t.Fatal(err)
	}
	swift, err := RunMultiprogram(context.Background(), small, coherence.SwiftDir, DerivO3CPU)
	if err != nil {
		t.Fatal(err)
	}
	if float64(swift.ExecCycles) > 1.01*float64(mesi.ExecCycles) {
		t.Fatalf("SwiftDir %d much slower than MESI %d on the lib-heavy mix", swift.ExecCycles, mesi.ExecCycles)
	}
	t.Logf("MESI=%d SwiftDir=%d (%.3f)", mesi.ExecCycles, swift.ExecCycles, float64(swift.ExecCycles)/float64(mesi.ExecCycles))
}
