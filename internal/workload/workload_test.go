package workload

import (
	"context"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mmu"
	"repro/internal/sim"
)

func TestProfileValidate(t *testing.T) {
	good := SPEC2017()[0]
	if err := good.Validate(); err != nil {
		t.Fatalf("spec profile invalid: %v", err)
	}
	bad := good
	bad.MemFrac = 1.5
	if bad.Validate() == nil {
		t.Error("MemFrac > 1 accepted")
	}
	bad = good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("unnamed profile accepted")
	}
	bad = good
	bad.WorkingSetKB = 0
	if bad.Validate() == nil {
		t.Error("zero working set accepted")
	}
	bad = good
	bad.SharedFrac = 0.5
	bad.SharedKB = 0
	if bad.Validate() == nil {
		t.Error("shared accesses without region accepted")
	}
}

func TestAllSuiteProfilesValid(t *testing.T) {
	spec := SPEC2017()
	if len(spec) != 23 {
		t.Fatalf("SPEC suite has %d profiles, want 23", len(spec))
	}
	parsec := PARSEC3()
	if len(parsec) != 13 {
		t.Fatalf("PARSEC suite has %d profiles, want 13", len(parsec))
	}
	seen := map[string]bool{}
	for _, p := range append(spec, parsec...) {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		key := p.Suite + "/" + p.Name
		if seen[key] {
			t.Errorf("duplicate profile %s", key)
		}
		seen[key] = true
	}
	for _, p := range spec {
		if p.Threads != 1 {
			t.Errorf("SPEC %s has %d threads", p.Name, p.Threads)
		}
	}
	for _, p := range parsec {
		if p.Threads != 4 {
			t.Errorf("PARSEC %s has %d threads", p.Name, p.Threads)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("mcf"); !ok {
		t.Error("mcf not found")
	}
	if _, ok := ProfileByName("canneal"); !ok {
		t.Error("canneal not found")
	}
	if _, ok := ProfileByName("nonesuch"); ok {
		t.Error("nonexistent benchmark found")
	}
}

func TestScale(t *testing.T) {
	p := SPEC2017()[0]
	s := p.Scale(0.1)
	if s.Instrs != p.Instrs/10 {
		t.Fatalf("scaled instrs = %d", s.Instrs)
	}
	tiny := p.Scale(0.000001)
	if tiny.Instrs != 1000 {
		t.Fatalf("floor = %d", tiny.Instrs)
	}
}

func TestGeneratorDeterministicAndExhaustive(t *testing.T) {
	p := SPEC2017()[0].Scale(0.05)
	mk := func() []cpu.Instr {
		g := newGenerator(p, 0x40000000, 0x50000000, 7)
		var out []cpu.Instr
		for {
			ins, ok := g.Next()
			if !ok {
				break
			}
			out = append(out, ins)
		}
		return out
	}
	a, b := mk(), mk()
	if len(a) != len(b) || len(a) < p.Instrs {
		t.Fatalf("lengths %d vs %d (instrs %d)", len(a), len(b), p.Instrs)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestGeneratorRespectsFractions(t *testing.T) {
	p := Profile{
		Name: "frac", Suite: "micro", Threads: 1, Instrs: 50000,
		MemFrac: 0.5, StoreFrac: 0.4, WARFrac: 0, SharedFrac: 0.3,
		SeqFrac: 0.5, FPFrac: 0.5, DepFrac: 0.3,
		WorkingSetKB: 64, SharedKB: 64, Seed: 3,
	}
	g := newGenerator(p, 0x40000000, 0x50000000, 3)
	var mem, stores, shared, total int
	for {
		ins, ok := g.Next()
		if !ok {
			break
		}
		total++
		if ins.Op.IsMem() {
			mem++
			if ins.Op == cpu.OpStore {
				stores++
			}
			if ins.Addr >= 0x50000000 {
				shared++
			}
		}
	}
	memFrac := float64(mem) / float64(total)
	if memFrac < 0.45 || memFrac > 0.55 {
		t.Fatalf("mem fraction = %v", memFrac)
	}
	storeFrac := float64(stores) / float64(mem)
	if storeFrac < 0.35 || storeFrac > 0.45 {
		t.Fatalf("store fraction = %v", storeFrac)
	}
	if shared == 0 {
		t.Fatal("no shared accesses generated")
	}
}

func TestGeneratorWARPairs(t *testing.T) {
	p := Profile{
		Name: "war", Suite: "micro", Threads: 1, Instrs: 10000,
		MemFrac: 0.6, StoreFrac: 0.5, WARFrac: 1.0,
		SeqFrac: 0.5, WorkingSetKB: 64, Seed: 5,
	}
	g := newGenerator(p, 0x40000000, 0, 5)
	var prev cpu.Instr
	pairs, stores := 0, 0
	for {
		ins, ok := g.Next()
		if !ok {
			break
		}
		if ins.Op == cpu.OpStore {
			stores++
			if prev.Op == cpu.OpLoad && prev.Addr == ins.Addr {
				pairs++
			}
		}
		prev = ins
	}
	if stores == 0 || pairs != stores {
		t.Fatalf("WAR pairs %d of %d stores; want all", pairs, stores)
	}
}

func TestGeneratorBarrierCadence(t *testing.T) {
	p := PARSEC3()[0].Scale(0.1)
	g := newGenerator(p, 0x40000000, 0x50000000, 1)
	barriers := 0
	for {
		ins, ok := g.Next()
		if !ok {
			break
		}
		if ins.Op == cpu.OpBarrier {
			barriers++
		}
	}
	want := p.Instrs / p.BarrierEvery
	if barriers != want {
		t.Fatalf("barriers = %d, want %d", barriers, want)
	}
}

func TestRunSingleThreadedSmoke(t *testing.T) {
	p := SPEC2017()[0].Scale(0.02) // 4000 instrs
	for _, proto := range coherence.Policies {
		r, err := Run(context.Background(), p, proto, DerivO3CPU)
		if err != nil {
			t.Fatalf("%s: %v", proto.Name(), err)
		}
		if r.Instrs < uint64(p.Instrs) {
			t.Fatalf("%s: committed %d < %d", proto.Name(), r.Instrs, p.Instrs)
		}
		if r.ExecCycles == 0 || r.IPC <= 0 {
			t.Fatalf("%s: empty result %+v", proto.Name(), r)
		}
	}
}

func TestRunMultiThreadedSmoke(t *testing.T) {
	p := PARSEC3()[3].Scale(0.03) // dedup, ~3600 instrs/thread
	r, err := Run(context.Background(), p, coherence.SwiftDir, DerivO3CPU)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerThread) != 4 {
		t.Fatalf("threads = %d", len(r.PerThread))
	}
	for i, s := range r.PerThread {
		if s.Instructions == 0 {
			t.Fatalf("thread %d committed nothing", i)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	p := SPEC2017()[4].Scale(0.02)
	a, err := Run(context.Background(), p, coherence.SMESI, TimingSimpleCPU)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), p, coherence.SMESI, TimingSimpleCPU)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecCycles != b.ExecCycles || a.Instrs != b.Instrs {
		t.Fatalf("nondeterministic: %v vs %v", a.ExecCycles, b.ExecCycles)
	}
}

func TestRunRejectsInvalidProfile(t *testing.T) {
	p := SPEC2017()[0]
	p.MemFrac = 2
	if _, err := Run(context.Background(), p, coherence.MESI, DerivO3CPU); err == nil {
		t.Fatal("invalid profile accepted")
	}
	if _, err := RunReadOnly(context.Background(), 0, coherence.MESI, DerivO3CPU); err == nil {
		t.Fatal("zero amount accepted")
	}
	if _, err := RunWAR(context.Background(), WARApps()[0], coherence.MESI, DerivO3CPU, 0); err == nil {
		t.Fatal("zero passes accepted")
	}
}

// Figure 9's shape: the read-only re-access is faster under SwiftDir and
// S-MESI than under MESI.
func TestReadOnlySharedFasterUnderDefenses(t *testing.T) {
	mesi, err := RunReadOnly(context.Background(), 1000, coherence.MESI, DerivO3CPU)
	if err != nil {
		t.Fatal(err)
	}
	swift, err := RunReadOnly(context.Background(), 1000, coherence.SwiftDir, DerivO3CPU)
	if err != nil {
		t.Fatal(err)
	}
	smesi, err := RunReadOnly(context.Background(), 1000, coherence.SMESI, DerivO3CPU)
	if err != nil {
		t.Fatal(err)
	}
	if swift.ExecCycles >= mesi.ExecCycles {
		t.Fatalf("SwiftDir %d !< MESI %d", swift.ExecCycles, mesi.ExecCycles)
	}
	if smesi.ExecCycles >= mesi.ExecCycles {
		t.Fatalf("S-MESI %d !< MESI %d", smesi.ExecCycles, mesi.ExecCycles)
	}
}

// Figure 10's shape: all three WAR apps are much slower under S-MESI and
// tie between MESI and SwiftDir, on both CPU models.
func TestWARAppsShape(t *testing.T) {
	for _, kind := range []CPUKind{TimingSimpleCPU, DerivO3CPU} {
		for _, app := range WARApps() {
			mesi, err := RunWAR(context.Background(), app, coherence.MESI, kind, 2)
			if err != nil {
				t.Fatal(err)
			}
			swift, err := RunWAR(context.Background(), app, coherence.SwiftDir, kind, 2)
			if err != nil {
				t.Fatal(err)
			}
			smesi, err := RunWAR(context.Background(), app, coherence.SMESI, kind, 2)
			if err != nil {
				t.Fatal(err)
			}
			if swift.ExecCycles != mesi.ExecCycles {
				t.Errorf("%s/%s: SwiftDir %d != MESI %d", kind, app.Name, swift.ExecCycles, mesi.ExecCycles)
			}
			if float64(smesi.ExecCycles) < 1.05*float64(mesi.ExecCycles) {
				t.Errorf("%s/%s: S-MESI %d not slower than MESI %d", kind, app.Name, smesi.ExecCycles, mesi.ExecCycles)
			}
		}
	}
}

func TestNewCPUPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown CPU kind accepted")
		}
	}()
	newCPU("weird", nil, nil, nil)
}

var _ = mmu.PageSize // keep import for readability of addresses above
var _ = sim.NewRNG

// Every runner reports IPC the same way: committed instructions over
// execution cycles, per thread.
func TestIPCIsPerThreadForEveryRunner(t *testing.T) {
	ctx := context.Background()
	spec := SPEC2017()[0].Scale(0.001)
	parsec := PARSEC3()[0].Scale(0.001)
	kernel, _ := KernelByName("gups")
	trace, err := Record(parsec)
	if err != nil {
		t.Fatal(err)
	}
	var mix []Profile
	for _, p := range SPECRateMixes()["compute"] {
		mix = append(mix, p.Scale(0.001))
	}
	for _, tc := range []struct {
		name string
		run  func() (Result, error)
	}{
		{"Run", func() (Result, error) { return Run(ctx, parsec, coherence.MESI, DerivO3CPU) }},
		{"RunDetailed", func() (Result, error) {
			r, _, err := RunDetailed(spec, core.DefaultConfig(2, coherence.MESI), TimingSimpleCPU)
			return r, err
		}},
		{"RunKernel", func() (Result, error) { return RunKernel(ctx, kernel, coherence.MESI, DerivO3CPU, 16<<10) }},
		{"RunReadOnly", func() (Result, error) { return RunReadOnly(ctx, 100, coherence.MESI, DerivO3CPU) }},
		{"RunWAR", func() (Result, error) { return RunWAR(ctx, WARApps()[0], coherence.MESI, TimingSimpleCPU, 1) }},
		{"RunMultiprogram", func() (Result, error) { return RunMultiprogram(ctx, mix, coherence.MESI, DerivO3CPU) }},
		{"Replay", func() (Result, error) { return Replay(trace, coherence.MESI, TimingSimpleCPU) }},
	} {
		r, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.ExecCycles == 0 || len(r.PerThread) == 0 {
			t.Fatalf("%s: empty run (%d cycles, %d threads)", tc.name, r.ExecCycles, len(r.PerThread))
		}
		want := float64(r.Instrs) / float64(r.ExecCycles) / float64(len(r.PerThread))
		if r.IPC != want {
			t.Errorf("%s: IPC %v, want %d instrs / %d cycles / %d threads = %v",
				tc.name, r.IPC, r.Instrs, r.ExecCycles, len(r.PerThread), want)
		}
	}
}
