package workload

import (
	"context"
	"testing"

	"repro/internal/coherence"
	"repro/internal/fault"
)

func TestKernelsWellFormed(t *testing.T) {
	if len(Kernels()) != 3 {
		t.Fatalf("kernels = %d", len(Kernels()))
	}
	if _, ok := KernelByName("gups"); !ok {
		t.Fatal("gups missing")
	}
	if _, ok := KernelByName("nope"); ok {
		t.Fatal("bogus kernel resolved")
	}
	if _, err := RunKernel(context.Background(), Kernels()[0], coherence.MESI, DerivO3CPU, 100); err == nil {
		t.Fatal("tiny working set accepted")
	}
}

// The kernels' performance signatures must order correctly on the O3
// model: stream (sequential, MLP) >> gups (random RMW) >> pointer-chase
// (serialized loads).
func TestKernelSignatures(t *testing.T) {
	const ws = 512 << 10 // larger than L1, fits LLC? 512KB < 2MB bank
	ipc := map[string]float64{}
	walks := map[string]uint64{}
	for _, k := range Kernels() {
		r, err := RunKernel(context.Background(), k, coherence.MESI, DerivO3CPU, ws)
		if err != nil {
			t.Fatal(err)
		}
		ipc[k.Name] = r.IPC
		walks[k.Name] = 0
		t.Logf("%-14s IPC=%.3f instrs=%d cycles=%d", k.Name, r.IPC, r.Instrs, r.ExecCycles)
	}
	if !(ipc["stream-triad"] > 2*ipc["gups"]) {
		t.Fatalf("stream (%.3f) not clearly above gups (%.3f)", ipc["stream-triad"], ipc["gups"])
	}
	if !(ipc["gups"] > 2*ipc["pointer-chase"]) {
		t.Fatalf("gups (%.3f) not clearly above pointer-chase (%.3f)", ipc["gups"], ipc["pointer-chase"])
	}
}

// Pointer chasing is latency-bound: the in-order and O3 models converge
// (out-of-order cannot help a fully serialized chain).
func TestPointerChaseDefeatsOoO(t *testing.T) {
	k, _ := KernelByName("pointer-chase")
	inorder, err := RunKernel(context.Background(), k, coherence.MESI, TimingSimpleCPU, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	o3, err := RunKernel(context.Background(), k, coherence.MESI, DerivO3CPU, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(inorder.ExecCycles) / float64(o3.ExecCycles)
	if ratio > 1.3 {
		t.Fatalf("O3 %.2fx faster than in-order on a serialized chain", ratio)
	}
}

// Stream is where O3's MLP shines: it must beat in-order decisively.
func TestStreamLovesOoO(t *testing.T) {
	k, _ := KernelByName("stream-triad")
	inorder, err := RunKernel(context.Background(), k, coherence.MESI, TimingSimpleCPU, 192<<10)
	if err != nil {
		t.Fatal(err)
	}
	o3, err := RunKernel(context.Background(), k, coherence.MESI, DerivO3CPU, 192<<10)
	if err != nil {
		t.Fatal(err)
	}
	if float64(inorder.ExecCycles) < 2*float64(o3.ExecCycles) {
		t.Fatalf("O3 (%d) not clearly faster than in-order (%d) on stream", o3.ExecCycles, inorder.ExecCycles)
	}
}

// A done ctx aborts RunKernel mid-simulation with a typed cancellation,
// the way it aborts Run, RunReadOnly and RunWAR.
func TestRunKernelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k, _ := KernelByName("stream-triad")
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		RunKernel(ctx, k, coherence.MESI, DerivO3CPU, 512<<10)
	}()
	v := fault.AsViolation(recovered)
	if v == nil || v.Kind != fault.KindCancelled {
		t.Fatalf("recovered %v (%T), want a %q violation", recovered, recovered, fault.KindCancelled)
	}
}
