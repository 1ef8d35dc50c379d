package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/mmu"
	"repro/internal/sim"
)

// cancelWorkload drives a fixed stream of real memory accesses — the
// same shape as the healthy-watchdog run, so both the control and the
// cancelled machine execute an identical event schedule.
func cancelWorkload(m *Machine) {
	p := m.NewProcess()
	ctx := p.AttachContext(0)
	heap := p.MmapAnon(64 * 1024)
	for i := 0; i < 1_000; i++ {
		v := heap + mmu.VAddr((i%512)*64)
		ctx.MustAccessSync(v, i%3 == 0, uint64(i))
	}
	m.Quiesce()
}

// A context cancelled mid-run must abort the machine as a typed KindCancelled
// violation with the full diagnostic, having executed strictly fewer
// events than the identical uncancelled run — the cancellation analogue
// of the watchdog's liveness trip.
func TestMachineCancelAbortsMidRun(t *testing.T) {
	// Control: the full run, uncancelled.
	ctrl := MustNewMachine(DefaultConfig(1, coherence.SwiftDir))
	cancelWorkload(ctrl)
	total := ctrl.Sys.ExecutedEvents()
	horizon := ctrl.Now()
	if total == 0 || horizon == 0 {
		t.Fatalf("empty control run: %d events, %d cycles", total, horizon)
	}

	// Identical machine whose context is cancelled mid-run. The context
	// sets the machine's stop flag from its own goroutine; the event waits
	// for it so the abort lands at a deterministic point.
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cfg := DefaultConfig(1, coherence.SwiftDir)
	cfg.Context = ctx
	m := MustNewMachine(cfg)
	m.Engine().Schedule(sim.Cycle(horizon/2), func() {
		cancel(errors.New("client went away"))
		for deadline := time.Now().Add(10 * time.Second); !m.stop.Load() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	})

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		cancelWorkload(m)
	}()
	v := fault.AsViolation(recovered)
	if v == nil {
		t.Fatalf("recovered %v (%T), want *fault.Violation", recovered, recovered)
	}
	if v.Kind != fault.KindCancelled || v.Component != "cancel" {
		t.Errorf("violation = kind %q component %q, want cancelled/cancel", v.Kind, v.Component)
	}
	if !strings.Contains(v.Msg, "client went away") {
		t.Errorf("Msg = %q, want the request reason", v.Msg)
	}
	for _, frag := range []string{"-- cancellation pending snapshot --", "=== system state at cycle"} {
		if !strings.Contains(v.Dump, frag) {
			t.Errorf("dump missing %q", frag)
		}
	}
	got := m.Sys.ExecutedEvents()
	if got == 0 || got >= total {
		t.Errorf("cancelled run executed %d events, control %d; want 0 < got < control", got, total)
	}
}

// A machine built with no context, or one that can never be cancelled,
// must run the same workload to completion with nothing armed —
// cancellation is strictly opt-in.
func TestMachineCancelAbsentByDefault(t *testing.T) {
	m := MustNewMachine(DefaultConfig(1, coherence.MESI))
	cfg := DefaultConfig(1, coherence.MESI)
	cfg.Context = context.Background()
	bg := MustNewMachine(cfg)
	if m.stop != nil || bg.stop != nil {
		t.Fatal("a nil or background context armed a stop flag")
	}
	cancelWorkload(m)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A cancellable context that never fires must be free: the armed run
// executes the exact same event count as the unarmed control.
func TestMachineCancelUnfiredIsByteIdentical(t *testing.T) {
	ctrl := MustNewMachine(DefaultConfig(1, coherence.MESI))
	cancelWorkload(ctrl)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := DefaultConfig(1, coherence.MESI)
	cfg.Context = ctx
	m := MustNewMachine(cfg)
	if m.stop == nil {
		t.Fatal("a cancellable context did not arm the machine")
	}
	cancelWorkload(m)

	if m.Sys.ExecutedEvents() != ctrl.Sys.ExecutedEvents() || m.Now() != ctrl.Now() {
		t.Errorf("armed-but-unfired run diverged: %d events @%d vs control %d events @%d",
			m.Sys.ExecutedEvents(), m.Now(), ctrl.Sys.ExecutedEvents(), ctrl.Now())
	}
}
