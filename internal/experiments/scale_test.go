package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/coherence"
)

// TestScaleWorkerEquivalence: both scaling reports are byte-identical
// under one campaign worker or four — the repository's headline
// guarantee, covering 256-core mesh machines with a two-level directory.
func TestScaleWorkerEquivalence(t *testing.T) {
	j1, j4 := workersCtx(1), workersCtx(4)
	s1, a1 := Scale(j1), ScaleAttack(j1, 64)
	s4, a4 := Scale(j4), ScaleAttack(j4, 64)
	if s1 != s4 {
		t.Errorf("Scale differs between 1 and 4 workers:\n--- j1 ---\n%s\n--- j4 ---\n%s", s1, s4)
	}
	if a1 != a4 {
		t.Errorf("ScaleAttack differs between 1 and 4 workers:\n--- j1 ---\n%s\n--- j4 ---\n%s", a1, a4)
	}
	if len(s1) == 0 || len(a1) == 0 {
		t.Error("empty report")
	}
}

// TestScaleAttackCalibrationAt64Cores pins the experiment's headline
// claim at the API level: on the 64-core mesh the naive global threshold
// misdecodes MESI (distance noise), per-line calibration decodes it
// perfectly, and SwiftDir stays at guessing even for the calibrated
// attacker.
func TestScaleAttackCalibrationAt64Cores(t *testing.T) {
	const bits = 64
	run := func(p coherence.Policy) (naive int, r attack.Result) {
		cfg := scaleAttackConfig(64, p)
		th, err := attack.CalibrateThresholds(cfg, bits)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := attack.NewChannel(cfg, bits)
		if err != nil {
			t.Fatal(err)
		}
		ch.SetThresholds(th)
		r, err = ch.Run(bits, 0xA77AC4)
		if err != nil {
			t.Fatal(err)
		}
		for _, lat := range r.Latencies1 {
			if lat <= ch.Threshold {
				naive++
			}
		}
		for _, lat := range r.Latencies0 {
			if lat > ch.Threshold {
				naive++
			}
		}
		return naive, r
	}

	mesiNaive, mesi := run(coherence.MESI)
	if mesiNaive == 0 {
		t.Error("MESI naive decoding has no errors at 64 cores; mesh distance noise is not being modeled")
	}
	if mesi.Errors != 0 {
		t.Errorf("MESI calibrated decoding has %d errors; per-line thresholds should restore the channel", mesi.Errors)
	}
	if !mesi.Leaked {
		t.Error("MESI channel not leaked for the calibrated attacker")
	}

	_, swift := run(coherence.SwiftDir)
	if swift.BER < 0.25 {
		t.Errorf("SwiftDir calibrated BER %.3f below guessing threshold; channel should stay closed", swift.BER)
	}
	if swift.Leaked {
		t.Error("SwiftDir channel leaked at 64 cores")
	}
}

// TestScaleReportShape sanity-checks the rendered sweep: every geometry
// row is present for every protocol.
func TestScaleReportShape(t *testing.T) {
	report := Scale(context.Background())
	for _, want := range []string{"crossbar", "mesh 4x4", "mesh 8x8", "mesh 16x16", "2-level/32"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if got, want := strings.Count(report, "SwiftDir"), len(scaleGeoms()); got < want {
		t.Errorf("report has %d SwiftDir rows, want %d", got, want)
	}
}
