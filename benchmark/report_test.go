package main

import (
	"fmt"
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0: refused
	}{
		{100, 0.90, 90},
		{99, 0.90, 0},
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{20, 0.50, 10},
		{19, 0.50, 0},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want refusal", 100*tc.q, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", 100*tc.q, tc.n, got, err, tc.want)
		}
	}
}

func TestAddPercentileRecordsRefusal(t *testing.T) {
	var rep report
	rep.addPercentile("job_ms_p90", seq(50), 0.9, "ms")
	if _, ok := rep.lookup("job_ms_p90"); ok || len(rep.refused) != 1 {
		t.Errorf("thin-tailed percentile reported: metrics %v, refused %v", rep.metrics, rep.refused)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 2, 3}); math.Abs(m-2.5) > 1e-12 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSummaryForPicksTheListedMetrics(t *testing.T) {
	spec := benchSpec{
		EndToEnd: []specMetric{{Name: "throughput", Unit: "1/s"}, {Name: "setup_s", Unit: "s"}},
		PerLayer: []specMetric{{Name: "sim.cpu_pct", Unit: "%"}, {Name: "server.cpu_pct", Unit: "%"}},
	}
	if _, err := summaryFor(&report{}, spec, false); err == nil {
		t.Error("a run that attempted nothing was summarized")
	}
	rep := &report{}
	rep.record(nil)
	rep.add("throughput", 5, "1/s")
	rep.add("sim.cpu_pct", 40, "%")
	if _, err := summaryFor(rep, spec, false); err == nil {
		t.Error("untraced summary accepted without setup_s")
	}
	rep.add("setup_s", 0.5, "s")
	line, err := summaryFor(rep, spec, false)
	if err != nil || !line.Correct || len(line.Metrics) != 2 || line.Metrics["setup_s"] != (value{0.5, "s"}) {
		t.Errorf("untraced summary = %+v, %v", line, err)
	}
	line, err = summaryFor(rep, spec, true)
	if err != nil || len(line.Metrics) != 2 || line.Metrics["sim.cpu_pct"].Value != 40 || line.Metrics["server.cpu_pct"] != (value{0, "%"}) {
		t.Errorf("traced summary = %+v, %v", line, err)
	}
	rep.record(fmt.Errorf("wrong bytes"))
	if line, _ := summaryFor(rep, spec, false); line.Correct || line.Failed != 1 || line.Attempted != 2 {
		t.Errorf("summary after a failure = %+v", line)
	}
}
