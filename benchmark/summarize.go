package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// stat summarizes one metric over a group of runs. Spread is the
// interquartile distance as a share of the median, with quartiles as
// Python's statistics.quantiles(values, n=4) computes them.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	Unit   string  `json:"unit"`
}

type group struct {
	Workload string          `json:"workload"`
	Traced   bool            `json:"traced"`
	Runs     int             `json:"runs"`
	Failed   int             `json:"failed_runs"`
	Seeds    []uint64        `json:"seeds"`
	Metrics  map[string]stat `json:"metrics"`
}

type summary struct {
	Host   hostStamp `json:"host"`
	Groups []*group  `json:"groups"`
	// TracingOverheadPct is, per workload, how much lower the traced runs'
	// median throughput is than the untraced runs'.
	TracingOverheadPct map[string]float64 `json:"tracing_overhead_pct,omitempty"`
}

// summarizeResults reads every result JSON in dir and prints, per
// workload and mode, each metric's median, quartiles and spread.
func summarizeResults(dir string, w io.Writer) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	var s summary
	groups := map[string]*group{}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		s.Host = r.Host
		key := fmt.Sprintf("%s/%v", r.Workload, r.Traced)
		g := groups[key]
		if g == nil {
			g = &group{Workload: r.Workload, Traced: r.Traced, Metrics: map[string]stat{}}
			groups[key] = g
			values[key] = map[string][]float64{}
			s.Groups = append(s.Groups, g)
		}
		g.Runs++
		g.Seeds = append(g.Seeds, r.Seed)
		if !r.Summary.Correct {
			g.Failed++
		}
		for _, m := range r.Metrics {
			values[key][m.Name] = append(values[key][m.Name], m.Value)
			units[m.Name] = m.Unit
		}
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("no results in %s", dir)
	}
	for key, g := range groups {
		for name, vs := range values[key] {
			q1, med, q3 := quartiles(vs)
			g.Metrics[name] = stat{Median: med, Q1: q1, Q3: q3, Spread: ratio(q3-q1, med), Unit: units[name]}
		}
	}
	sort.Slice(s.Groups, func(i, j int) bool {
		a, b := s.Groups[i], s.Groups[j]
		return a.Workload < b.Workload || a.Workload == b.Workload && !a.Traced && b.Traced
	})
	for _, g := range s.Groups {
		plain, traced := groups[g.Workload+"/false"], groups[g.Workload+"/true"]
		if g.Traced || plain == nil || traced == nil {
			continue
		}
		if s.TracingOverheadPct == nil {
			s.TracingOverheadPct = map[string]float64{}
		}
		p, t := plain.Metrics["throughput"].Median, traced.Metrics["throughput"].Median
		s.TracingOverheadPct[g.Workload] = 100 * ratio(p-t, p)
	}
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quartiles returns the three cut points of statistics.quantiles(vs,
// n=4) (the 'exclusive' method); a single value is its own quartiles.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q[0], q[1], q[2]
}
