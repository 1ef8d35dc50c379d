package stats

import "fmt"

// FastPathSummary reports how one run's CPU-side cache accesses split
// between the synchronous L1-hit fast path and the event engine (see
// DESIGN.md §5). The split is pure observability: disabling the fast
// path changes neither results nor statistics, only this summary.
type FastPathSummary struct {
	Label string
	Fast  uint64 // accesses completed synchronously (TryFastAccess)
	Slow  uint64 // accesses submitted to the event path
}

// Total returns the run's CPU-side access count.
func (s FastPathSummary) Total() uint64 { return s.Fast + s.Slow }

// Fraction returns the share of accesses served by the fast path, 0
// for an empty run.
func (s FastPathSummary) Fraction() float64 {
	if t := s.Total(); t > 0 {
		return float64(s.Fast) / float64(t)
	}
	return 0
}

// Footer renders the one-line fast-path accounting printed under each
// report. Like CampaignSummary.Footer it never goes on the deterministic
// report stream itself (swiftdir-bench prints it to stderr).
func (s FastPathSummary) Footer() string {
	label := s.Label
	if label == "" {
		label = "run"
	}
	return fmt.Sprintf("[fastpath %s] %d accesses: %d fast (%.1f%%), %d slow",
		label, s.Total(), s.Fast, 100*s.Fraction(), s.Slow)
}

// MergeFastPaths folds the per-run summaries of one experiment into a
// single line under the given label.
func MergeFastPaths(label string, summaries []FastPathSummary) FastPathSummary {
	out := FastPathSummary{Label: label}
	for _, s := range summaries {
		out.Fast += s.Fast
		out.Slow += s.Slow
	}
	return out
}

// TakeFastPaths returns nil: fast-path splits go to the Recorder on the
// run's context. It remains only because benchmark/sim.go, which the
// repository benchmark builds from this tree, still calls it; delete it
// together with that call.
func TakeFastPaths() []FastPathSummary { return nil }
