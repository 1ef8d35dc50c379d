package cpu

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// CPU is either execution model.
type CPU interface {
	Start(done func())
	Stats() Stats
}

// Run starts every CPU and drives the machine until all traces commit,
// returning the wall-clock execution time (the paper's multi-threaded
// metric: ROI execution time), measured to the latest per-thread
// FinishCycle.
func Run(m *core.Machine, cpus []CPU) sim.Cycle {
	start := m.Now()
	remaining := len(cpus)
	for _, c := range cpus {
		c.Start(func() { remaining-- })
	}
	m.RunWhile(func() bool { return remaining > 0 })
	if remaining > 0 {
		panic("cpu: threads did not finish (deadlock or missing barrier party)")
	}
	end := start
	for _, c := range cpus {
		if f := c.Stats().FinishCycle; f > end {
			end = f
		}
	}
	m.Quiesce()
	return end - start
}

// TotalInstructions sums committed instructions across CPUs.
func TotalInstructions(cpus []CPU) uint64 {
	var n uint64
	for _, c := range cpus {
		n += c.Stats().Instructions
	}
	return n
}
