// Write-after-read: the workload class where S-MESI's overprotection
// hurts most (Figure 10). Runs the paper's three array applications on
// both CPU models across all protocols and prints normalized execution
// times.
//
//	go run ./examples/writeafterread
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/coherence"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	for _, kind := range []workload.CPUKind{workload.TimingSimpleCPU, workload.DerivO3CPU} {
		tb := stats.NewTable(
			fmt.Sprintf("Write-after-read intensive applications (%s)", kind),
			"application", "MESI (cycles)", "SwiftDir (cycles)", "S-MESI (cycles)", "S-MESI slowdown")
		for _, app := range workload.WARApps() {
			var cycles []float64
			for _, p := range []coherence.Policy{coherence.MESI, coherence.SwiftDir, coherence.SMESI} {
				r, err := workload.RunWAR(context.Background(), app, p, kind, 3)
				if err != nil {
					log.Fatal(err)
				}
				cycles = append(cycles, float64(r.ExecCycles))
			}
			tb.AddRowF(app.Name, cycles[0], cycles[1], cycles[2],
				fmt.Sprintf("%.2fx", cycles[2]/cycles[0]))
		}
		fmt.Println(tb.Render())
	}
	fmt.Println("SwiftDir keeps MESI's silent E->M upgrade for this unshared data,")
	fmt.Println("so it matches MESI exactly; S-MESI pays an Upgrade round trip per block.")
}
