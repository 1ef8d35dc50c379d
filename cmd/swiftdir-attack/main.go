// Command swiftdir-attack demonstrates the E/S coherence timing-channel
// attacks against all three protocols: the covert channel leaks on MESI
// and collapses to guessing under SwiftDir and S-MESI; likewise the
// access-detection side channel.
//
// Usage:
//
//	swiftdir-attack [-bits n] [-trials n] [-secret text] [-policies a,b,...]
//	                [-scale]
//
// -policies selects which protocols the exfiltration demo runs against
// (any names coherence.PolicyByName resolves, e.g. Phase-Priority to show
// that directory arbitration alone leaves the channel open). -scale
// appends the machine-scaling study: the covert channel re-run on 16- and
// 64-core mesh machines with a two-level directory, against both a naive
// and a calibrating attacker.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/prof"
)

func main() {
	bits := flag.Int("bits", 1024, "covert-channel bits")
	trials := flag.Int("trials", 512, "side-channel trials")
	secret := flag.String("secret", "SwiftDir", "ASCII secret to exfiltrate in the demo")
	policyList := flag.String("policies", "MESI,SwiftDir",
		"comma-separated policies for the exfiltration demo")
	scale := flag.Bool("scale", false, "append the covert-channel scaling study (mesh, two-level directory)")
	var pf prof.Flags
	pf.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "swiftdir-attack: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "swiftdir-attack: profile: %v\n", err)
		}
	}()

	var demoPolicies []coherence.Policy
	for _, name := range strings.Split(*policyList, ",") {
		p := coherence.PolicyByName(strings.TrimSpace(name))
		if p == nil {
			fmt.Fprintf(os.Stderr, "swiftdir-attack: unknown policy %q\n", name)
			os.Exit(2)
		}
		demoPolicies = append(demoPolicies, p)
	}

	_, _, report := experiments.Security(context.Background(), *bits, *trials)
	fmt.Println(report)

	// Bonus demo: exfiltrate an actual ASCII secret through the channel.
	fmt.Printf("Exfiltrating %q through the covert channel:\n", *secret)
	payload := []byte(*secret)
	for _, p := range demoPolicies {
		ch, err := attack.NewChannel(core.DefaultConfig(4, p), len(payload)*8)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swiftdir-attack: %v\n", err)
			os.Exit(1)
		}
		out := make([]byte, len(payload))
		for i := 0; i < len(payload)*8; i++ {
			bit := payload[i/8]>>(7-uint(i%8))&1 == 1
			if err := ch.Transmit(i, bit); err != nil {
				fmt.Fprintf(os.Stderr, "swiftdir-attack: %v\n", err)
				os.Exit(1)
			}
			got, _, err := ch.Probe(i)
			if err != nil {
				fmt.Fprintf(os.Stderr, "swiftdir-attack: %v\n", err)
				os.Exit(1)
			}
			if got {
				out[i/8] |= 1 << (7 - uint(i%8))
			}
		}
		fmt.Printf("  %-9s receiver decoded: %q\n", p.Name(), printable(out))
	}

	if *scale {
		fmt.Println()
		fmt.Println(experiments.ScaleAttack(context.Background(), *bits/8))
	}
}

func printable(b []byte) string {
	out := make([]byte, len(b))
	for i, c := range b {
		if c >= 32 && c < 127 {
			out[i] = c
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}
