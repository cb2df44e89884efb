// Scalingstudy: a miniature of the paper's Section VII-B strong-scaling
// experiment. It runs one problem across increasing core-group counts in
// timing-only mode, for both the synchronous and asynchronous schedulers,
// and prints wall times, speed-ups and strong-scaling efficiencies — the
// data behind Figure 5 and Table V.
//
//	go run ./examples/scalingstudy [problem]
package main

import (
	"fmt"
	"log"
	"os"

	"sunuintah/internal/experiments"
)

func main() {
	name := "32x64x512"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	prob, err := experiments.ProblemByName(name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strong scaling of %s (grid %v, %d steps per run)\n\n",
		prob.Name, prob.GridSize, experiments.Steps)

	sweep := experiments.NewSweep(experiments.Options{})
	defer sweep.Close()
	fmt.Printf("%6s  %14s %9s %6s   %14s %9s %6s\n",
		"CGs", "sync s/step", "speedup", "eff", "async s/step", "speedup", "eff")

	var baseSync, baseAsync float64
	baseCGs := prob.MinCGs
	for _, cgs := range experiments.CGCounts {
		if cgs < prob.MinCGs {
			continue
		}
		vs, _ := experiments.VariantByName("acc_simd.sync")
		va, _ := experiments.VariantByName("acc_simd.async")
		rs, err := sweep.Run(prob, cgs, vs)
		if err != nil {
			log.Fatal(err)
		}
		ra, err := sweep.Run(prob, cgs, va)
		if err != nil {
			log.Fatal(err)
		}
		ts, ta := rs.PerStepSeconds(), ra.PerStepSeconds()
		if cgs == baseCGs {
			baseSync, baseAsync = ts, ta
		}
		fmt.Printf("%6d  %14.4f %8.2fx %5.0f%%   %14.4f %8.2fx %5.0f%%\n",
			cgs,
			ts, baseSync/ts, experiments.StrongScalingEfficiency(baseSync, baseCGs, ts, cgs),
			ta, baseAsync/ta, experiments.StrongScalingEfficiency(baseAsync, baseCGs, ta, cgs))
	}
	fmt.Printf("\nasync-over-sync improvement at each scale is Table VI/VII's metric;\n")
	fmt.Printf("run 'go run ./cmd/sunbench table6 table7' for the full matrices.\n")
}
