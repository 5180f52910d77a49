// Command fi-stats performs the paper's statistical analyses on its
// published data: the Table 4 contingency-table example, the Table 5
// chi-squared tests, sample-size calculations (§5.3), and the published
// Figure 5 normalization beside the cycle model's cost constants.
//
// It analyzes the paper's published Table 6 data through the renderers a
// measured suite uses (experiments.PaperSuite): LLFI comes out significantly
// different from PINFI on every app, REFINE on one — CoMD, at p ≈ 0.047,
// just inside α = 0.05. fi-campaign prints the measured counterparts of
// every table.
//
// Usage:
//
//	fi-stats [-table4] [-table5] [-samplesize] [-margin 0.03] [-ci]
//
// -ci adds a rate table with 95% Wilson confidence-interval columns over the
// published Table 6 counts.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/pinfi"
	"repro/internal/stats"
	"repro/internal/vx"
	"repro/internal/workloads"
)

func main() {
	table4 := flag.Bool("table4", true, "print the Table 4 contingency example")
	table5 := flag.Bool("table5", true, "print Table 5 chi-squared tests on the published data")
	sampleSize := flag.Bool("samplesize", true, "print the Leveugle sample-size table")
	margin := flag.Float64("margin", 0.03, "margin of error for -samplesize")
	ci := flag.Bool("ci", false, "add a rate table with 95% Wilson confidence-interval columns over the published Table 6 counts")
	flag.Parse()

	paper := experiments.PaperSuite()

	if *sampleSize {
		fmt.Printf("Sample size (margin %.0f%%, 95%% confidence):\n", *margin*100)
		for _, pop := range []int64{1000, 10_000, 100_000, 1_000_000, 1 << 40} {
			fmt.Printf("  population %12d -> n = %d\n", pop, stats.SampleSize(pop, *margin, stats.Z95))
		}
		fmt.Printf("The paper's configuration (margin 3%%, huge population): n = %d\n\n",
			stats.SampleSize(1<<40, 0.03, stats.Z95))
	}

	if *table4 {
		fmt.Println("Published data:", paper.Table4("AMG2013"))
	}

	if *table5 {
		t5, err := paper.Table5()
		if err != nil {
			fatal(err)
		}
		sig, err := paper.SummaryCounts()
		if err != nil {
			fatal(err)
		}
		fmt.Println("Published data:", t5)
		fmt.Printf("-> significantly different: LLFI %d/%d, REFINE %d/%d\n\n",
			sig["LLFI"], len(paper.Order), sig["REFINE"], len(paper.Order))
	}

	if *ci {
		fmt.Println("Published data:", paper.Figure4())
	}

	fig5 := experiments.PaperFigure5()
	fmt.Println("Paper's published normalization for reference:")
	fmt.Printf("%-10s %8s %8s\n", "App", "LLFI", "REFINE")
	var apps []string
	for _, app := range workloads.Registry() {
		apps = append(apps, app.Name)
	}
	for _, app := range append(apps, "Total") {
		if v, ok := fig5[app]; ok {
			fmt.Printf("%-10s %8.1f %8.1f\n", app, v[0], v[1])
		}
	}

	costs := pinfi.DefaultCosts()
	fmt.Printf("\nCost model: PIN per-instr callback %d cycles, JIT %d cycles/static-instr, host call %d cycles.\n",
		costs.PerInstr, costs.JITPerStaticInstr, vx.HostCallCycles)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fi-stats:", err)
	os.Exit(1)
}
