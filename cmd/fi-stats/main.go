// Command fi-stats performs the paper's statistical analyses on campaign
// results: the Table 4 contingency-table example, the Table 5 chi-squared
// tests, sample-size calculations (§5.3), and a side-by-side comparison of
// the published Table 6 numbers against locally measured ones.
//
// With no input file it analyzes the paper's published Table 6 data through
// the renderers a measured suite uses (experiments.PaperSuite): LLFI comes
// out significantly different from PINFI on every app, REFINE on one — CoMD,
// at p ≈ 0.047, just inside α = 0.05.
//
// With -measure it additionally runs a live suite — on one work-stealing
// executor and, with -cache-dir, the disk-persistent build/profile cache —
// and prints the measured Table 5 next to the published verdicts. -workers
// sizes the executor (0 = GOMAXPROCS, 1 = serial); -shards N instead fans
// the campaigns across N re-exec'd worker processes sharing the -cache-dir;
// repeated invocations with the same -cache-dir skip every build and golden
// profile. Measured verdicts are bit-identical across all execution modes.
//
// Usage:
//
//	fi-stats [-table4] [-table5] [-samplesize] [-margin 0.03] [-ci]
//	         [-measure] [-apps CSV] [-trials 1068] [-seed 1] [-precision 0]
//	         [-workers 0] [-shards 0] [-cache-dir DIR]
//
// -ci adds 95% Wilson confidence-interval columns: a rate table over the
// published Table 6 counts, plus the measured Figure 4 under -measure.
// -precision enables adaptive trial allocation for measured suites (stop
// at a target Wilson-CI half-width instead of a fixed -trials).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/shard"
	"repro/internal/stats"

	// Register the extension injectors so measured suites can reference
	// them, matching fi-campaign's registry.
	_ "repro/internal/multibit"
	_ "repro/internal/opcodefi"
)

func main() {
	shard.MaybeWorker() // re-exec'd shard workers never reach flag parsing
	table4 := flag.Bool("table4", true, "print the Table 4 contingency example")
	table5 := flag.Bool("table5", true, "print Table 5 chi-squared tests on the published data")
	sampleSize := flag.Bool("samplesize", true, "print the Leveugle sample-size table")
	margin := flag.Float64("margin", 0.03, "margin of error for -samplesize")
	ci := flag.Bool("ci", false, "add 95% Wilson confidence-interval columns: a rate table over the published Table 6 counts, and the measured Figure 4 under -measure")
	measure := flag.Bool("measure", false, "run a live suite and print the measured Table 5")
	var f experiments.Flags // the -measure suite's execution flags
	f.Register(flag.CommandLine, campaign.PaperTrials)
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

	if *measure {
		if err := runMeasured(&f, *ci); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fi-stats:", err)
	os.Exit(1)
}

// runMeasured runs a live suite and prints the measured Table 5.
func runMeasured(f *experiments.Flags, ci bool) error {
	cfg, closeRun, err := f.Open()
	if err != nil {
		return err
	}
	defer closeRun()
	suite, err := experiments.RunSuite(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("\nMeasured suite (n=%d per cell):\n", suite.Trials)
	experiments.Report(os.Stdout, cfg)
	if ci {
		fmt.Println(suite.Figure4())
	}
	t5, err := suite.Table5()
	if err != nil {
		return err
	}
	fmt.Println(t5)
	return nil
}
