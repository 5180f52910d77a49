// Command fi-stats performs the paper's statistical analyses on campaign
// results: the Table 4 contingency-table example, the Table 5 chi-squared
// tests, sample-size calculations (§5.3), and a side-by-side comparison of
// the published Table 6 numbers against locally measured ones.
//
// With no input file it analyzes the paper's published Table 6 data,
// verifying that the statistical machinery reproduces the published
// conclusions (LLFI significantly different from PINFI on every app; REFINE
// on none).
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
	"sort"

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
	f.Register(flag.CommandLine, 1068)
	flag.Parse()

	paper := experiments.PaperTable6()
	var apps []string
	for app := range paper {
		apps = append(apps, app)
	}
	sort.Strings(apps)

	if *sampleSize {
		fmt.Printf("Sample size (margin %.0f%%, 95%% confidence):\n", *margin*100)
		for _, pop := range []int64{1000, 10_000, 100_000, 1_000_000, 1 << 40} {
			fmt.Printf("  population %12d -> n = %d\n", pop, stats.SampleSize(pop, *margin, stats.Z95))
		}
		fmt.Printf("The paper's configuration (margin 3%%, huge population): n = %d\n\n",
			stats.SampleSize(1<<40, 0.03, stats.Z95))
	}

	if *table4 {
		l := paper["AMG2013"]["LLFI"]
		p := paper["AMG2013"]["PINFI"]
		fmt.Println("Table 4 (published AMG2013 data):")
		fmt.Printf("%-8s %8s %8s %8s %8s\n", "Tool", "Crash", "SOC", "Benign", "Total")
		fmt.Printf("%-8s %8d %8d %8d %8d\n", "LLFI", l.Crash, l.SOC, l.Benign, l.Total())
		fmt.Printf("%-8s %8d %8d %8d %8d\n", "PINFI", p.Crash, p.SOC, p.Benign, p.Total())
		fmt.Println()
	}

	if *table5 {
		fmt.Println("Table 5 reproduced from the published Table 6 counts:")
		for _, cmp := range []string{"LLFI", "REFINE"} {
			fmt.Printf("\n%s vs PINFI:\n%-10s %10s %10s %6s\n", cmp, "App", "chi2", "p-value", "diff?")
			sig := 0
			for _, app := range apps {
				base := paper[app]["PINFI"]
				c := paper[app][cmp]
				res, err := stats.CompareCounts(app, "PINFI", cmp,
					[3]int64{int64(base.Crash), int64(base.SOC), int64(base.Benign)},
					[3]int64{int64(c.Crash), int64(c.SOC), int64(c.Benign)})
				if err != nil {
					fmt.Fprintln(os.Stderr, "fi-stats:", err)
					os.Exit(1)
				}
				y := "no"
				if res.Significant {
					y = "yes"
					sig++
				}
				fmt.Printf("%-10s %10.3f %10.2e %6s\n", app, res.Stat, res.P, y)
			}
			fmt.Printf("-> %d/%d significantly different\n", sig, len(apps))
		}
	}

	if *ci {
		fmt.Println("\nPublished outcome rates ±95% Wilson CI (from the Table 6 counts):")
		fmt.Printf("%-10s %-8s %22s %22s %22s\n", "App", "Tool", "Crash%", "SOC%", "Benign%")
		for _, app := range apps {
			for _, tool := range []string{"LLFI", "REFINE", "PINFI"} {
				c := paper[app][tool]
				n := c.Total()
				cell := func(k int) string {
					lo, hi := stats.WilsonCI(k, n, stats.Z95)
					return fmt.Sprintf("%5.1f [%5.1f,%5.1f]", 100*float64(k)/float64(n), 100*lo, 100*hi)
				}
				fmt.Printf("%-10s %-8s %22s %22s %22s\n", app, tool, cell(c.Crash), cell(c.SOC), cell(c.Benign))
			}
		}
	}

	if *measure {
		if err := runMeasured(&f, *ci); err != nil {
			fmt.Fprintln(os.Stderr, "fi-stats:", err)
			os.Exit(1)
		}
	}
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
