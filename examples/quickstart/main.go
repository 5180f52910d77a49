// Quickstart: compile one benchmark with REFINE's backend instrumentation,
// run the profiling step, then inject a handful of single-bit faults and
// classify the outcomes — the full workflow of the paper's Figure 3 in a
// few calls to the campaign, workloads and pinfi packages.
package main

import (
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/pinfi"
	"repro/internal/workloads"

	// Register the extension injectors so any registered name, such as
	// "REFINE2", resolves below.
	_ "repro/internal/multibit"
	_ "repro/internal/opcodefi"
)

func main() {
	app, err := workloads.ByName("HPCCG")
	if err != nil {
		log.Fatal(err)
	}

	// Tools are pluggable injectors resolved through a registry; "REFINE"
	// here could be any registered name (e.g. "REFINE2", the double
	// bit-flip variant).
	tool, err := campaign.ToolByName("REFINE")
	if err != nil {
		log.Fatal(err)
	}

	// Build with the REFINE pipeline: IR → -O2 → backend → FI pass → binary.
	bin, err := campaign.BuildBinary(app, tool, campaign.DefaultBuildOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %s with REFINE: %d static FI sites\n", app.Name, bin.Sites)

	// Profiling step (paper Fig. 3a): dynamic target count + golden output.
	costs := pinfi.DefaultCosts()
	prof, err := bin.RunProfile(costs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profile: %d dynamic targets, %d golden outputs, budget %d instructions\n",
		prof.Targets, len(prof.Golden), prof.Budget)

	// Fault-injection trials (paper Fig. 3b).
	var counts fault.Counts
	for seed := uint64(1); seed <= 25; seed++ {
		tr := bin.RunTrial(prof, costs, seed)
		counts.Add(tr.Outcome)
		if seed <= 8 {
			fmt.Printf("  seed %2d: %-6s  (%s)\n", seed, tr.Outcome, tr.Rec)
		}
	}
	fmt.Printf("25 trials: crash=%d soc=%d benign=%d\n", counts.Crash, counts.SOC, counts.Benign)
	fmt.Printf("(the paper's full campaigns use n=%d per app and tool)\n", campaign.PaperTrials)
}
