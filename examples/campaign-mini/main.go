// Campaign-mini: a reduced version of the paper's full evaluation — three
// benchmarks, the three paper tools plus every registered extension
// injector, a few hundred trials each — producing the same
// artifacts (outcome table, chi-squared tests, normalized campaign times)
// in under a minute.
package main

import (
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/workloads"

	// Register the extension injectors: the suite below runs every
	// registered tool.
	_ "repro/internal/multibit"
	_ "repro/internal/opcodefi"
)

func main() {
	var cfg experiments.Config
	for _, name := range []string{"HPCCG", "CG", "EP"} {
		app, err := workloads.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Apps = append(cfg.Apps, app)
	}
	// The suite runs every registered injector: LLFI, REFINE, PINFI and the
	// REFINE2, PINFI2, OPCODE and OPCODE-VALID extensions — Table 5 and
	// Figure 5 then compare each of them against the PINFI baseline.
	cfg.Tools = campaign.RegisteredTools()
	cfg.Trials = 400
	cfg.Seed = 1

	suite, err := experiments.RunSuite(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(suite.Table6())
	t5, err := suite.Table5()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(t5)
	fmt.Println(suite.Figure5())

	l, r := suite.Speedups()
	fmt.Printf("LLFI campaign cost %.1fx PINFI; REFINE %.1fx (paper: 3.9x / 1.2x over 14 apps)\n", l, r)
}
