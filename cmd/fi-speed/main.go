// Command fi-speed reproduces the paper's Figure 5 in isolation: campaign
// execution time per application for LLFI and REFINE, normalized to PINFI,
// plus the aggregate total (Figure 5o). It also reports the per-run
// breakdown (pre/post-detach costs for PINFI, instrumentation overhead for
// REFINE/LLFI) that explains the shape, and a second table with the host's
// own wall time per trial beside the model's totals — a diagnostic of this
// machine and this run, which nothing compares or gates on.
//
// Usage:
//
//	fi-speed [-trials 200] [-seed 1] [-workers 0] [-apps CSV] [-tools CSV]
//	         [-shards 0] [-cache-dir DIR] [-precision 0]
//	         [-cpuprofile out.pprof]
//
// -tools selects injectors from the registry (PINFI is always included — it
// is the normalization baseline). Campaigns run on one work-stealing
// executor (-workers sizes it: 0 = GOMAXPROCS, 1 = serial);
// -shards N instead fans them across N re-exec'd worker processes sharing
// the -cache-dir; -cache-dir persists builds and golden profiles so
// repeated timing runs warm-start from disk. None of these affect the
// reported cycle counts — the Figure 5 numbers come from the deterministic
// cycle model, bit-identical for a fixed seed across worker counts, shard
// counts and cache states.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/pinfi"
	"repro/internal/shard"
	"repro/internal/vx"

	// Register the multi-bit REFINE variant so -tools REFINE2 resolves,
	// and the opcode-corruption injectors for -tools OPCODE,OPCODE-VALID.
	_ "repro/internal/multibit"
	_ "repro/internal/opcodefi"
)

func main() {
	shard.MaybeWorker() // re-exec'd shard workers never reach flag parsing
	// All errors return through run so the deferred profile stop/flush runs
	// before exit — a partial profile of a failed suite is still useful.
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fi-speed:", err)
		os.Exit(1)
	}
}

func run() error {
	var f experiments.Flags
	f.Register(flag.CommandLine, 200)
	f.RegisterTools(flag.CommandLine)
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the suite run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg, closeRun, err := f.Open()
	if err != nil {
		return err
	}
	defer closeRun()
	if cfg.Tools != nil {
		havePINFI := false
		for _, tool := range cfg.Tools {
			if tool.Name() == campaign.PINFI.Name() {
				havePINFI = true
			}
		}
		if !havePINFI {
			// Figure 5 normalizes to PINFI; keep the baseline in the suite.
			cfg.Tools = append(cfg.Tools, campaign.PINFI)
		}
	}
	suite, err := experiments.RunSuite(cfg)
	if err != nil {
		return err
	}
	phases := experiments.Report(os.Stdout, cfg)
	fmt.Println()
	fmt.Println(suite.Figure5())
	fmt.Println(hostTimes(suite, phases))

	paper := experiments.PaperFigure5()
	fmt.Println("Paper's published normalization for reference:")
	fmt.Printf("%-10s %8s %8s\n", "App", "LLFI", "REFINE")
	for _, app := range append(append([]string{}, suite.Order...), "Total") {
		if v, ok := paper[app]; ok {
			fmt.Printf("%-10s %8.1f %8.1f\n", app, v[0], v[1])
		}
	}

	costs := pinfi.DefaultCosts()
	fmt.Printf("\nCost model: PIN per-instr callback %d cycles, JIT %d cycles/static-instr, host call %d cycles.\n",
		costs.PerInstr, costs.JITPerStaticInstr, vx.HostCallCycles)
	return nil
}

// hostTimes renders what the trials cost on this machine — wall time per
// trial from the suite's phase counters (its cache's, or on -shards the
// workers' summed), normalized to PINFI — beside the cycle model's Figure 5
// totals. Without PINFI trials counted (every one restored from the section
// cache) it degrades to a skip notice.
func hostTimes(suite *experiments.Suite, ps campaign.PhaseStats) string {
	perTrial := func(t campaign.TrialPhase) float64 {
		if t.Trials == 0 {
			return 0
		}
		return float64(t.Nanos) / float64(t.Trials)
	}
	base := perTrial(ps.TrialByTool[campaign.PINFI.Name()])
	if base == 0 {
		return "Host time: skipped (no PINFI trial ran)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Host time on this machine, normalized to PINFI\n")
	fmt.Fprintf(&b, "%-10s %8s %9s %8s %8s\n", "Tool", "trials", "us/trial", "host", "model")
	for _, tool := range suite.Tools {
		t := ps.TrialByTool[tool.Name()]
		fmt.Fprintf(&b, "%-10s %8d %9.1f %8.1f %8.1f\n", tool.Name(), t.Trials,
			perTrial(t)/1e3, perTrial(t)/base, suite.NormalizedTime(tool))
	}
	return b.String()
}
