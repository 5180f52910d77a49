// Command fi-campaign runs the paper's full fault-injection evaluation:
// every benchmark × {LLFI, REFINE, PINFI} × n trials, then prints the
// regenerated Table 6, Figure 4, Table 4, Table 5 and Figure 5.
//
// Usage:
//
//	fi-campaign [-trials 1068] [-seed 1] [-workers 0] [-apps HPCCG,CG,...]
//	            [-tools LLFI,REFINE,PINFI,REFINE2,OPCODE] [-instrs all|arithm|mem|stack]
//	            [-O 2|0] [-shards 0] [-cache-dir DIR]
//	            [-precision 0.03] [-mutate app:func] [-quiet]
//
// The paper's configuration is the default: 1068 trials (3% margin, 95%
// confidence), -fi-funcs=* -fi-instrs=all, -O2. 14 apps × 3 tools × 1068 =
// 44,856 experiments, as in §5.3. -tools selects any subset of the injector
// registry, including extensions such as the REFINE2 double-bit-flip
// variant and the OPCODE corruption injectors; the statistical tables that
// need the PINFI baseline are skipped when it is not selected.
//
// All campaigns run on one work-stealing executor: every (app, tool)
// campaign is submitted up front, so builds and profiles of later campaigns
// overlap the trial tails of earlier ones and cores stay saturated across
// the whole suite. -workers sizes it (0 = GOMAXPROCS, 1 = serial); results
// are bit-identical for a fixed seed at any size.
//
// -cache-dir persists built binaries and golden profiles to disk,
// content-addressed by configuration and IR fingerprint: a second
// invocation with the same directory skips every build and profiling run
// (the trailing "cache:" line reports builds vs disk hits). The disk cache
// is compositional: per-function section entries let a warm run restore
// unchanged functions' trial outcomes and re-inject only changed sections
// (the "# compose:" line reports reused vs re-injected; -mutate app:func
// demonstrates the single-function-edit path). Section reuse is in-process:
// shard workers and the daemon share the build entries only, and identical
// reruns in any mode replay from -journal. -precision M replaces the
// fixed trial count with sequential stopping at the first deterministic
// batch boundary where every outcome class's 95% Wilson-CI half-width
// fits M — bit-identical across all execution modes.
//
// -shards N fans every campaign out across N worker OS processes — this
// binary re-exec'd as a worker (marked through the environment; a gob job
// stream in and (index, TrialResult) frames out on an inherited socket,
// which closes when the coordinator dies, so the worker exits) — scaling past
// GOMAXPROCS the way the paper's cluster campaigns do (§A.4). Results are
// bit-identical to an in-process run for any shard count; combine with
// -cache-dir so only the first worker per app×tool builds and warm reruns
// build nothing (the "# shard-cache:" line reports the cross-process totals).
//
// The same fan-out crosses machines: fi-campaign -shard-listen :7070 turns a
// process into a long-lived worker node, and a coordinator run with
// -shard-nodes host:port,... dials its workers there instead of re-execing
// locally — same wire protocol, same bit-identical results, and the same
// reassignment/retry machinery rides out dropped connections and dead nodes.
//
// -submit addr sends the whole suite to a running fi-serve daemon instead of
// executing locally: trial streams arrive over HTTP as they land, identical
// submissions dedup onto one execution server-side, and the client prints
// the same tables a local run would. The daemon runs full-count campaigns on
// its own pool and journals nothing for the client, so -precision, -shards,
// -shard-nodes and -journal are refused with it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/opt"
	"repro/internal/shard"
	"repro/internal/workloads"

	// Register the multi-bit REFINE variant so -tools REFINE2 resolves,
	// and the opcode-corruption injectors for -tools OPCODE,OPCODE-VALID.
	_ "repro/internal/multibit"
	_ "repro/internal/opcodefi"
)

func main() {
	shard.MaybeWorker() // re-exec'd shard workers never reach flag parsing
	var f experiments.Flags
	f.Register(flag.CommandLine, campaign.PaperTrials)
	f.RegisterTools(flag.CommandLine)
	instrs := flag.String("instrs", "all", "-fi-instrs class filter: all|arithm|mem|stack")
	optLevel := flag.Int("O", 2, "optimization level (2 or 0)")
	shardListen := flag.String("shard-listen", "", "run as a long-lived TCP worker node on this address (host:port; port 0 picks one) serving coordinator sessions until killed")
	flag.StringVar(&f.ShardNodes, "shard-nodes", "", "comma-separated worker-node addresses (-shard-listen instances) to dial instead of re-execing local workers; -shards sizes the session count (0 = one per node)")
	flag.StringVar(&f.Submit, "submit", "", "submit the suite to a running fi-serve daemon at this address (host:port) instead of executing locally; identical submissions dedup server-side")
	mutate := flag.String("mutate", "", "app:func — apply a dead single-function IR edit (DCE-erased, binary-identical) before running; with a warm -cache-dir the compositional cache re-injects only that function's section")
	quiet := flag.Bool("quiet", false, "suppress per-campaign progress")
	flag.Parse()
	if *shardListen != "" {
		// Worker-node mode: serve coordinator sessions until killed.
		if err := shard.ListenAndServe(*shardListen, nil); err != nil {
			fatal(err)
		}
		return
	}

	cfg, closeRun, err := f.Open()
	if err != nil {
		fatal(err)
	}
	defer closeRun()
	classes, err := fault.ParseClasses(*instrs)
	if err != nil {
		fatal(err)
	}
	cfg.Build.FI.Classes = classes
	if *optLevel == 0 {
		cfg.Build.Opt = opt.O0
	}
	if *mutate != "" {
		if cfg.Pool != nil || cfg.Daemon != nil {
			// Shard workers and the fi-serve daemon re-resolve apps through
			// the registry by name, so a process-local mutated builder would
			// silently not ship.
			fatal(fmt.Errorf("-mutate is in-process only; drop -shards/-shard-nodes/-submit"))
		}
		name, fn, ok := strings.Cut(*mutate, ":")
		if !ok {
			fatal(fmt.Errorf("-mutate wants app:func, got %q", *mutate))
		}
		if cfg.Apps == nil {
			cfg.Apps = workloads.Registry()
		}
		found := false
		for i, app := range cfg.Apps {
			if app.Name != name {
				continue
			}
			mutated, err := workloads.MutateFunc(app, fn)
			if err != nil {
				fatal(err)
			}
			cfg.Apps[i] = mutated
			found = true
		}
		if !found {
			fatal(fmt.Errorf("-mutate app %q not in the selected apps", name))
		}
	}
	if !*quiet {
		cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	start := time.Now()
	suite, err := experiments.RunSuite(cfg)
	if err != nil {
		fatal(err)
	}
	header := fmt.Sprintf("# %d apps x %d tools x %d trials = %d experiments in %v",
		len(suite.Order), len(suite.Tools), suite.Trials,
		len(suite.Order)*len(suite.Tools)*suite.Trials, time.Since(start).Round(time.Millisecond))
	if cfg.Daemon != nil {
		// The cache, pool and VM that did the work are the daemon's: there is
		// no local run to report on.
		fmt.Printf("%s (executed by fi-serve %s)\n", header, f.Submit)
	} else {
		fmt.Println(header)
		experiments.Report(os.Stdout, cfg)
	}
	if err := printTables(os.Stdout, suite); err != nil {
		fatal(err)
	}
}

// printTables renders everything below the "# …" report lines: a blank line
// and the paper's outcome tables. They read only Counts, Cycles and Trials,
// which a -submit run's results carry too, and are a pure function of the
// flags that select apps, tools, trials and seed — golden_test.go holds them
// to a committed copy.
func printTables(w io.Writer, suite *experiments.Suite) error {
	fmt.Fprintln(w)
	fmt.Fprintln(w, suite.Table6())
	fmt.Fprintln(w, suite.Figure4())

	hasPINFI := false
	hasLLFI := false
	for _, t := range suite.Tools {
		if t.Name() == campaign.PINFI.Name() {
			hasPINFI = true
		}
		if t.Name() == campaign.LLFI.Name() {
			hasLLFI = true
		}
	}
	if !hasPINFI || len(suite.Tools) < 2 {
		fmt.Fprintln(w, "(statistical comparisons skipped: they need PINFI plus at least one other tool)")
		return nil
	}

	if hasLLFI {
		fmt.Fprintln(w, suite.Table4(suite.Order[0]))
	}
	t5, err := suite.Table5()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t5)
	fmt.Fprintln(w, suite.Figure5())

	sig, err := suite.SummaryCounts()
	if err != nil {
		return err
	}
	fmt.Fprint(w, "Headline:")
	for _, t := range suite.Tools {
		if n, ok := sig[t.Name()]; ok {
			fmt.Fprintf(w, " %s differs from PINFI on %d/%d apps;", t.Name(), n, len(suite.Order))
		}
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "Campaign time vs PINFI:")
	for _, t := range suite.Tools {
		if t.Name() == campaign.PINFI.Name() {
			continue
		}
		fmt.Fprintf(w, " %s %.1fx", t.Name(), suite.NormalizedTime(t))
	}
	fmt.Fprintln(w, " (paper: LLFI 3.9x, REFINE 1.2x).")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fi-campaign:", err)
	os.Exit(1)
}
