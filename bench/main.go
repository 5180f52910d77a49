// Command bench is the repository's benchmark: four long-run workloads (three
// of them in the pipeline's contract, one run by hand), four end-to-end
// metrics and a per-layer ledger, built to repeat on a noisy 2-core box.
// README.md defines every metric and says why each workload is there;
// BENCHMARK.json at the repository root is the machine-readable contract.
//
//	go run ./bench                      every workload, end-to-end metrics
//	go run ./bench -workload warm_edit  one workload
//	go run ./bench -trace               the traced run: per-layer metrics, span files
//	go run ./bench -aa                  A/A: two alternating sets of runs of this binary
//	go run ./bench -smoke               1 round, 2 trials per cell, checks on
//
// Each workload runs in a fresh child process (a re-exec of this binary), so
// peak memory and GC state never carry over from one to the next; the child
// in turn takes each of its peak-memory samples in a process of its own.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	// The shard workers this binary re-execs into resolve tools by registry
	// name; workloads.go imports opcodefi and multibit for OPCODE and PINFI2.
	"repro/internal/shard"
)

const (
	defaultSeconds = 28 // run_seconds in BENCHMARK.json
	aaRuns         = 5  // runs per set in -aa mode
)

func main() {
	// A re-exec'd shard worker never returns from here.
	shard.MaybeWorker()
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// normalizeArgs lets -trace stand alone: the pipeline passes "--trace 0|1",
// a person types "-trace". A bare flag becomes -trace=1.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i, a := range args {
		if a == "-trace" || a == "--trace" {
			if i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1") {
				a = "-trace=1"
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload (default: all four)")
		seed     = fs.Uint64("seed", 1, "workload seed: orders and assignments derive from it")
		seconds  = fs.Int("seconds", defaultSeconds, "length of the timed region: identical rounds until this many seconds have gone by")
		trace    = fs.Int("trace", 0, "1 = the traced run: spans and per-layer metrics in place of the end-to-end ones")
		aa       = fs.Bool("aa", false, "A/A mode: two alternating sets of runs of this binary, compared against the bounds")
		smoke    = fs.Bool("smoke", false, "1 round, 2 trials per cell, checks on")
		child    = fs.Bool("child", false, "internal: run one workload in this process and print its result as JSON")
		pass     = fs.Bool("pass", false, "internal, with -child: one peak-memory sample — set up, one round, Σ VmHWM")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err := validateDefs(endToEnd, perLayer); err != nil {
		return err
	}
	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, d := range workloadDefs {
			names = append(names, d.name)
		}
	}
	for _, n := range names {
		if _, err := findWorkload(n); err != nil {
			return err
		}
	}
	out, err := outDir()
	if err != nil {
		return err
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, outDir: out}

	if *child {
		o.workload = names[0]
		run := runWorkload
		if *pass {
			run = runPass
		}
		res, err := run(o)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	if *aa {
		return runAA(names, o)
	}
	ok := true
	for _, n := range names {
		o.workload = n
		res, err := runChild(o)
		if err != nil {
			return err
		}
		printResult(res)
		ok = ok && res.Correct
	}
	if !ok {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// outDir is where span files and scratch directories go: bench/out under the
// repository root, wherever in the repository the program was started.
func outDir() (string, error) {
	dir := "out"
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		dir = filepath.Join("bench", "out")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// runChild runs one workload in a fresh process and decodes its result.
func runChild(o runOpts) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds)}
	if o.trace {
		args = append(args, "-trace=1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.pass {
		args = append(args, "-pass")
	}
	// The child must not outlive this process: a signal here cancels it, and
	// the kernel kills it if this process dies without the chance to.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	var res result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s: result: %w", o.workload, err)
	}
	return &res, nil
}

// printResult prints every metric by name with its unit, the failed checks,
// and — as the last line — the result object the pipeline reads.
func printResult(res *result) {
	fmt.Printf("# %s: %d rounds, table digest %s\n", res.Workload, res.Rounds, res.Digest)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, f := range res.Failures {
		fmt.Printf("FAILED %s\n", f)
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricValue{}}
	for n, v := range res.Metrics {
		if n != failedShare { // reported as failed ÷ attempted; see metrics.go
			line.Metrics[n] = v
		}
	}
	data, _ := json.Marshal(line) // cannot fail: plain strings, numbers and bools
	fmt.Println(string(data))
}

// runAA runs two alternating sets of full runs of this same binary and
// prints, per workload × end-to-end metric, each set's median and quartiles
// and whether the two agree within the metric's bound.
func runAA(names []string, o runOpts) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < 2*aaRuns; i++ {
		set := i % 2
		if (i/2)%2 == 1 {
			set = 1 - set // A B B A A B …: neither set always goes first
		}
		for _, n := range names {
			o.workload = n
			res, err := runChild(o)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: output checks failed: %s", n, strings.Join(res.Failures, "; "))
			}
			for _, d := range endToEnd {
				k := key{n, d.name}
				sets[set][k] = append(sets[set][k], res.Metrics[d.name].Value)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d (set %c) %s done\n", i+1, 2*aaRuns, 'A'+set, n)
		}
	}
	fmt.Printf("%-15s %-17s %31s %31s %7s %7s %6s  %s\n", "workload", "metric",
		"set A  median [q1, q3]", "set B  median [q1, q3]", "gap%", "iqr%", "bound%", "")
	agree := true
	for _, n := range names {
		for _, d := range endToEnd {
			a, b := sets[0][key{n, d.name}], sets[1][key{n, d.name}]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			gap := (mb - ma) / ma
			if d.better == higherIsBetter {
				gap = -gap
			}
			iqr := max(iqrShare(a), iqrShare(b))
			verdict := "agree"
			if gap > bounds[d.name] || -gap > bounds[d.name] {
				verdict, agree = "DISAGREE", false
			}
			fmt.Printf("%-15s %-17s %11.5g [%8.5g,%8.5g] %11.5g [%8.5g,%8.5g] %+7.2f %7.2f %6.1f  %s\n",
				n, d.name, ma, a1, a3, mb, b1, b3, 100*gap, 100*iqr, 100*bounds[d.name], verdict)
		}
	}
	if !agree {
		return fmt.Errorf("the two sets disagree beyond a bound")
	}
	return nil
}

// loadBounds reads the regression bounds from BENCHMARK.json.
func loadBounds() (map[string]float64, error) {
	path := "BENCHMARK.json"
	if _, err := os.Stat(path); err != nil {
		path = filepath.Join("..", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
