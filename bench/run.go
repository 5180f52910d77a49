package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
)

// runOpts selects one run of one workload.
type runOpts struct {
	workload string
	seed     uint64
	seconds  int  // wall-clock cut-off of the timed region
	trace    bool // record spans and run the layer probes
	smoke    bool // 1 round, 2 trials per cell, checks on
	pass     bool // internal: one peak-memory sample (runPass)
	outDir   string
}

// result is what one run reports to the parent process.
type result struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Rounds    int                    `json:"rounds"`
	Digest    string                 `json:"digest"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// Timed-region shape. A round is a constant amount of work (workloads.go), so
// both commits of a comparison time the same thing; how many rounds fit is
// -seconds' doing. A run's value for a timing metric is the median of its
// rounds' values, each scaled to the reference machine's speed by the
// yardstick samples either side of it (yardstick.go).
const (
	tracedRounds = 8 // the traced run's: alternately traced and untraced
	minRounds    = 5 // however slow the box: -seconds cuts the region no shorter

	// Peak memory is the mean over this many fresh processes, each of which
	// sets the workload up and runs exactly one round. Twenty such passes of
	// suite_sched read 74–96 MB, of served_sharded 93–118 MB; resampled into
	// ten runs of four, the mean kept the runs' quartile distance under 10 %
	// in 98 of 100 draws, the median of four in 9 of 10.
	memPasses = 4
	// memSeed orders the cells of those passes, whatever -seed is: a big app
	// first or last moves the peak by up to 10 %, which would be the seed's
	// doing, not the code's.
	memSeed = 0

	// Set-up is repeated on fresh instances until it has this many samples
	// or has used this much time, yardstick samples included; one pass of a
	// set-up this slow is its own sample.
	setupSamples    = 10
	setupBudget     = 3 * time.Second
	setupSlowEnough = 2 * time.Second
)

// roundSample is the accounting of one timed round.
type roundSample struct {
	wall, cpu, workerCPU float64 // seconds
	delivered            int64
	traced               bool
	speed                float64 // the machine's, as a multiple of the reference machine's
}

// treeCPU samples user+system CPU of this process and the workload's live
// workers.
func treeCPU(w workload) (self, workers float64) {
	return selfCPU(), workersCPU(w.pids())
}

// runPass is one peak-memory sample, taken in a process of its own: set the
// workload up, run exactly one round, read Σ VmHWM over the process tree.
func runPass(o runOpts) (*result, error) {
	dir, err := os.MkdirTemp(o.outDir, "pass-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := newEnv(o, dir)
	def, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	w := def.make()
	defer w.tearDown()
	if err := w.setUp(e); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	out, err := w.round(e, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: round: %w", o.workload, err)
	}
	peak := treeHWM(w.pids())
	chk := &checker{}
	chk.checkRows("round 0", w.cells(e, 0), out)
	return &result{
		Workload: o.workload, Rounds: 1, Digest: out.digest(),
		Attempted: out.ops + chk.attempted, Failed: len(chk.failures), Failures: chk.failures,
		Correct: len(chk.failures) == 0,
		Metrics: map[string]metricValue{"peak_rss_mb": {Value: peak, Unit: "MB"}},
	}, nil
}

func newEnv(o runOpts, dir string) *env {
	return &env{seed: o.seed, w: min(runtime.NumCPU(), 4), dir: dir, smoke: o.smoke}
}

func runWorkload(o runOpts) (*result, error) {
	dir, err := os.MkdirTemp(o.outDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := newEnv(o, dir)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	def, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	w := def.make()
	torn := false
	defer func() {
		if !torn {
			w.tearDown()
		}
	}()

	// phase timestamps, reported on stderr so a slow run explains itself
	var marks []string
	phaseStart := time.Now()
	mark := func(name string) {
		marks = append(marks, fmt.Sprintf("%s=%.1fs", name, time.Since(phaseStart).Seconds()))
		phaseStart = time.Now()
	}
	defer func() { fmt.Fprintf(os.Stderr, "# %s phases: %s\n", o.workload, strings.Join(marks, " ")) }()

	// Set-up is one thread's work; the rounds are as many threads' as the
	// workload keeps busy. Each is scaled by a yardstick of its own width.
	yard1 := newYardstick(1)
	yardW := yard1
	if !def.serial && e.w > 1 {
		yardW = newYardstick(e.w)
	}

	// Cold set-up: the first sample of setup_s, and the state the rounds use.
	e.tr = tr
	e.span = tr.begin(0, "setup", "")
	before := yard1.sample()
	start := time.Now()
	if err := w.setUp(e); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	cold := time.Since(start).Seconds()
	after := yard1.sample()
	setups := []float64{cold * speed(before, after)}
	tr.end(e.span)
	mark("setup")

	// The timed region is identical rounds, one after another, until -seconds
	// have gone by: 30–45 of them at run_seconds = 28, long enough to outlast
	// the box's bursts of a few seconds (README.md, "Noise and the
	// estimator"), with a yardstick sample before the first and after each.
	// A traced run makes tracedRounds of them and is cut at half the time;
	// the probes get the rest.
	rounds, atLeast, limit := math.MaxInt, minRounds, time.Duration(o.seconds)*time.Second
	if o.trace {
		rounds, limit = tracedRounds, limit/2
	}
	if o.smoke {
		rounds, atLeast = 1, 1
		if o.trace {
			rounds, atLeast = 2, 2 // one traced, one not
		}
	}
	var (
		samples []roundSample
		outs    []roundOut
		hwm     float64 // Σ VmHWM after round 0
		ms0     runtime.MemStats
	)
	if o.trace {
		runtime.ReadMemStats(&ms0)
	}
	regionStart := time.Now()
	before = yardW.sample()
	for r := 0; r < rounds && (r < atLeast || time.Since(regionStart) < limit); r++ {
		// A traced run alternates traced and untraced rounds; the gap
		// between the two is the tracing overhead.
		e.tr = nil
		if r%2 == 0 {
			e.tr = tr
		}
		e.span = e.tr.begin(0, "round", "")
		self0, work0 := treeCPU(w)
		t := time.Now()
		out, err := w.round(e, r, nil)
		wall := time.Since(t).Seconds()
		self1, work1 := treeCPU(w)
		e.tr.end(e.span)
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", o.workload, r, err)
		}
		after = yardW.sample()
		samples = append(samples, roundSample{
			wall: wall, cpu: self1 - self0 + work1 - work0, workerCPU: work1 - work0,
			delivered: out.delivered, traced: e.tr != nil, speed: speed(before, after),
		})
		before = after
		outs = append(outs, out)
		if r == 0 {
			hwm = treeHWM(w.pids())
		}
	}
	rounds = len(outs)
	var ms1 runtime.MemStats
	if o.trace {
		runtime.ReadMemStats(&ms1)
	}
	e.tr, e.span = nil, 0
	mark("rounds")

	// The check round: the same round once more, untimed, with every
	// streamed result kept for the replay check.
	got := map[string]map[int]campaign.TrialResult{}
	var gotMu sync.Mutex
	checkOut, err := w.round(e, rounds, func(key string, i int, tr campaign.TrialResult) {
		gotMu.Lock()
		if got[key] == nil {
			got[key] = map[int]campaign.TrialResult{}
		}
		got[key][i] = tr
		gotMu.Unlock()
	})
	if err != nil {
		return nil, fmt.Errorf("%s: check round: %w", o.workload, err)
	}
	checkCells := w.cells(e, rounds)
	roundCells := w.cells(e, 0)
	w.tearDown()
	torn = true
	mark("check-round")

	// Output checks, outside every timed region.
	chk := &checker{}
	ops := checkOut.ops
	for r, out := range outs {
		ops += out.ops
		chk.checkRows(fmt.Sprintf("round %d", r), roundCells, out)
	}
	chk.checkRows("check round", checkCells, checkOut)
	if len(got) == 0 {
		got = nil // no observer seam: replay every trial against the table
	}
	chk.checkReplay(e, checkCells, checkOut, got, def.samples)
	digest := outs[0].digest()
	for r, out := range append(outs, checkOut) {
		chk.expect(out.digest() == digest, "round %d: table digest %s differs from round 0's %s", r, out.digest(), digest)
		for key, row := range out.rows {
			if base, ok := strings.CutSuffix(key, replaySuffix); ok {
				chk.expect(row == out.rows[base], "round %d: %s: replayed summary %+v differs from the run's %+v", r, key, row, out.rows[base])
			}
		}
	}
	if def.fig5 && !o.smoke { // two trials per cell say nothing about Figure 5
		chk.checkFig5(roundCells, outs[0])
	}
	mark("checks")

	// Peak memory: each sample is a fresh process that sets the workload up,
	// runs exactly one round and reads Σ VmHWM. Over a longer region the peak
	// depends on where GC cycles and pool refills happen to land (the resident
	// set of fired_serial creeps from 90 to 230 MB over ten rounds); after one
	// pass it repeats. A second instance in this process would not do: its
	// heap is recycled memory the runtime must zero, so pages a fresh process
	// never touches become resident (fired_serial: 137 MB against 85).
	peaks := []float64{hwm}
	if !o.smoke && !o.trace {
		peaks = nil
		for k := 0; k < memPasses; k++ {
			pass, err := runChild(runOpts{workload: o.workload, seed: memSeed, pass: true, outDir: o.outDir})
			if err != nil {
				return nil, fmt.Errorf("memory pass: %w", err)
			}
			ops += pass.Attempted
			for _, f := range pass.Failures {
				chk.expect(false, "memory pass: %s", f)
			}
			chk.expect(pass.Digest == digest, "memory pass: table digest %s differs from round 0's %s", pass.Digest, digest)
			peaks = append(peaks, pass.Metrics["peak_rss_mb"].Value)
		}
	}
	mark("memory-passes")

	// More set-up samples, each on a fresh instance in fresh directories.
	if !o.smoke && !o.trace {
		spent := time.Now()
		before = yard1.sample()
		for len(setups) < setupSamples && time.Since(spent) < setupBudget && cold < setupSlowEnough.Seconds() {
			fresh := def.make()
			t := time.Now()
			err := fresh.setUp(e)
			d := time.Since(t).Seconds()
			after = yard1.sample() // before tearDown: a pool's workers exiting is not set-up
			fresh.tearDown()
			if err != nil {
				return nil, fmt.Errorf("%s: set-up sample: %w", o.workload, err)
			}
			setups = append(setups, d*speed(before, after))
			before = after
		}
	}
	mark("setup-samples")

	res := &result{
		Workload: o.workload, Rounds: rounds, Digest: digest,
		Attempted: ops + chk.attempted, Failed: len(chk.failures), Failures: chk.failures,
	}
	res.Correct = res.Failed == 0
	share := float64(res.Failed) / float64(res.Attempted)

	all := func(roundSample) bool { return true }
	rawRate, _ := perRound(samples, true, all)
	var speeds []float64
	for _, s := range samples {
		speeds = append(speeds, s.speed)
	}
	fmt.Fprintf(os.Stderr, "# %s trials/s by round, as timed: %s\n", o.workload, fmtRounds(rawRate))
	fmt.Fprintf(os.Stderr, "# %s machine speed by round: %s\n", o.workload, fmtRounds(speeds))
	fmt.Fprintf(os.Stderr, "# %s set-up samples at reference speed, s: %s\n", o.workload, fmtRounds(setups))
	fmt.Fprintf(os.Stderr, "# %s peak RSS by memory pass, MB: %s\n", o.workload, fmtRounds(peaks))
	m := newMetricSet(perLayer)
	if !o.trace {
		m = newMetricSet(append(endToEnd, metricDef{failedShare, "ratio", lowerIsBetter}))
		rate, cost := perRound(samples, false, all)
		m.set("trials_per_s", median(rate))
		m.set("cpu_s_per_ktrial", median(cost))
		m.set("peak_rss_mb", mean(peaks))
		m.set("setup_s", median(setups))
		m.set(failedShare, share)
	} else {
		var wall, cpu, workerCPU float64
		var delivered int64
		for _, s := range samples {
			wall += s.wall
			cpu += s.cpu
			workerCPU += s.workerCPU
			delivered += s.delivered
		}
		q1, q3 := quartiles(rawRate)
		m.set("driver.trials_per_s_mean", float64(delivered)/wall)
		m.set("driver.trials_per_s_median", median(rawRate))
		m.set("driver.round_iqr_pct", 100*(q3-q1)/median(rawRate))
		m.set("driver.machine_speed", median(speeds))
		on, _ := perRound(samples, false, func(s roundSample) bool { return s.traced })
		off, _ := perRound(samples, false, func(s roundSample) bool { return !s.traced })
		m.set("driver.trace_overhead_pct", 100*(median(off)/median(on)-1))
		m.set("driver.failed_share", share)
		m.set("sched.idle_share", 1-cpu/(wall*float64(e.w)))
		m.set("shard.worker_cpu_share", workerCPU/cpu)
		m.set("runtime.alloc_kb_per_trial", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(delivered))
		m.set("runtime.mallocs_per_trial", float64(ms1.Mallocs-ms0.Mallocs)/float64(delivered))

		e.tr = tr
		if err := runProbes(e, m); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		mark("probes")
		if miss := m.missing(); len(miss) > 0 {
			return nil, fmt.Errorf("traced run set no value for %v", miss)
		}
		if err := tr.write(filepath.Join(o.outDir, "trace-"+o.workload+".json")); err != nil {
			return nil, err
		}
	}
	// A round that delivered nothing leaves a rate undefined; say which,
	// rather than fail to encode the result.
	for name, v := range m.values {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: %s is %v (failed operations: %s)", o.workload, name, v.Value, strings.Join(res.Failures, "; "))
		}
	}
	res.Metrics = m.values
	return res, nil
}

func fmtRounds(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, " %.4g", x)
	}
	return b.String()
}

// perRound turns the selected rounds into per-round rates (trials per wall
// second) and costs (tree CPU seconds per 1000 trials): as timed if raw,
// otherwise at the reference machine's speed.
func perRound(samples []roundSample, raw bool, keep func(roundSample) bool) (rate, cost []float64) {
	for _, s := range samples {
		if keep(s) && s.delivered > 0 {
			speed := s.speed
			if raw {
				speed = 1
			}
			rate = append(rate, float64(s.delivered)/s.wall/speed)
			cost = append(cost, 1000*s.cpu/float64(s.delivered)*speed)
		}
	}
	return rate, cost
}
