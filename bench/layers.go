package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/asm"
	"repro/internal/campaign"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/llfi"
	"repro/internal/opt"
	"repro/internal/pinfi"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The layer probes: the traced run's per-layer numbers, taken by timing
// calls into each layer's public functions from here. They run the same
// fixed inputs whatever the workload, so a layer metric means the same thing
// in all four traced runs; the metrics that describe the workload's own
// rounds (driver.*, sched.idle_share, runtime.*, shard.worker_cpu_share) are
// set by runWorkload.

// Probe sizing, frozen like the workloads'. A smoke run shrinks trial counts
// to 2 (env.perCell) and iteration counts a hundredfold (env.iters).
var (
	stackApps = []string{"CG", "FT", "HPCCG"} // set-up stack: × LLFI/REFINE/PINFI
	trialApps = []string{"CG", "FT", "DC"}    // trial stack: × toolsTraced
)

const (
	stackReps       = 3      // best of, per stage and cell
	trialStackN     = 64     // trials per cell of the trial-stack probe
	goldenRuns      = 400    // Reset+Run passes per app
	microIters      = 200000 // classify / merger / journal iterations
	dispatchIters   = 1000000
	effIters        = 3000 // golden runs per parallel-efficiency leg
	composeTrials   = 256
	wireTrials      = 2000 // trials per shard-overhead leg
	serveTrials     = 3000
	fidelityPerCell = 16
)

// stopwatch accumulates best-of-reps stage times per cell, summed at the end.
type stopwatch map[string]map[string]float64 // stage → cell → best seconds

func (s stopwatch) note(stage, cell string, d time.Duration) {
	if s[stage] == nil {
		s[stage] = map[string]float64{}
	}
	if old, ok := s[stage][cell]; !ok || d.Seconds() < old {
		s[stage][cell] = d.Seconds()
	}
}

func (s stopwatch) sum(stage string) float64 {
	var t float64
	for _, d := range s[stage] {
		t += d
	}
	return t
}

// timed runs fn under a span and returns its duration.
func timed(e *env, parent int, name, campaignID string, fn func()) time.Duration {
	id := e.tr.begin(parent, name, campaignID)
	t := time.Now()
	fn()
	d := time.Since(t)
	e.tr.end(id)
	return d
}

func runProbes(e *env, m *metricSet) error {
	root := e.tr.begin(0, "probes", "")
	defer e.tr.end(root)
	e.span = root
	for _, p := range []func(*env, *metricSet, int) error{
		probeSetupStack, probeTrialStack, probeSched, probeCache, probeJournal, probeWire, probeFidelity,
	} {
		if err := p(e, m, root); err != nil {
			return err
		}
	}
	return nil
}

// probeSetupStack replays campaign.BuildBinary's stages one by one through
// their public entry points, then times the same path through the campaign
// API. Times are the best of stackReps per cell, summed over the matrix.
func probeSetupStack(e *env, m *metricSet, root int) error {
	cells := matrix(stackApps, paperTools, popSeed, 0)
	cfg := fault.DefaultConfig()
	costs := pinfi.DefaultCosts()
	sw := stopwatch{}
	var kinstrs, indexKB, profInstrs float64
	for rep := 0; rep < e.iters(stackReps); rep++ {
		for _, c := range cells {
			var (
				mod  *ir.Module
				res  *codegen.Result
				img  *vm.Image
				err  error
				cell = e.tr.begin(root, "setup-stack", c.key)
			)
			sw.note("build", c.key, timed(e, cell, "workloads.Build", c.key, func() { mod = c.app.Build() }))
			sw.note("verify", c.key, timed(e, cell, "ir.Verify", c.key, func() { err = ir.Verify(mod) }))
			if err != nil {
				return err
			}
			sw.note("fingerprint", c.key, timed(e, cell, "ir.ModuleFingerprints", c.key, func() { ir.ModuleFingerprints(mod) }))
			d := timed(e, cell, "opt.OptimizeNoLower", c.key, func() { opt.OptimizeNoLower(mod, opt.O2) })
			if c.tool == campaign.LLFI {
				sw.note("llfi", c.key, timed(e, cell, "llfi.Instrument", c.key, func() { llfi.Instrument(mod, cfg) }))
			}
			d += timed(e, cell, "opt.Legalize", c.key, func() { opt.Legalize(mod) })
			sw.note("opt", c.key, d)
			sw.note("codegen", c.key, timed(e, cell, "codegen.Compile", c.key, func() { res, err = codegen.Compile(mod) }))
			if err != nil {
				return err
			}
			if c.tool == campaign.REFINE {
				sw.note("core", c.key, timed(e, cell, "core.Instrument", c.key, func() { _, err = core.Instrument(res.Prog, cfg) }))
				if err != nil {
					return err
				}
			}
			sw.note("asm", c.key, timed(e, cell, "asm.Assemble", c.key, func() { img, err = asm.Assemble(res.Prog, asm.Options{MemSize: c.app.MemSize}) }))
			if err != nil {
				return err
			}
			sw.note("machine", c.key, timed(e, cell, "vm.New", c.key, func() { vm.New(img) }))

			// The same path as the campaign layer runs it.
			var bin *campaign.Binary
			var prof *campaign.Profile
			if bin, err = campaign.BuildBinary(c.app, c.tool, campaign.DefaultBuildOptions()); err != nil {
				return err
			}
			sw.note("profile", c.key, timed(e, cell, "campaign.RunProfile", c.key, func() { prof, err = bin.RunProfile(costs) }))
			if err != nil {
				return err
			}
			if c.tool == campaign.PINFI {
				var fps *pinfi.FirePoints
				sw.note("firepoints", c.key, timed(e, cell, "campaign.FirePoints", c.key, func() { fps = bin.FirePoints() }))
				if rep == 0 {
					indexKB += float64(len(fps.Stream)+20*len(fps.Anchors)) / 1024
				}
			}
			if rep == 0 {
				kinstrs += float64(len(bin.Img.Instrs)) / 1000
				profInstrs += float64(prof.Budget / campaign.TimeoutFactor)
			}
			sw.note("whole", c.key, timed(e, cell, "campaign.BuildAndProfile", c.key, func() {
				_, _, err = campaign.NewCache().BuildAndProfile(c.app, c.tool, campaign.DefaultBuildOptions(), costs)
			}))
			if err != nil {
				return err
			}
			e.tr.end(cell)
		}
	}
	m.set("workloads.build_ms", 1e3*sw.sum("build"))
	m.set("ir.verify_ms", 1e3*sw.sum("verify"))
	m.set("ir.fingerprint_ms", 1e3*sw.sum("fingerprint"))
	m.set("opt.optimize_ms", 1e3*sw.sum("opt"))
	m.set("llfi.instrument_ms", 1e3*sw.sum("llfi"))
	m.set("core.instrument_ms", 1e3*sw.sum("core"))
	m.set("codegen.compile_ms", 1e3*sw.sum("codegen"))
	m.set("asm.assemble_ms", 1e3*sw.sum("asm"))
	m.set("asm.image_kinstrs", kinstrs)
	m.set("vm.new_machine_us", 1e6*sw.sum("machine")/float64(len(cells)))
	m.set("campaign.profile_ms", 1e3*sw.sum("profile"))
	m.set("vm.profile_minstr_per_s", profInstrs/1e6/sw.sum("profile"))
	m.set("pinfi.firepoints_ms", 1e3*sw.sum("firepoints"))
	m.set("pinfi.firepoint_index_kb", indexKB)
	m.set("campaign.build_and_profile_ms", 1e3*sw.sum("whole"))
	return nil
}

// probeTrialStack runs small single-worker campaigns per tool and reads the
// trial path off the observer stream: exact instruction counts, the share
// of a fired trial spent re-executing the prefix, and per-trial latency.
func probeTrialStack(e *env, m *metricSet, root int) error {
	cache := campaign.NewCache()
	costs := pinfi.DefaultCosts()
	var allInstrs, allSecs, prefix, firedInstrs float64
	for _, tool := range toolsTraced {
		var gaps []float64
		var instrs int64
		for _, c := range matrix(trialApps, []string{tool}, popSeed, e.perCell(trialStackN)) {
			bin, _, err := cache.BuildAndProfile(c.app, c.tool, campaign.DefaultBuildOptions(), costs)
			if err != nil {
				return err
			}
			var fps *pinfi.FirePoints
			if u, ok := c.tool.(campaign.FirePointUser); ok && u.UsesFirePoints() {
				fps = bin.FirePoints()
			}
			id := e.tr.begin(root, "campaign.Run", c.key)
			last := time.Now()
			_, err = campaign.New(c.app, c.tool, campaign.WithTrials(c.trials), campaign.WithSeed(c.seed),
				campaign.WithWorkers(1), campaign.WithCache(cache),
				campaign.WithObserver(func(_ int, tr campaign.TrialResult) {
					now := time.Now()
					gaps = append(gaps, now.Sub(last).Seconds())
					last = now
					instrs += tr.Instrs
					if fps != nil {
						at, _ := fps.Lookup(tr.Rec.DynIdx)
						prefix += float64(at)
						firedInstrs += float64(tr.Instrs)
					}
				})).Run(context.Background())
			e.tr.end(id)
			if err != nil {
				return err
			}
		}
		sort.Float64s(gaps)
		m.set("vm.minstr_per_ktrial."+tool, float64(instrs)/1e6/float64(len(gaps))*1000)
		m.set("campaign.trial_us_p50."+tool, 1e6*quantile(gaps, 0.50))
		m.set("campaign.trial_us_p99."+tool, 1e6*quantile(gaps, 0.99))
		allInstrs += float64(instrs)
		for _, g := range gaps {
			allSecs += g
		}
	}
	m.set("vm.trial_minstr_per_s", allInstrs/1e6/allSecs)
	m.set("pinfi.prefix_share", prefix/firedInstrs)

	// The hook-free golden loop and Reset on its own, on the plain binaries.
	var goldenInstrs int64
	var goldenSecs, resetSecs float64
	var mach *vm.Machine
	var golden []uint64
	for _, c := range matrix(trialApps, []string{"PINFI"}, popSeed, 0) {
		bin, prof, err := cache.BuildAndProfile(c.app, c.tool, campaign.DefaultBuildOptions(), costs)
		if err != nil {
			return err
		}
		mach, golden = bin.NewMachine(), prof.Golden
		id := e.tr.begin(root, "vm.Reset+Run", c.key)
		for i := 0; i < e.iters(goldenRuns); i++ {
			t := time.Now()
			mach.Reset()
			mid := time.Now()
			mach.Run()
			resetSecs += mid.Sub(t).Seconds()
			goldenSecs += time.Since(t).Seconds()
			goldenInstrs += mach.InstrCount
		}
		e.tr.end(id)
	}
	m.set("vm.golden_minstr_per_s", float64(goldenInstrs)/1e6/goldenSecs)
	m.set("vm.reset_us", 1e6*resetSecs/float64(e.iters(goldenRuns)*len(trialApps)))

	// Classification of a finished run, and the collector behind the merger.
	var sink fault.Outcome
	n := e.iters(microIters)
	d := timed(e, root, "fault.Classify", "", func() {
		for i := 0; i < n; i++ {
			sink |= fault.Classify(mach, golden)
		}
	})
	if sink != fault.Benign {
		return fmt.Errorf("classify: golden run classified %v", sink)
	}
	m.set("fault.classify_ns", float64(d.Nanoseconds())/float64(n))
	mg := campaign.New(mustApp("FT"), campaign.PINFI, campaign.WithTrials(n), campaign.WithCache(nil)).NewMerger()
	d = timed(e, root, "campaign.Merger.Add", "", func() {
		for i := 0; i < n; i++ {
			mg.Add(i, campaign.TrialResult{Outcome: fault.Benign, Cycles: 1})
		}
	})
	if mg.Delivered() != n {
		return fmt.Errorf("merger delivered %d of %d", mg.Delivered(), n)
	}
	m.set("campaign.merger_add_ns", float64(d.Nanoseconds())/float64(n))
	return nil
}

// probeSched measures the executor with nothing to execute, and how well W
// workers scale on CPU-bound bodies that share no state.
func probeSched(e *env, m *metricSet, root int) error {
	ex := sched.New(e.w)
	n := e.iters(dispatchIters)
	d := timed(e, root, "sched.Submit/no-op", "", func() {
		ex.Submit(context.Background(), n, func(int) {}).Wait()
	})
	m.set("sched.dispatch_ns_per_iter", float64(d.Nanoseconds())/float64(n))

	bin, _, err := campaign.NewCache().BuildAndProfile(mustApp("FT"), campaign.PINFI, campaign.DefaultBuildOptions(), pinfi.DefaultCosts())
	if err != nil {
		return err
	}
	n = e.iters(effIters)
	leg := func(x *sched.Executor, name string) float64 {
		d := timed(e, root, name, "", func() {
			x.Submit(context.Background(), n, func(int) {
				mach := bin.AcquireMachine()
				mach.Reset()
				mach.Run()
				bin.ReleaseMachine(mach)
			}).Wait()
		})
		return float64(n) / d.Seconds()
	}
	one := sched.New(1)
	leg(one, "sched.Submit/warm") // fills the machine pool
	r1 := leg(one, "sched.Submit/1")
	rw := leg(ex, "sched.Submit/W")
	one.Close()
	ex.Close()
	m.set("sched.parallel_eff", rw/(float64(e.w)*r1))
	return nil
}

func dirKB(dir, pattern string) (float64, error) {
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, name := range names {
		st, err := os.Stat(name)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return float64(n) / 1024, nil
}

// probeCache times the disk layer of campaign.Cache: store (cold build into
// a directory, less the same build with no directory), load, and the
// section cache on an unedited and an edited warm rerun.
func probeCache(e *env, m *metricSet, root int) error {
	dir, err := e.mkdir("probe-cache")
	if err != nil {
		return err
	}
	cells := matrix(stackApps, paperTools, popSeed, 0)
	var stats campaign.CacheStats
	pass := func(name string, c *campaign.Cache) (float64, error) {
		id := e.tr.begin(root, name, "")
		t := time.Now()
		err := buildAll(e, c, cells, id)
		d := time.Since(t)
		e.tr.end(id)
		st := c.Stats()
		stats.Quarantined += st.Quarantined
		stats.DiskErrors += st.DiskErrors
		return d.Seconds(), err
	}
	best := func(name string, mk func() (*campaign.Cache, error)) (float64, error) {
		b := math.Inf(1)
		for rep := 0; rep < e.iters(stackReps); rep++ {
			c, err := mk()
			if err != nil {
				return 0, err
			}
			d, err := pass(name, c)
			if err != nil {
				return 0, err
			}
			b = min(b, d)
		}
		return b, nil
	}
	mem, err := best("cache/memory-only", func() (*campaign.Cache, error) { return campaign.NewCache(), nil })
	if err != nil {
		return err
	}
	cold, err := best("cache/cold-store", func() (*campaign.Cache, error) {
		d, err := e.mkdir("probe-cold")
		if err != nil {
			return nil, err
		}
		return campaign.NewDiskCache(d)
	})
	if err != nil {
		return err
	}
	warmCache, err := campaign.NewDiskCache(dir)
	if err != nil {
		return err
	}
	if _, err := pass("cache/populate", warmCache); err != nil {
		return err
	}
	load, err := best("cache/warm-load", func() (*campaign.Cache, error) { return campaign.NewDiskCache(dir) })
	if err != nil {
		return err
	}
	kb, err := dirKB(dir, "*.fic")
	if err != nil {
		return err
	}
	m.set("campaign.cache_store_ms", 1e3*max(0, cold-mem))
	m.set("campaign.cache_load_ms", 1e3*load)
	m.set("campaign.cache_entry_kb", kb)

	// Section cache: populate, rerun unedited (every section restores), then
	// rerun with one function edited (its section and the program-level
	// section re-inject).
	app, trials := mustApp("CG"), e.perCell(composeTrials)
	run := func(name string, app campaign.App) (time.Duration, campaign.ComposeStats, error) {
		c, err := campaign.NewDiskCache(dir)
		if err != nil {
			return 0, campaign.ComposeStats{}, err
		}
		d := timed(e, root, name, "CG/PINFI", func() {
			_, err = campaign.New(app, campaign.PINFI, campaign.WithTrials(trials),
				campaign.WithSeed(popSeed), campaign.WithWorkers(1), campaign.WithCache(c)).Run(context.Background())
		})
		st := c.Stats()
		stats.Quarantined += st.Quarantined
		stats.DiskErrors += st.DiskErrors
		return d, c.Compose(), err
	}
	if _, _, err := run("compose/populate", app); err != nil {
		return err
	}
	d, _, err := run("compose/restore", app)
	if err != nil {
		return err
	}
	m.set("campaign.compose_restore_us_per_trial", float64(d.Microseconds())/float64(trials))
	edited, err := workloads.MutateFunc(app, "norm")
	if err != nil {
		return err
	}
	_, cs, err := run("compose/edit", edited)
	if err != nil {
		return err
	}
	m.set("campaign.compose_reused_share", float64(cs.Reused)/float64(cs.Sections))
	m.set("campaign.compose_sections_reinjected", float64(cs.Reinjected))
	m.set("campaign.cache_quarantined", float64(stats.Quarantined))
	m.set("campaign.cache_disk_errors", float64(stats.DiskErrors))
	return nil
}

// probeJournal appends, sizes and reloads a journal of microIters trials.
func probeJournal(e *env, m *metricSet, root int) error {
	dir, err := e.mkdir("probe-journal")
	if err != nil {
		return err
	}
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		return err
	}
	tr := campaign.TrialResult{Outcome: fault.SOC, Cycles: 123456, Instrs: 45678,
		Rec: fault.Record{DynIdx: 1234, PC: 567, Bit: 13, Op: "addq"}}
	n := e.iters(microIters)
	d := timed(e, root, "campaign.Journal.Append", "", func() {
		for i := 0; i < n; i++ {
			if err = j.Append("probe", i, tr); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	m.set("campaign.journal_append_ns", float64(d.Nanoseconds())/float64(n))
	kb, err := dirKB(dir, "seg-*")
	if err != nil {
		return err
	}
	m.set("campaign.journal_bytes_per_trial", 1024*kb/float64(n))
	var back *campaign.Journal
	d = timed(e, root, "campaign.OpenJournal", "", func() { back, err = campaign.OpenJournal(dir) })
	if err != nil {
		return err
	}
	if got := back.Stats().Loaded; int(got) != n {
		return fmt.Errorf("journal reloaded %d of %d entries", got, n)
	}
	m.set("campaign.journal_load_us_per_ktrial", float64(d.Microseconds())/(float64(n)/1000))
	return back.Close()
}

// probeWire prices the shard transports against in-process execution of the
// same cell, then puts the daemon in front of the stdio pool.
func probeWire(e *env, m *metricSet, root int) error {
	app, tool, costs := mustApp("FT"), campaign.PINFI, pinfi.DefaultCosts()
	cache := campaign.NewCache()
	if _, _, err := cache.BuildAndProfile(app, tool, campaign.DefaultBuildOptions(), costs); err != nil {
		return err
	}
	cam := func(n int) *campaign.Campaign {
		return campaign.New(app, tool, campaign.WithTrials(n), campaign.WithSeed(popSeed),
			campaign.WithWorkers(1), campaign.WithCache(cache))
	}
	var err error
	nWire, nServe := e.perCell(wireTrials), e.perCell(serveTrials)
	leg := func(name string, run func(*campaign.Campaign) (*campaign.Result, error)) (float64, error) {
		if _, err := run(cam(16)); err != nil { // the worker builds its binary
			return 0, err
		}
		d := timed(e, root, name, "FT/PINFI", func() { _, err = run(cam(nWire)) })
		return d.Seconds(), err
	}
	inproc, err := leg("wire/in-process", func(c *campaign.Campaign) (*campaign.Result, error) {
		return c.Run(context.Background())
	})
	if err != nil {
		return err
	}

	var pool *shard.Pool
	d := timed(e, root, "shard.NewPool", "", func() { pool, err = shard.NewPool(1) })
	if err != nil {
		return err
	}
	defer pool.Close()
	m.set("shard.spawn_ms", 1e3*d.Seconds())
	stdio, err := leg("wire/stdio", func(c *campaign.Campaign) (*campaign.Result, error) {
		return pool.Run(context.Background(), c)
	})
	if err != nil {
		return err
	}
	m.set("shard.stdio_overhead_us_per_trial", 1e6*(stdio-inproc)/float64(nWire))

	node, err := shard.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- node.Serve() }()
	tcpPool, err := shard.NewTCPPool(1, []string{node.Addr()})
	if err != nil {
		node.Close()
		<-served
		return err
	}
	tcp, err := leg("wire/tcp", func(c *campaign.Campaign) (*campaign.Result, error) {
		return tcpPool.Run(context.Background(), c)
	})
	tcpDeaths := tcpPool.Deaths()
	tcpPool.Close()
	node.Close()
	if serr := <-served; err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	m.set("shard.tcp_overhead_us_per_trial", 1e6*(tcp-inproc)/float64(nWire))

	// The daemon over the stdio pool: one live campaign, then the same
	// submission again, which is a pure replay of the event log.
	dir, err := e.mkdir("probe-serve")
	if err != nil {
		return err
	}
	journal, err := campaign.OpenJournal(dir)
	if err != nil {
		return err
	}
	defer journal.Close()
	srv, err := serve.NewServer(serve.Config{Pool: pool, Journal: journal, Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns when hs.Close runs below
	}()
	wire := &countingTransport{base: &http.Transport{}}
	defer func() {
		hs.Close()
		<-done
		wire.base.CloseIdleConnections()
	}()
	cl := &serve.Client{Addr: ln.Addr().String(), HTTP: &http.Client{Transport: wire}}
	spec := campaign.Spec{App: app.Name, Tool: tool.Name(), Trials: nServe, Seed: popSeed + 1,
		Build: campaign.DefaultBuildOptions(), Costs: costs}
	heap := func() float64 {
		runtime.GC()
		runtime.GC() // pooled machines leave sync.Pool's victim cache on the second cycle
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	heap0, cpu0 := heap(), selfCPU()
	var first time.Duration
	start := time.Now()
	d = timed(e, root, "serve.Client.Run/live", "FT/PINFI", func() {
		_, err = cl.Run(context.Background(), spec, func(i int, _ campaign.TrialResult) {
			if i == 0 {
				first = time.Since(start)
			}
		})
	})
	if err != nil {
		return err
	}
	cpu1 := selfCPU()
	liveBytes := wire.bytes.Load()
	m.set("serve.first_event_ms", 1e3*first.Seconds())
	m.set("serve.live_events_per_s", float64(nServe)/d.Seconds())
	m.set("serve.bytes_per_event", float64(liveBytes)/float64(nServe))
	m.set("serve.coordinator_cpu_us_per_trial", 1e6*(cpu1-cpu0)/float64(nServe))
	m.set("serve.rss_growth_mb_per_kevent", (heap()-heap0)/(float64(nServe)/1000))
	d = timed(e, root, "serve.Client.Run/replay", "FT/PINFI", func() {
		_, err = cl.Run(context.Background(), spec, nil)
	})
	if err != nil {
		return err
	}
	m.set("serve.replay_events_per_s", float64(nServe)/d.Seconds())
	m.set("serve.reconnects", float64(wire.requests.Load()-2))
	m.set("shard.deaths", float64(tcpDeaths+pool.Deaths()))
	return nil
}

// probeFidelity runs the paper's suite small and reads off the numbers that
// must repeat exactly on every run of every commit.
func probeFidelity(e *env, m *metricSet, root int) error {
	ex := sched.New(e.w)
	defer ex.Close()
	// Sixteen trials per cell in a smoke run too: Table 5 has no χ² from two.
	// A smoke run takes three of the fourteen apps instead.
	cfg := experiments.Config{Trials: fidelityPerCell, Seed: popSeed, Cache: campaign.NewCache(), Sched: ex}
	if e.smoke {
		for _, a := range stackApps {
			cfg.Apps = append(cfg.Apps, mustApp(a))
		}
	}
	var s *experiments.Suite
	var err error
	timed(e, root, "experiments.RunSuite", "", func() { s, err = experiments.RunSuite(cfg) })
	if err != nil {
		return err
	}
	l, r := s.Speedups()
	m.set("experiments.fig5_llfi_vs_pinfi", l)
	m.set("experiments.fig5_refine_vs_pinfi", r)
	sig, err := s.SummaryCounts()
	if err != nil {
		return err
	}
	m.set("stats.table5_llfi_sig_apps", float64(sig["LLFI"]))
	m.set("stats.table5_refine_sig_apps", float64(sig["REFINE"]))
	d := timed(e, root, "experiments.render", "", func() {
		s.Table6()
		s.Figure4()
		s.Table4(s.Order[0])
		_, err = s.Table5()
		s.Figure5()
	})
	if err != nil {
		return err
	}
	m.set("stats.render_ms", 1e3*d.Seconds())
	return nil
}
