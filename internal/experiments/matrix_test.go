package experiments_test

// TestEquivalenceMatrix is the standing determinism invariant in one table:
// serial ≡ scheduled ≡ sharded ≡ TCP ≡ cached ≡ composed ≡ resumed ≡ served.
// A row is a way a campaign can run; a column is what it asks for — a tool
// at a fixed trial count, a precision stop, a cancel after k deliveries, a
// cancel before Run. One comparator checks every cell against one reference
// run of the same campaign (one worker, no cache, records kept): Counts,
// Cycles, Trials, every record, the observer's index sequence, and the
// profile where the door returns one. A row also asserts the counters that
// show it took its path. A new execution mode is one row; a new tool is one
// column. The suite rows do the same one level up, through
// experiments.Config, and compare the rendered tables too.
//
// TestMain re-execs this binary as a shard worker; TCP worker nodes listen
// in-process and fi-serve runs under httptest. Under -short (the race job)
// the matrix runs a small synthetic program, and the rows whose workers or
// daemon resolve the workload by registry name are skipped.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/pinfi"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workloads"
)

const (
	// matrixSeed differs from the default seed 1 above the trial range:
	// TrialSeed xors seed and index, so a seed of 7 would draw the same
	// trials as 1, reordered, and a door that dropped it would keep its sums.
	matrixSeed   = 1<<20 | 7
	fixedTrials  = 24   // the fixed-count columns and the suites
	precTrials   = 256  // the precision column's cap, which its reference must stop before
	precMargin   = 0.1  // the precision column's Wilson half-width
	cancelTrials = 1024 // one worker's adaptive claim is then sched.MaxChunk
	cancelAt     = 25   // the cancelled column cancels at this delivery
)

type column struct {
	name      string
	tool      campaign.Tool
	trials    int
	precision bool
	cancelAt  int // > 0: cancel at this delivery; < 0: cancelled before Run
}

func (c column) fixed() bool { return !c.precision && c.cancelAt == 0 }

func fixedColumn(tool campaign.Tool) column {
	return column{name: "fixed-" + tool.Name(), tool: tool, trials: fixedTrials}
}

// door runs a cell's campaign one way and asserts that way's own counters.
type door func(t *testing.T, x *cell) (*campaign.Result, error)

type row struct {
	name        string
	registry    bool // workers or a daemon resolve the app by name: not under -short
	noPrecision bool // the door cannot carry WithPrecision's stop
	together    bool // every cell of the row runs at once, then each is compared
	everyApp    bool // outside -short, the fixed columns sweep every registry app
	run         door
	// suite, for a suite row, configures the door; it checks its own
	// counters in a t.Cleanup.
	suite func(t *testing.T, cfg *experiments.Config)
}

// cell is one campaign of the matrix and what its observer saw.
type cell struct {
	name    string
	app     campaign.App
	tool    campaign.Tool
	seed    uint64
	col     column
	rs      *rowState
	ctx     context.Context
	cancel  context.CancelFunc
	summary bool // the door returns a summary: no Profile

	mu     sync.Mutex
	order  []int
	stream []campaign.TrialResult
}

// rowState is what a row opens once for its cells, released when it ends.
type rowState struct {
	t      *testing.T
	pool   *shard.Pool
	client *serve.Client
	dir    string
}

type outcome struct {
	res *campaign.Result
	err error
}

func newCell(app campaign.App, col column, seed uint64, rs *rowState) *cell {
	x := &cell{name: col.name, app: app, tool: col.tool, seed: seed, col: col, rs: rs}
	x.ctx, x.cancel = context.WithCancel(context.Background())
	if col.cancelAt < 0 {
		x.cancel()
	}
	return x
}

// ran reports whether the campaign got past its door, so counters apply.
func (x *cell) ran() bool { return x.col.cancelAt >= 0 }

// opts are the cell's campaign options without the observer.
func (x *cell) opts(extra ...campaign.Option) []campaign.Option {
	o := []campaign.Option{campaign.WithTrials(x.col.trials), campaign.WithSeed(x.seed)}
	if x.col.precision {
		o = append(o, campaign.WithPrecision(precMargin))
	}
	return append(o, extra...)
}

// campaign is the cell's observed campaign of app: its own, or an edit of it.
func (x *cell) campaign(app campaign.App, extra ...campaign.Option) *campaign.Campaign {
	o := x.opts(campaign.WithObserver(x.observe))
	return campaign.New(app, x.tool, append(o, extra...)...)
}

func (x *cell) run(extra ...campaign.Option) (*campaign.Result, error) {
	return x.campaign(x.app, extra...).Run(x.ctx)
}

func (x *cell) observe(i int, tr campaign.TrialResult) {
	x.mu.Lock()
	x.order = append(x.order, i)
	x.stream = append(x.stream, tr)
	n := len(x.order)
	x.mu.Unlock()
	if n == x.col.cancelAt {
		x.cancel()
	}
}

func concurrently(t *testing.T, cells []*cell, d door) []outcome {
	outs := make([]outcome, len(cells))
	var wg sync.WaitGroup
	for i, x := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i].res, outs[i].err = d(t, x)
		}()
	}
	wg.Wait()
	return outs
}

// matrix is what the rows share.
type matrix struct {
	t        *testing.T
	app      campaign.App // the workload every cell runs
	edit     string       // the function composed-edited edits
	suite    []campaign.App
	cols     []column
	mem      *campaign.Cache
	exec     *sched.Executor
	refs     map[string]*refRun
	composed map[string]string // campaign → a dir holding its complete cold disk run
	nodes    []string
}

func TestEquivalenceMatrix(t *testing.T) {
	m := &matrix{t: t, mem: campaign.NewCache(), exec: sched.New(3),
		refs: map[string]*refRun{}, composed: map[string]string{}}
	t.Cleanup(m.exec.Close)
	if testing.Short() {
		m.app, m.edit = campaign.App{Name: "mini", Build: miniApp}, "dot"
		m.suite = []campaign.App{m.app}
	} else {
		m.app, m.edit = mustApp(t, "CG"), "norm"
		m.suite = []campaign.App{mustApp(t, "EP"), m.app}
	}
	for _, tool := range campaign.Tools {
		m.cols = append(m.cols, fixedColumn(tool))
	}
	m.cols = append(m.cols,
		column{name: "precision-REFINE", tool: campaign.REFINE, trials: precTrials, precision: true},
		column{name: "cancelled-PINFI", tool: campaign.PINFI, trials: cancelTrials, cancelAt: cancelAt},
		column{name: "precancelled-PINFI", tool: campaign.PINFI, trials: cancelTrials, cancelAt: -1})

	for _, r := range m.rows() {
		t.Run(r.name, func(t *testing.T) {
			if r.registry && testing.Short() {
				t.Skip("resolves the workload by registry name in worker processes or a daemon")
			}
			if r.suite != nil {
				m.runSuite(t, r)
				return
			}
			rs := &rowState{t: t}
			var cells []*cell
			apps := []campaign.App{m.app}
			if r.everyApp && !testing.Short() {
				apps = workloads.Registry() // m.app among them
			}
			for _, app := range apps {
				for _, col := range m.cols {
					if (col.precision && r.noPrecision) || (app.Name != m.app.Name && !col.fixed()) {
						continue
					}
					x := newCell(app, col, matrixSeed, rs)
					if app.Name != m.app.Name {
						x.name = app.Name + "-" + col.name
					}
					cells = append(cells, x)
				}
			}
			outs := make([]outcome, len(cells))
			if r.together {
				outs = concurrently(t, cells, r.run)
			}
			for i, x := range cells {
				t.Run(x.name, func(t *testing.T) {
					if !r.together {
						outs[i].res, outs[i].err = r.run(t, x)
					}
					m.compare(t, x, outs[i].res, outs[i].err)
				})
			}
		})
	}
}

func (m *matrix) rows() []row {
	onExecutor := func(t *testing.T, x *cell) (*campaign.Result, error) {
		return x.run(campaign.WithExecutor(m.exec), campaign.WithCache(m.mem))
	}
	// onCache runs the cell on the cache open returns, whose counters must
	// then be exactly want.
	onCache := func(open func(*testing.T, *cell) *campaign.Cache, want campaign.CacheStats) door {
		return func(t *testing.T, x *cell) (*campaign.Result, error) {
			cache := open(t, x)
			res, err := x.run(campaign.WithCache(cache))
			if st := cache.Stats(); x.ran() && st != want {
				t.Errorf("cache counters %+v, want %+v", st, want)
			}
			return res, err
		}
	}
	onSched := func(workers int) func(*testing.T, *experiments.Config) {
		return func(t *testing.T, cfg *experiments.Config) {
			cfg.Sched = sched.New(workers)
			t.Cleanup(cfg.Sched.Close)
		}
	}
	return []row{
		{name: "private-1", run: func(t *testing.T, x *cell) (*campaign.Result, error) {
			res, err := x.run(campaign.WithWorkers(1), campaign.WithCache(m.mem))
			// Cancellation abandons unclaimed indexes only: one worker
			// cancelled mid-chunk delivers exactly its first claim.
			if x.col.cancelAt > 0 && res != nil && res.Trials != sched.MaxChunk {
				t.Errorf("one worker cancelled at delivery %d delivered %d trials, want its claim of %d", cancelAt, res.Trials, sched.MaxChunk)
			}
			return res, err
		}},
		{name: "private-8", run: func(t *testing.T, x *cell) (*campaign.Result, error) {
			return x.run(campaign.WithWorkers(8), campaign.WithCache(m.mem))
		}},
		{name: "sched", run: onExecutor},
		{name: "sched-all-at-once", together: true, run: onExecutor},
		{name: "cache-nil", run: func(t *testing.T, x *cell) (*campaign.Result, error) {
			return x.run(campaign.WithCache(nil))
		}},
		{name: "cache-mem-warm", run: onCache(func(t *testing.T, x *cell) *campaign.Cache {
			cache := campaign.NewCache()
			build(t, cache, x)
			return cache
		}, campaign.CacheStats{MemHits: 1, Builds: 1})},
		{name: "cache-disk-cold", run: onCache(func(t *testing.T, x *cell) *campaign.Cache {
			return diskCache(t, t.TempDir())
		}, campaign.CacheStats{Builds: 1})},
		{name: "cache-disk-warm", run: onCache(func(t *testing.T, x *cell) *campaign.Cache {
			dir := t.TempDir()
			build(t, diskCache(t, dir), x) // as another process would
			return diskCache(t, dir)
		}, campaign.CacheStats{DiskHits: 1})},
		{name: "composed-warm", everyApp: true, run: m.composedRun(false)},
		{name: "composed-edited", run: m.composedRun(true)},
		{name: "range-union", noPrecision: true, run: m.rangeUnion},
		{name: "journal-resumed", run: m.resumed},
		// The stdio-N rows run local workers: each a socket session, like the
		// tcp-N rows' (the names keep the test ids of the old pipe transport).
		{name: "stdio-1", registry: true, run: m.onPool(1, false, false)},
		{name: "stdio-2", registry: true, run: m.onPool(2, false, true)},
		{name: "stdio-4", registry: true, run: m.onPool(4, false, false)},
		{name: "tcp-1", registry: true, run: m.onPool(1, true, false)},
		{name: "tcp-2", registry: true, run: m.onPool(2, true, true)},
		{name: "tcp-4", registry: true, run: m.onPool(4, true, false)},
		{name: "pool-tenants", registry: true, run: func(t *testing.T, x *cell) (*campaign.Result, error) {
			p := m.pool(t, x, 2, false)
			return m.alongside(t, x, func(t *testing.T, y *cell) (*campaign.Result, error) {
				return p.Run(y.ctx, y.campaign(y.app, campaign.WithCache(nil)))
			})
		}},
		// A Spec carries no precision rule.
		{name: "served", registry: true, noPrecision: true, run: m.served(false)},
		{name: "served-pool", registry: true, noPrecision: true, run: m.served(true)},

		{name: "suite-workers-1", suite: func(_ *testing.T, cfg *experiments.Config) { cfg.Workers = 1 }},
		{name: "suite-workers-default", suite: func(*testing.T, *experiments.Config) {}},
		{name: "suite-sched-1", suite: onSched(1)},
		{name: "suite-sched-8", suite: onSched(8)},
		{name: "suite-pool", registry: true, suite: func(t *testing.T, cfg *experiments.Config) {
			var err error
			if cfg.Pool, err = shard.NewPool(2); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cfg.Pool.Close)
		}},
		{name: "suite-daemon", registry: true, suite: func(t *testing.T, cfg *experiments.Config) {
			// Deployment detail stays home: neither the client's disk cache
			// nor its worker count is submitted, and it builds nothing.
			client, sent := daemon(t, nil)
			cfg.Daemon, cfg.Cache, cfg.Workers = client, diskCache(t, t.TempDir()), 3
			t.Cleanup(func() {
				specs := sent()
				if len(specs) != len(cfg.Apps)*len(campaign.Tools) {
					t.Errorf("%d submissions for %d apps x %d tools", len(specs), len(cfg.Apps), len(campaign.Tools))
				}
				for _, s := range specs {
					if s.CacheDir != "" || s.Workers != 0 {
						t.Errorf("%s/%s submitted with deployment detail: CacheDir=%q Workers=%d", s.App, s.Tool, s.CacheDir, s.Workers)
					}
				}
				if st := cfg.Cache.Stats(); st.Builds != 0 {
					t.Errorf("the submitting client built %d binaries itself", st.Builds)
				}
			})
		}},
	}
}

// composedRun opens the cell's complete cold disk run as a warm cache, for
// the cell's app or — edited — for the app after a DCE-erased edit of one
// function, which re-injects exactly that function's section and the
// program-level one. Whatever a run re-injects it stores only when complete:
// after a precision stop or a cancel the next run re-injects it again.
func (m *matrix) composedRun(edited bool) door {
	return func(t *testing.T, x *cell) (*campaign.Result, error) {
		app, reinjected := x.app, uint64(0)
		if edited {
			var err error
			if app, err = workloads.MutateFunc(x.app, m.edit); err != nil {
				t.Fatal(err)
			}
			reinjected = 2
		}
		dir := m.composedDir(t, x)
		cache := diskCache(t, dir)
		res, err := x.campaign(app, campaign.WithCache(cache)).Run(x.ctx)
		n := uint64(x.col.trials)
		composed := func(cs campaign.ComposeStats, reinjected uint64) bool {
			return cs.Reinjected == reinjected && cs.Reused == cs.Sections-reinjected &&
				cs.TrialsReused+cs.TrialsReinjected == n && (reinjected > 0 || cs.TrialsReinjected == 0)
		}
		if cs := cache.Compose(); x.ran() && !composed(cs, reinjected) {
			t.Errorf("warm composed run: %+v, want %d sections re-injected", cs, reinjected)
		}
		if x.col.fixed() {
			reinjected = 0
		}
		if x.ran() {
			if cs := composeCold(t, x, app, dir); !composed(cs, reinjected) {
				t.Errorf("the next run: %+v, want %d sections re-injected", cs, reinjected)
			}
		}
		return res, err
	}
}

// rangeUnion runs the cell as three WithTrialRange pieces in order and
// returns their union. A ranged campaign stops by precision over its own
// range, so the row carries no precision column.
func (m *matrix) rangeUnion(t *testing.T, x *cell) (*campaign.Result, error) {
	n := x.col.trials
	var union *campaign.Result
	for _, r := range [][2]int{{0, n / 3}, {n / 3, n * 3 / 4}, {n * 3 / 4, n}} {
		res, err := x.run(campaign.WithTrialRange(r[0], r[1]), campaign.WithCache(m.mem))
		if res != nil {
			if union == nil {
				union = &campaign.Result{Profile: res.Profile}
			}
			union.Counts.Crash += res.Counts.Crash
			union.Counts.SOC += res.Counts.SOC
			union.Counts.Benign += res.Counts.Benign
			union.Counts.HarnessFault += res.Counts.HarnessFault
			union.Cycles += res.Cycles
			union.Trials += res.Trials
		}
		if err != nil {
			return union, err
		}
	}
	return union, nil
}

// resumed cancels a journaled one-worker run of the cell at its 12th
// delivery — its claimed chunk still runs to the end and is journaled — and
// resumes it over the reopened journal on the shared executor, where only the
// missing trials may execute. Resumed again, a complete run is pure replay.
func (m *matrix) resumed(t *testing.T, x *cell) (*campaign.Result, error) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	j := openJournal(t, dir)
	if _, err := campaign.New(x.app, x.tool, x.opts(campaign.WithWorkers(1), campaign.WithCache(m.mem), campaign.WithJournal(j),
		campaign.WithObserver(func(int, campaign.TrialResult) {
			if seen++; seen == 12 {
				cancel()
			}
		}))...).Run(ctx); err == nil {
		t.Fatal("the interrupted run returned no error")
	}
	j.Close()
	recorded := j.Stats().Appended
	if recorded == 0 || recorded >= uint64(x.col.trials) {
		t.Fatalf("the interrupted run journaled %d of %d trials; the row needs a partial journal", recorded, x.col.trials)
	}
	j = openJournal(t, dir)
	if st := j.Stats(); st.Loaded != recorded {
		t.Fatalf("reopened journal loaded %d entries, the interrupted run appended %d", st.Loaded, recorded)
	}
	res, err := x.run(campaign.WithCache(m.mem), campaign.WithJournal(j), campaign.WithExecutor(m.exec))
	j.Close()
	st := j.Stats()
	if x.ran() && res != nil && (st.Replayed != recorded || st.Replayed+st.Appended < uint64(res.Trials) ||
		(x.col.fixed() && st.Appended != uint64(x.col.trials)-recorded)) {
		t.Errorf("resume: %+v of %d journaled, want them replayed and only the missing trials appended", st, recorded)
	}
	if x.col.fixed() && err == nil {
		j := openJournal(t, dir)
		defer j.Close()
		if _, err := campaign.New(x.app, x.tool, x.opts(campaign.WithCache(m.mem), campaign.WithJournal(j))...).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := j.Stats(); st.Appended != 0 || st.Replayed != uint64(x.col.trials) {
			t.Errorf("fully journaled rerun: %+v, want pure replay", st)
		}
	}
	return res, err
}

// onPool runs cells on a local or TCP pool of n workers, opened once for the
// row. A warm row's workers restore every artifact from a directory another
// process built into, and build nothing.
func (m *matrix) onPool(n int, tcp, warm bool) door {
	return func(t *testing.T, x *cell) (*campaign.Result, error) {
		p := m.pool(t, x, n, tcp)
		var cache *campaign.Cache
		if warm {
			if x.rs.dir == "" {
				x.rs.dir = x.rs.t.TempDir()
			}
			build(t, diskCache(t, x.rs.dir), x)
			cache = diskCache(t, x.rs.dir)
		}
		res, err := p.Run(x.ctx, x.campaign(x.app, campaign.WithCache(cache)))
		if st := p.Stats(); warm && x.ran() && (st.Builds != 0 || st.DiskHits == 0) {
			t.Errorf("warm pool: %+v, want no build across the worker processes", st)
		}
		return res, err
	}
}

// served submits cells to an in-process fi-serve, which runs them in its own
// process or on a pool, beside two other tenants.
func (m *matrix) served(pooled bool) door {
	return func(t *testing.T, x *cell) (*campaign.Result, error) {
		if x.rs.client == nil {
			var p *shard.Pool
			if pooled {
				p = m.pool(t, x, 2, false)
			}
			x.rs.client, _ = daemon(x.rs.t, p)
		}
		x.summary = true
		return m.alongside(t, x, func(t *testing.T, y *cell) (*campaign.Result, error) {
			sum, err := x.rs.client.Run(y.ctx, y.campaign(y.app).Spec(), y.observe)
			if err != nil {
				return nil, err
			}
			return &campaign.Result{Counts: sum.Counts, Cycles: sum.Cycles, Trials: sum.Trials}, nil
		})
	}
}

// alongside runs the cell through d together with two other tenants — other
// seeds, the fixed column of the same tool — and checks those too.
func (m *matrix) alongside(t *testing.T, x *cell, d door) (*campaign.Result, error) {
	cells := []*cell{x, newCell(x.app, fixedColumn(x.tool), x.seed+1, x.rs), newCell(x.app, fixedColumn(x.tool), x.seed+2, x.rs)}
	for _, y := range cells {
		y.summary = x.summary
	}
	outs := concurrently(t, cells, d)
	for i, y := range cells[1:] {
		m.compare(t, y, outs[i+1].res, outs[i+1].err)
	}
	return outs[0].res, outs[0].err
}

// pool opens the row's pool on first use; it closes when the row ends.
func (m *matrix) pool(t *testing.T, x *cell, n int, tcp bool) *shard.Pool {
	if x.rs.pool == nil {
		var err error
		if tcp {
			for len(m.nodes) < 2 { // worker nodes, as fi-campaign -shard-listen serves them
				node, err := shard.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go node.Serve()
				m.t.Cleanup(func() { node.Close() })
				m.nodes = append(m.nodes, node.Addr())
			}
			x.rs.pool, err = shard.NewTCPPool(n, m.nodes)
		} else {
			x.rs.pool, err = shard.NewPool(n)
		}
		if err != nil {
			t.Fatal(err)
		}
		x.rs.t.Cleanup(x.rs.pool.Close)
	}
	return x.rs.pool
}

// daemon starts an in-process fi-serve over pool (nil: campaigns run in the
// daemon's process) for t's lifetime. It returns a client and what the
// daemon has been submitted.
func daemon(t *testing.T, pool *shard.Pool) (*serve.Client, func() []campaign.Spec) {
	srv, err := serve.NewServer(serve.Config{Pool: pool, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var specs []campaign.Spec
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req serve.Request
		if json.Unmarshal(body, &req) == nil {
			mu.Lock()
			specs = append(specs, req.Spec)
			mu.Unlock()
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return &serve.Client{Addr: strings.TrimPrefix(ts.URL, "http://")}, func() []campaign.Spec {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(specs)
	}
}

// build builds and profiles the cell's campaign into cache.
func build(t *testing.T, cache *campaign.Cache, x *cell) {
	if _, _, err := cache.BuildAndProfile(x.app, x.tool, campaign.DefaultBuildOptions(), pinfi.DefaultCosts()); err != nil {
		t.Fatal(err)
	}
}

func diskCache(t *testing.T, dir string) *campaign.Cache {
	c, err := campaign.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func openJournal(t *testing.T, dir string) *campaign.Journal {
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// composedDir holds a complete cold disk run of the cell's campaign at its
// trial count, made once per campaign.
func (m *matrix) composedDir(t *testing.T, x *cell) string {
	key := fmt.Sprint(x.app.Name, "/", x.tool.Name(), "/", x.seed, "/", x.col.trials)
	if _, ok := m.composed[key]; !ok {
		dir := m.t.TempDir()
		if cs := composeCold(t, x, x.app, dir); cs.Reused != 0 || cs.TrialsReinjected != uint64(x.col.trials) {
			t.Fatalf("cold run reused sections: %+v", cs)
		}
		m.composed[key] = dir
	}
	return m.composed[key]
}

// composeCold runs app's fixed-count campaign of the cell over a fresh disk
// cache on dir — a new process in miniature — and returns its section
// counters.
func composeCold(t *testing.T, x *cell, app campaign.App, dir string) campaign.ComposeStats {
	cache := diskCache(t, dir)
	if _, err := campaign.New(app, x.tool, campaign.WithTrials(x.col.trials), campaign.WithSeed(x.seed),
		campaign.WithCache(cache)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return cache.Compose()
}

// refRun is a reference campaign's result and its observed trial stream.
type refRun struct {
	*campaign.Result
	trs []campaign.TrialResult
}

// reference is the one run every cell of a campaign is checked against. A
// cancelled cell is checked against the first n trials of the fixed-count
// run — trial i is a pure function of its seed, so of any run that long.
func (m *matrix) reference(t *testing.T, app campaign.App, seed uint64, col column, n int) *refRun {
	trials := col.trials
	if col.cancelAt > 0 {
		trials = 256
		for trials < n {
			trials *= 2
		}
	}
	key := fmt.Sprint(app.Name, "/", col.tool.Name(), "/", seed, "/", trials, "/", col.precision)
	if ref := m.refs[key]; ref != nil {
		return ref
	}
	ref := &refRun{}
	opts := []campaign.Option{campaign.WithTrials(trials), campaign.WithSeed(seed),
		campaign.WithWorkers(1), campaign.WithCache(nil),
		campaign.WithObserver(func(_ int, tr campaign.TrialResult) { ref.trs = append(ref.trs, tr) })}
	if col.precision {
		opts = append(opts, campaign.WithPrecision(precMargin))
	}
	var err error
	if ref.Result, err = campaign.New(app, col.tool, opts...).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ref.trs) != ref.Trials {
		t.Fatalf("the reference run delivered %d of its %d trials", len(ref.trs), ref.Trials)
	}
	if col.precision && (ref.Trials == 0 || ref.Trials >= trials) {
		t.Fatalf("the reference run did not stop early: %d of %d trials", ref.Trials, trials)
	}
	m.refs[key] = ref
	return ref
}

// compare is the matrix's one comparator.
func (m *matrix) compare(t *testing.T, x *cell, res *campaign.Result, err error) {
	t.Helper()
	x.cancel()
	x.mu.Lock()
	order, stream := x.order, x.stream
	x.mu.Unlock()
	label := fmt.Sprintf("%s seed %d", x.name, x.seed)
	switch {
	case x.col.cancelAt < 0:
		if !errors.Is(err, context.Canceled) || res != nil || len(order) != 0 {
			t.Fatalf("%s: err=%v result=%v deliveries=%d; want context.Canceled, no result, no delivery", label, err, res, len(order))
		}
		return
	case x.col.cancelAt > 0:
		if !errors.Is(err, context.Canceled) || len(order) < x.col.cancelAt {
			t.Fatalf("%s: err=%v after %d deliveries, want context.Canceled after at least %d", label, err, len(order), x.col.cancelAt)
		}
	case err != nil:
		t.Fatalf("%s: %v", label, err)
	}
	ref := m.reference(t, x.app, x.seed, x.col, len(order))
	if x.col.cancelAt == 0 && len(order) != ref.Trials {
		t.Fatalf("%s: %d deliveries, reference %d trials", label, len(order), ref.Trials)
	}
	want := ref.trs[:len(order)]
	for i, idx := range order {
		if idx != i || stream[i] != want[i] {
			t.Fatalf("%s: delivery %d is trial %d %+v, reference trial %d %+v", label, i, idx, stream[i], i, want[i])
		}
	}
	if res == nil {
		if x.summary && x.col.cancelAt > 0 {
			return // a cancelled client has no summary
		}
		t.Fatalf("%s: no result", label)
	}
	var counts fault.Counts
	var cycles int64
	for _, r := range want {
		counts.Add(r.Outcome)
		cycles += r.Cycles
	}
	if res.Counts != counts || res.Cycles != cycles || res.Trials != len(want) {
		t.Fatalf("%s: %+v/%d cycles/%d trials, reference %+v/%d/%d", label, res.Counts, res.Cycles, res.Trials, counts, cycles, len(want))
	}
	if !x.summary && (res.Profile == nil || res.Profile.Targets != ref.Profile.Targets || res.Profile.Budget != ref.Profile.Budget) {
		t.Fatalf("%s: profile %+v, reference %+v", label, res.Profile, ref.Profile)
	}
}

// runSuite runs the suite through the row's door and checks every cell
// against its reference, and Tables 5 and 6 and the verdict counts against
// those rendered from the references. A suite cancelled before it starts
// fails with the cancellation.
func (m *matrix) runSuite(t *testing.T, r row) {
	cfg := experiments.Config{Apps: m.suite, Tools: campaign.Tools, Trials: fixedTrials, Seed: matrixSeed, Cache: campaign.NewCache()}
	r.suite(t, &cfg)
	got, err := experiments.RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := &experiments.Suite{Trials: fixedTrials, Results: map[string]map[string]*campaign.Result{}, Tools: campaign.Tools}
	for _, app := range m.suite {
		want.Order = append(want.Order, app.Name)
		want.Results[app.Name] = map[string]*campaign.Result{}
		for _, tool := range campaign.Tools {
			ref := m.reference(t, app, matrixSeed, fixedColumn(tool), 0)
			want.Results[app.Name][tool.Name()] = ref.Result
			if res := got.Results[app.Name][tool.Name()]; res == nil || res.Counts != ref.Counts || res.Cycles != ref.Cycles || res.Trials != ref.Trials {
				t.Fatalf("%s/%s: %+v, reference %+v/%d cycles/%d trials", app.Name, tool.Name(), res, ref.Counts, ref.Cycles, ref.Trials)
			}
		}
	}
	render := func(s *experiments.Suite) string {
		t5, err5 := s.Table5()
		verdicts, errV := s.SummaryCounts()
		return fmt.Sprint(s.Table6(), t5, err5, verdicts, errV)
	}
	if g, w := render(got), render(want); g != w {
		t.Errorf("tables and verdicts:\n%s\nreference:\n%s", g, w)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := experiments.RunSuiteContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled suite: %v, want context.Canceled", err)
	}
}

func mustApp(t *testing.T, name string) campaign.App {
	t.Helper()
	app, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// miniApp is the -short matrix's workload, short enough for the race
// detector: loops, a call, FP arithmetic, memory and data-dependent branches.
func miniApp() *ir.Module {
	m := ir.NewModule("mini")
	m.DeclareHost(ir.HostDecl{Name: "out_f64", Params: []ir.Type{ir.F64}, Ret: ir.I64})
	m.AddGlobal(ir.Global{Name: "v", Size: 32 * 8})
	b := ir.NewBuilder(m)
	b.NewFunc("dot", ir.F64, ir.F64)
	acc := b.NewVar(ir.F64, b.ConstF(0))
	vp := b.GlobalAddr("v")
	b.Loop(b.ConstI(0), b.ConstI(32), b.ConstI(1), func(i *ir.Value) {
		x := b.Load(ir.F64, b.Index(vp, i))
		acc.Set(b.FAdd(acc.Get(), b.FMul(x, b.FAdd(x, b.Param(0)))))
	})
	b.Ret(acc.Get())
	b.NewFunc("main", ir.I64)
	vp = b.GlobalAddr("v")
	b.Loop(b.ConstI(0), b.ConstI(32), b.ConstI(1), func(i *ir.Value) {
		b.Store(b.FDiv(b.SIToFP(i), b.ConstF(3.5)), b.Index(vp, i))
	})
	s := b.NewVar(ir.F64, b.ConstF(0))
	b.Loop(b.ConstI(0), b.ConstI(6), b.ConstI(1), func(k *ir.Value) {
		r := b.Call("dot", b.SIToFP(k))
		b.If(b.ICmp(ir.EQ, b.SRem(k, b.ConstI(2)), b.ConstI(0)), func() { s.Set(b.FAdd(s.Get(), r)) },
			func() { s.Set(b.FSub(s.Get(), b.FSqrt(b.FAbs(r)))) })
	})
	b.Call("out_f64", s.Get())
	b.Ret(b.ConstI(0))
	return m
}
