package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/multibit"
	"repro/internal/opcodefi"
	"repro/internal/pinfi"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workloads"
)

// Sizing, frozen. One round of each workload is 0.6–0.9 s on the 2-core box
// the benchmark was sized on (README.md has the per-cell cost table these
// come from): long enough that several GC cycles, machine-pool refills and
// journal flushes fall inside every round, short enough that a timed region
// holds 30–45 of them. They are constants — never tuned at run time — so that
// both commits of a comparison time the same work.
const (
	suiteTrialsPerCell  = 8   // 14 apps × 3 tools × 8 = 336 trials per round
	firedTrialsPerCell  = 32  // 14 apps × 3 tools × 32 = 1344 trials per round
	editTrialsPerCell   = 16  // 28 single-function edits × 3 tools × 16 = 1344 trials per round
	servedTrialsPerCell = 512 // 4 apps × 2 tools × 512 (+ W replays of 512) per round; a power of two, see servedSeedBase
	smokeTrialsPerCell  = 2

	// popSeed is the campaign seed of every cell on the three workloads whose
	// rounds are identical. The trial population is fixed on purpose: at 504
	// trials the executed-instruction total of a round moves by ~10 % (IQR)
	// between campaign seeds — a handful of 10×-budget timeouts on the big
	// REFINE binaries — which is the whole regression bound. -seed therefore
	// permutes orders and assignments (below), not the fault population.
	popSeed uint64 = 1
	// servedSeedBase + round is the campaign seed on served_sharded, where
	// identical specs would dedup onto one execution. Trial i of a campaign
	// is seeded from seed ^ i, so with the base a multiple of the trial count
	// and the count a power of two, rounds 0..511 draw the same 512 trials
	// in a different order: distinct campaigns, identical work, and — sums
	// being order-free — identical table digests, which the output check
	// holds every round to.
	servedSeedBase uint64 = 1 << 20

	sampleIndices = 32 // trial indexes per cell replayed by the output check

	// replaySuffix marks, in keys, a client's deduplicated second request for
	// a campaign its peer submitted.
	replaySuffix = "#replay"
)

var (
	paperTools = []string{"LLFI", "REFINE", "PINFI"}
	firedTools = []string{"PINFI", opcodefi.Name, multibit.PINFI2Name}
	editApps   = []string{"CG", "FT", "DC", "EP", "miniFE", "SP"}
	servedApps = []string{"DC", "EP", "FT", "SP"}
	servedTool = []string{"PINFI", opcodefi.Name}
)

// env is what a workload needs from the run that hosts it.
type env struct {
	seed  uint64
	w     int    // executor size, shard count and client count: min(nproc, 4)
	dir   string // scratch directory, inside the checkout
	smoke bool
	tr    *tracer // nil = tracing off
	span  int     // the enclosing span (set-up, round or probe), parent of what a workload records
}

func (e *env) perCell(n int) int {
	if e.smoke {
		return smokeTrialsPerCell
	}
	return n
}

// iters is an iteration count of a layer probe, a hundredth of it in a smoke
// run.
func (e *env) iters(n int) int {
	if e.smoke {
		return max(1, n/100)
	}
	return n
}

// perm is the -seed-derived order of n things; salt separates the uses.
func (e *env) perm(n int, salt uint64) []int {
	return rand.New(rand.NewSource(int64(e.seed*0x9E3779B97F4A7C15 + salt))).Perm(n)
}

func (e *env) mkdir(name string) (string, error) {
	return os.MkdirTemp(e.dir, name+"-*")
}

// cell is one campaign of a round: application × tool, plus the campaign
// options that decide its outcomes. key names it in tables and digests.
type cell struct {
	key    string
	app    campaign.App
	tool   campaign.Tool
	seed   uint64
	trials int
}

func mustApp(name string) campaign.App {
	app, err := workloads.ByName(name)
	if err != nil {
		panic(err) // the names are constants of this file
	}
	return app
}

func mustTool(name string) campaign.Tool {
	t, err := campaign.ToolByName(name)
	if err != nil {
		panic(err)
	}
	return t
}

func matrix(apps, tools []string, seed uint64, trials int) []cell {
	var out []cell
	for _, a := range apps {
		for _, t := range tools {
			out = append(out, cell{key: a + "/" + t, app: mustApp(a), tool: mustTool(t), seed: seed, trials: trials})
		}
	}
	return out
}

// row is one cell's line of the outcome table.
type row struct {
	counts fault.Counts
	cycles int64
	trials int
}

// roundOut is what one round produced.
type roundOut struct {
	delivered int64          // trials handed to the caller (observer or stream)
	rows      map[string]row // by cell key
	ops       int            // operations attempted: campaigns and client requests
	failures  []string       // operations that failed, one line each
}

// digest is the table digest: Counts and Cycles of every cell, in key order.
// Deduplicated re-requests are left out — which cells a client re-requests is
// -seed's choice, and each is held equal to its cell's own row elsewhere — so
// the digest of a workload is the same under every seed.
func (r roundOut) digest() string {
	keys := make([]string, 0, len(r.rows))
	for k := range r.rows {
		if !strings.HasSuffix(k, replaySuffix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s|%+v|%d|%d\n", k, r.rows[k].counts, r.rows[k].cycles, r.rows[k].trials)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// captureFn receives the streamed result of trial i of a cell. It is nil in
// timed rounds and set in the one untimed check round.
type captureFn func(key string, i int, tr campaign.TrialResult)

// workload is one of the four benchmark workloads. A value is used for one
// set-up, then any number of rounds, then one tearDown.
type workload interface {
	// setUp does everything a cold user pays before the first trial.
	setUp(e *env) error
	// round runs one round; round r of a workload is the same work in every
	// run of every commit.
	round(e *env, r int, capture captureFn) (roundOut, error)
	// cells lists round r's campaigns, for the replay check.
	cells(e *env, r int) []cell
	// pids are the live worker processes to account with this one.
	pids() []int
	tearDown()
}

// workloadDef declares a workload: its contract entry and how it is checked.
type workloadDef struct {
	name, why string
	make      func() workload
	serial    bool // its rounds keep one thread busy, not W: the yardstick runs as wide as the rounds
	samples   int  // trial indexes per cell the replay check re-runs
	fig5      bool // the table is the paper's suite: hold its Figure 5 totals to the paper's bands
	// byHand keeps a workload out of BENCHMARK.json: `go run ./bench` and the
	// smoke test run it, the pipeline does not. The pipeline's 57 minutes hold
	// 22 runs each of three workloads at the run length the box's noise asks
	// for, not of four (README.md, "Noise and the estimator").
	byHand bool
}

var workloadDefs = []workloadDef{
	{name: "suite_sched", why: "the paper's campaign: 14 apps x LLFI/REFINE/PINFI on one shared executor; REFINE trials are 78% of CPU, so VM-loop and scheduler changes show",
		make: func() workload { return &suiteSched{} }, samples: sampleIndices, fig5: true},
	{name: "fired_serial", why: "14 apps x PINFI/OPCODE/PINFI2 at one worker: only the hook-free fire-point trial path works; scheduler, wire and caches do nothing",
		make: func() workload { return &firedSerial{} }, serial: true, samples: sampleIndices},
	{name: "served_sharded", why: "fi-serve daemon over a 2-process shard pool, closed-loop clients on the cheapest cells: gob wire, journal, event log and ndjson are ~1/6 of CPU",
		make: func() workload { return &servedSharded{} }, samples: sampleIndices},
	// warm_edit's 84 cells are 28 copies of 18 binaries; 8 indexes each
	// already replays every binary more than 30 times over.
	{name: "warm_edit", why: "developer loop: every single-function edit of 6 apps re-run over a warm disk cache; rebuild, re-profile and section restore/store dominate",
		make: func() workload { return &warmEdit{} }, samples: sampleIndices / 4, byHand: true},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildAll is the set-up common to all four: App.Build → opt → instrument →
// codegen → asm → golden profile → fire-point recording, once per cell.
func buildAll(e *env, cache *campaign.Cache, cells []cell, parent int) error {
	for _, c := range cells {
		id := e.tr.begin(parent, "campaign.BuildAndProfile", c.key)
		_, _, err := cache.BuildAndProfile(c.app, c.tool, campaign.DefaultBuildOptions(), pinfi.DefaultCosts())
		e.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", c.key, err)
		}
	}
	return nil
}

func rowOf(res *campaign.Result) row {
	return row{counts: res.Counts, cycles: res.Cycles, trials: res.Trials}
}

// runCell runs one cell through campaign.Run with the given extra options and
// folds it into out. Safe for concurrent use with a shared out under mu.
func runCell(e *env, c cell, parent int, capture captureFn, mu *sync.Mutex, out *roundOut, opts ...campaign.Option) {
	var n int64 // observer calls are serialized, and Run returns after the last one
	opts = append([]campaign.Option{
		campaign.WithTrials(c.trials), campaign.WithSeed(c.seed),
		campaign.WithObserver(func(i int, tr campaign.TrialResult) {
			n++
			if capture != nil {
				capture(c.key, i, tr)
			}
		}),
	}, opts...)
	id := e.tr.begin(parent, "campaign.Run", c.key)
	res, err := campaign.New(c.app, c.tool, opts...).Run(context.Background())
	e.tr.end(id)
	mu.Lock()
	defer mu.Unlock()
	out.ops++
	out.delivered += n
	if err != nil {
		out.failures = append(out.failures, fmt.Sprintf("%s: %v", c.key, err))
		return
	}
	out.rows[c.key] = rowOf(res)
}

// suite_sched -----------------------------------------------------------------

type suiteSched struct {
	cache *campaign.Cache
	exec  *sched.Executor
}

func (w *suiteSched) cells(e *env, _ int) []cell {
	return matrix(workloads.Names(), paperTools, popSeed, e.perCell(suiteTrialsPerCell))
}

func (w *suiteSched) setUp(e *env) error {
	w.cache = campaign.NewCache()
	w.exec = sched.New(e.w)
	return buildAll(e, w.cache, w.cells(e, 0), e.span)
}

func (w *suiteSched) round(e *env, r int, _ captureFn) (roundOut, error) {
	// -seed decides the order the 14 apps are submitted in, and so which
	// campaigns' trials interleave on the executor.
	reg := workloads.Registry()
	apps := make([]campaign.App, len(reg))
	for i, j := range e.perm(len(reg), 1) {
		apps[i] = reg[j]
	}
	id := e.tr.begin(e.span, "experiments.RunSuite", "")
	s, err := experiments.RunSuite(experiments.Config{
		Apps: apps, Trials: e.perCell(suiteTrialsPerCell), Seed: popSeed,
		Cache: w.cache, Sched: w.exec,
	})
	e.tr.end(id)
	out := roundOut{rows: map[string]row{}, ops: len(apps) * len(paperTools)}
	if err != nil {
		// RunSuite abandons the suite on its first failed campaign.
		out.failures = append(out.failures, err.Error())
		return out, nil
	}
	for app, byTool := range s.Results {
		for tool, res := range byTool {
			out.rows[app+"/"+tool] = rowOf(res)
			out.delivered += int64(res.Trials) // RunSuite has no observer seam; a Result is what its caller gets
		}
	}
	return out, nil
}

func (w *suiteSched) pids() []int { return nil }

func (w *suiteSched) tearDown() {
	if w.exec != nil {
		w.exec.Close()
	}
}

// fired_serial ----------------------------------------------------------------

type firedSerial struct {
	cache *campaign.Cache
}

func (w *firedSerial) cells(e *env, _ int) []cell {
	return matrix(workloads.Names(), firedTools, popSeed, e.perCell(firedTrialsPerCell))
}

func (w *firedSerial) setUp(e *env) error {
	w.cache = campaign.NewCache()
	return buildAll(e, w.cache, w.cells(e, 0), e.span)
}

func (w *firedSerial) round(e *env, r int, capture captureFn) (roundOut, error) {
	cells := w.cells(e, r)
	out := roundOut{rows: map[string]row{}}
	var mu sync.Mutex
	for _, j := range e.perm(len(cells), 2) { // -seed decides the cell order
		runCell(e, cells[j], e.span, capture, &mu, &out, campaign.WithWorkers(1), campaign.WithCache(w.cache))
	}
	return out, nil
}

func (w *firedSerial) pids() []int { return nil }
func (w *firedSerial) tearDown()   {}

// warm_edit -------------------------------------------------------------------

type warmEdit struct {
	dir   string
	base  map[string]bool // cache files present after set-up
	edits []edit
}

// edit is one single-function source edit and the campaigns re-run after it.
type edit struct {
	app   campaign.App // mutated
	cells []cell
}

// allEdits lists every single-function edit of the six apps: one dead
// constant in one function (workloads.MutateFunc), which moves that
// function's fingerprint and the program hash and nothing else.
func allEdits(e *env) ([]edit, error) {
	var out []edit
	for _, name := range editApps {
		app := mustApp(name)
		for _, f := range app.Build().Funcs {
			mut, err := workloads.MutateFunc(app, f.Name)
			if err != nil {
				return nil, err
			}
			ed := edit{app: mut}
			for _, t := range paperTools {
				ed.cells = append(ed.cells, cell{
					key: name + "@" + f.Name + "/" + t, app: mut, tool: mustTool(t),
					seed: popSeed, trials: e.perCell(editTrialsPerCell),
				})
			}
			out = append(out, ed)
		}
	}
	return out, nil
}

func (w *warmEdit) cells(*env, int) []cell {
	var out []cell
	for _, ed := range w.edits {
		out = append(out, ed.cells...)
	}
	return out
}

// cacheFiles lists the cache's build (.fic) and section (.fis) entries.
func cacheFiles(dir string) (map[string]bool, error) {
	out := map[string]bool{}
	for _, pat := range []string{"*.fic", "*.fis"} {
		names, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			out[n] = true
		}
	}
	return out, nil
}

// upTo is 0, 1, …, n-1: the order of things -seed does not shuffle.
func upTo(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// forEach runs fn(i) for i in order on e.w goroutines.
func forEach(e *env, order []int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < e.w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				fn(order[k])
			}
		}()
	}
	wg.Wait()
}

// setUp cold-populates the disk cache with the unedited apps: builds,
// profiles, fire points and every section's trials.
func (w *warmEdit) setUp(e *env) error {
	var err error
	if w.edits, err = allEdits(e); err != nil {
		return err
	}
	if w.dir, err = e.mkdir("warm-edit"); err != nil {
		return err
	}
	cache, err := campaign.NewDiskCache(w.dir)
	if err != nil {
		return err
	}
	cells := matrix(editApps, paperTools, popSeed, e.perCell(editTrialsPerCell))
	id := e.tr.begin(e.span, "warm_edit.populate", "")
	out := roundOut{rows: map[string]row{}}
	var mu sync.Mutex
	forEach(e, upTo(len(cells)), func(i int) {
		runCell(e, cells[i], id, nil, &mu, &out, campaign.WithWorkers(1), campaign.WithCache(cache))
	})
	e.tr.end(id)
	if len(out.failures) > 0 {
		return fmt.Errorf("populate: %s", strings.Join(out.failures, "; "))
	}
	w.base, err = cacheFiles(w.dir)
	return err
}

func (w *warmEdit) round(e *env, r int, capture captureFn) (roundOut, error) {
	eds := w.edits
	out := roundOut{rows: map[string]row{}}
	var mu sync.Mutex
	// -seed decides the order the edits are made in. Each edit gets a fresh
	// Cache over the warm directory — a new process after a source change —
	// so every reuse is a disk restore, and the in-memory layer (keyed by app
	// name) never serves one edit's binary to the next.
	forEach(e, e.perm(len(eds), 3), func(i int) {
		cache, err := campaign.NewDiskCache(w.dir)
		if err != nil {
			mu.Lock()
			out.ops++
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", eds[i].app.Name, err))
			mu.Unlock()
			return
		}
		for _, c := range eds[i].cells {
			runCell(e, c, e.span, capture, &mu, &out, campaign.WithWorkers(1), campaign.WithCache(cache))
		}
		if st := cache.Stats(); st.Quarantined+st.DiskErrors > 0 {
			mu.Lock()
			out.failures = append(out.failures, fmt.Sprintf("%s: cache quarantined=%d disk_errors=%d", eds[i].cells[0].key, st.Quarantined, st.DiskErrors))
			mu.Unlock()
		}
	})
	// Remove what the round stored, so the next round meets the same
	// directory.
	id := e.tr.begin(e.span, "warm_edit.cleanup", "")
	defer e.tr.end(id)
	now, err := cacheFiles(w.dir)
	if err != nil {
		return out, err
	}
	for name := range now {
		if !w.base[name] {
			if err := os.Remove(name); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

func (w *warmEdit) pids() []int { return nil }
func (w *warmEdit) tearDown()   {}

// served_sharded --------------------------------------------------------------

type servedSharded struct {
	pool    *shard.Pool
	journal *campaign.Journal
	http    *http.Server
	addr    string
	wire    *countingTransport
	served  sync.WaitGroup
}

func (w *servedSharded) cells(e *env, r int) []cell {
	return matrix(servedApps, servedTool, servedSeedBase+uint64(r), e.perCell(servedTrialsPerCell))
}

// setUp spawns the shard pool, opens the journal, starts the daemon on a
// loopback listener and cold-populates the shared disk cache the workers
// restore their binaries from.
func (w *servedSharded) setUp(e *env) error {
	dir, err := e.mkdir("served")
	if err != nil {
		return err
	}
	id := e.tr.begin(e.span, "shard.NewPool", "")
	w.pool, err = shard.NewPool(e.w)
	e.tr.end(id)
	if err != nil {
		return err
	}
	if w.journal, err = campaign.OpenJournal(filepath.Join(dir, "journal")); err != nil {
		return err
	}
	cacheDir := filepath.Join(dir, "cache")
	srv, err := serve.NewServer(serve.Config{
		Pool: w.pool, CacheDir: cacheDir, Journal: w.journal,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.addr = ln.Addr().String()
	w.http = &http.Server{Handler: srv.Handler()}
	w.served.Add(1)
	go func() {
		defer w.served.Done()
		w.http.Serve(ln) // returns when tearDown closes the server
	}()
	w.wire = &countingTransport{base: &http.Transport{}}
	cache, err := campaign.NewDiskCache(cacheDir)
	if err != nil {
		return err
	}
	if err := buildAll(e, cache, w.cells(e, 0), e.span); err != nil {
		return err
	}
	// The first trial of each cell, through the whole path: until a worker
	// process is up and has restored the binary, nothing comes back.
	cl := &serve.Client{Addr: w.addr, HTTP: &http.Client{Transport: w.wire}}
	for _, c := range matrix(servedApps, servedTool, servedSeedBase-1, 1) { // a seed no round uses
		id := e.tr.begin(e.span, "serve.Client.Run/first-trial", c.key)
		_, err := cl.Run(context.Background(), w.spec(c), nil)
		e.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: first trial: %w", c.key, err)
		}
	}
	return nil
}

func (w *servedSharded) spec(c cell) campaign.Spec {
	return campaign.Spec{
		App: c.app.Name, Tool: c.tool.Name(), Trials: c.trials, Seed: c.seed,
		Build: campaign.DefaultBuildOptions(), Costs: pinfi.DefaultCosts(),
	}
}

func (w *servedSharded) round(e *env, r int, capture captureFn) (roundOut, error) {
	cells := w.cells(e, r)
	// -seed deals the round's campaigns to the clients.
	share := make([][]cell, e.w)
	for k, j := range e.perm(len(cells), 4) {
		share[k%e.w] = append(share[k%e.w], cells[j])
	}
	out := roundOut{rows: map[string]row{}}
	deaths := w.pool.Deaths()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ci := range share {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := &serve.Client{Addr: w.addr, HTTP: &http.Client{Transport: w.wire}}
			run := func(c cell, key string, capture captureFn) {
				var n int64
				id := e.tr.begin(e.span, "serve.Client.Run", key)
				sum, err := cl.Run(context.Background(), w.spec(c), func(i int, tr campaign.TrialResult) {
					n++
					if capture != nil {
						capture(key, i, tr)
					}
				})
				e.tr.end(id)
				mu.Lock()
				defer mu.Unlock()
				out.ops++
				out.delivered += n
				if err != nil {
					out.failures = append(out.failures, fmt.Sprintf("%s: %v", key, err))
					return
				}
				out.rows[key] = row{counts: sum.Counts, cycles: sum.Cycles, trials: sum.Trials}
			}
			for _, c := range share[ci] {
				run(c, c.key, capture)
			}
			// Closed loop: with its own share done, the client asks for a
			// campaign its peer submitted — a dedup hit served from the
			// event log (or attached to the live run if the peer is slower).
			if peer := share[(ci+1)%e.w]; len(peer) > 0 {
				c := peer[0]
				run(c, c.key+replaySuffix, capture)
			}
		}(ci)
	}
	wg.Wait()
	// The pool respawns a dead worker and retries its trials, so the tables
	// would still come out right — but the dead process's CPU and peak memory
	// are gone from the round's accounting.
	if d := w.pool.Deaths() - deaths; d > 0 {
		out.failures = append(out.failures, fmt.Sprintf("%d shard worker(s) died during the round", d))
	}
	return out, nil
}

func (w *servedSharded) pids() []int {
	if w.pool == nil {
		return nil
	}
	return w.pool.Pids()
}

func (w *servedSharded) tearDown() {
	if w.http != nil {
		w.http.Close()
		w.served.Wait()
	}
	if w.wire != nil {
		w.wire.base.CloseIdleConnections()
	}
	if w.pool != nil {
		w.pool.Close()
	}
	if w.journal != nil {
		w.journal.Close()
	}
}

// countingTransport counts the client side of the HTTP wire: requests sent
// (more than one per Client.Run means a reconnect) and response bytes read.
type countingTransport struct {
	base     *http.Transport
	requests atomic.Int64
	bytes    atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
