package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/pinfi"
	"repro/internal/sched"
	"repro/internal/stats"
)

// ErrBuildUnclaimed reports that a campaign's build+profile unit settled
// without ever being claimed by an executor worker. The usual cause is
// context cancellation — then Run wraps ctx.Err() instead — so this sentinel
// surfaces only when the unit was abandoned while ctx.Err() is nil (e.g. a
// context whose Done channel fires before Err reports non-nil). Match with
// errors.Is.
var ErrBuildUnclaimed = errors.New("build+profile unit abandoned unclaimed")

// Campaign is a fully specified fault-injection campaign: one application,
// one injector, and the run configuration collected from functional options.
// Construct with New and execute with Run; the zero value is not usable.
type Campaign struct {
	app  App
	tool Tool

	trials  int // one past the last trial index (== trial count when lo is 0)
	lo      int // first trial index (WithTrialRange; 0 ⇒ full campaign)
	seed    uint64
	workers int
	build   BuildOptions
	cache   *Cache // nil ⇒ fresh build+profile (no cache)
	costs   pinfi.CostModel

	observer    func(i int, tr TrialResult)
	keepRecords bool
	exec        *sched.Executor   // nil ⇒ a private executor of c.workers for this Run
	journal     *Journal          // nil ⇒ no crash-safe resume
	precision   *stats.Sequential // nil ⇒ fixed trial count (no sequential stopping)
}

// Option configures a Campaign (functional options).
type Option func(*Campaign)

// WithTrials sets the number of fault-injection trials (default:
// PaperTrials, the paper's n=1068), covering the full index range [0, n) —
// it resets any earlier WithTrialRange.
func WithTrials(n int) Option { return func(c *Campaign) { c.lo, c.trials = 0, n } }

// WithSeed sets the base RNG seed; trial i uses TrialSeed(seed, tool, i)
// (default: 1).
func WithSeed(s uint64) Option { return func(c *Campaign) { c.seed = s } }

// WithWorkers sizes the private executor a campaign without WithExecutor
// runs on (default and ≤ 0: GOMAXPROCS; 1 = serial). Results are independent
// of the worker count by construction.
func WithWorkers(n int) Option { return func(c *Campaign) { c.workers = n } }

// WithBuildOptions sets the build pipeline configuration (optimization
// level, -fi-funcs, -fi-instrs). Default: DefaultBuildOptions.
func WithBuildOptions(o BuildOptions) Option { return func(c *Campaign) { c.build = o } }

// WithCache selects the build/profile cache. Passing nil forces a fresh
// build and golden run (the determinism suite compares exactly that against
// cached campaigns). Default: the process-wide DefaultCache.
func WithCache(cache *Cache) Option { return func(c *Campaign) { c.cache = cache } }

// WithCostModel overrides the PIN-style dynamic-instrumentation cost model
// (default: pinfi.DefaultCosts).
func WithCostModel(m pinfi.CostModel) Option { return func(c *Campaign) { c.costs = m } }

// WithObserver streams trial results as the campaign runs. The observer is
// invoked exactly once per completed trial, in trial order (i = 0, 1, 2, …)
// regardless of worker count — out-of-order completions are buffered and
// delivered in sequence, so an observer sees the identical stream a buffered
// Records slice would hold. Calls are serialized; a slow observer
// back-pressures delivery (workers keep running ahead into the reorder
// buffer), so keep it cheap or hand off to a channel.
func WithObserver(fn func(i int, tr TrialResult)) Option {
	return func(c *Campaign) { c.observer = fn }
}

// WithRecords buffers every trial's TrialResult in Result.Records. Off by
// default so million-trial campaigns run in constant memory; aggregate
// Counts/Cycles are always collected, and WithObserver provides the full
// stream without buffering.
func WithRecords() Option { return func(c *Campaign) { c.keepRecords = true } }

// WithExecutor schedules the campaign's build+profile and trials on a shared
// work-stealing executor instead of a private one created for the Run.
// Campaigns on one executor interleave at trial granularity, so a
// multi-campaign suite keeps every core busy even while individual campaigns
// build, profile, or drain their trial tail. Results are bit-identical to a
// private executor of any size: the executor only decides where iterations
// run, and trial i is always seeded by TrialSeed(seed, tool, i). WithWorkers
// is ignored with a shared executor — parallelism is the executor's.
//
// Run must not be called from inside a body already executing on the same
// executor (it waits on the executor and would hold a worker hostage).
func WithExecutor(ex *sched.Executor) Option { return func(c *Campaign) { c.exec = ex } }

// WithTrialRange restricts the campaign to trial indexes [lo, hi) of the
// full trial space. Trial i keeps its absolute seed TrialSeed(seed, tool, i)
// and the observer still receives absolute indexes, so a set of ranged
// campaigns covering [0, n) reproduces the unranged campaign's stream
// exactly — this is the substrate the process-sharding workers run on.
// Result aggregates (Counts, Cycles, Records) cover only the range.
// WithTrials after WithTrialRange resets to the full [0, n) range.
func WithTrialRange(lo, hi int) Option {
	return func(c *Campaign) { c.lo, c.trials = lo, hi }
}

// WithPrecision replaces the fixed trial count with sequential Wilson-CI
// stopping (stats.Sequential): the campaign stops at the first trial-count
// batch boundary where every outcome class's Wilson interval has half-width
// at most margin at z-score z (z = 0 ⇒ stats.Z95). WithTrials still bounds
// the campaign — precision can only stop it early, never extend it — and
// Result.Trials reports the delivered count.
//
// The stop index is a pure function of the delivered in-order trial prefix,
// evaluated only at stats.DefaultBatch boundaries during ordered delivery,
// so precision-stopped campaigns keep the standing determinism invariant:
// serial ≡ scheduled ≡ sharded ≡ cached ≡ resumed, for any worker count.
// Workers past the stop index abandon their not-yet-started trials; in-flight
// trials beyond it are discarded undelivered (the observer never sees them).
//
// margin ≤ 0 disables precision stopping (the fixed -trials behavior).
func WithPrecision(margin, z float64) Option {
	return func(c *Campaign) {
		if margin <= 0 {
			c.precision = nil
			return
		}
		c.precision = &stats.Sequential{Margin: margin, Z: z}
	}
}

// WithJournal makes the campaign crash-safe: every delivered trial is
// appended to the journal as it completes, and Run starts by replaying the
// journal's recorded trials for this campaign (matched by Spec.Key) through
// the ordinary reorder-buffer collector, so only missing indices execute. A
// coordinator killed mid-campaign therefore resumes where it left off, and
// because trial i is a pure function of TrialSeed(seed, tool, i), the resumed
// Counts/Cycles/Records/observer stream is bit-identical to an uninterrupted
// run. Applies to in-process and sharded campaigns alike (shard workers
// never journal — only the coordinator's merger does).
func WithJournal(j *Journal) Option { return func(c *Campaign) { c.journal = j } }

// resume returns the journal's recorded results for this campaign's trial
// range (nil without a journal or recorded work).
func (c *Campaign) resume() map[int]TrialResult {
	if c.journal == nil {
		return nil
	}
	return c.journal.Recorded(c.Spec().Key(), c.lo, c.trials)
}

// TrialRange reports the campaign's [lo, hi) trial index range
// (0, WithTrials for a full campaign).
func (c *Campaign) TrialRange() (lo, hi int) { return c.lo, c.trials }

// PaperTrials is the paper's per-configuration trial count (§5.3: 3% margin,
// 95% confidence over a large population — the Leveugle et al. sample size;
// stats.SampleSize(1<<40, 0.03, stats.Z95) computes the same value).
const PaperTrials = 1068

// New specifies a campaign for (app, tool) with the given options.
func New(app App, tool Tool, opts ...Option) *Campaign {
	c := &Campaign{
		app:    app,
		tool:   tool,
		trials: PaperTrials,
		seed:   1,
		build:  DefaultBuildOptions(),
		cache:  defaultCache,
		costs:  pinfi.DefaultCosts(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// collector delivers trial results in trial order: workers insert completed
// trials under the lock, and whoever completes the next-in-sequence trial
// becomes the deliverer, flushing the contiguous run — aggregating counts,
// appending records, and invoking the observer — so aggregation order,
// record order and the observer stream are all deterministic regardless of
// scheduling.
//
// Delivery happens OUTSIDE the collector mutex: the deliverer extracts the
// contiguous run under the lock, drops the lock, applies it, and loops in
// case more trials queued up meanwhile. The delivering flag keeps delivery
// single-threaded (and therefore in order), while a re-entrant observer —
// one that cancels the context and inspects delivered(), or enqueues
// follow-up work that lands back in this collector — no longer self-
// deadlocks on the mutex it is already holding.
type collector struct {
	mu         sync.Mutex
	pending    map[int]TrialResult
	next       int  // lowest trial index not yet extracted for delivery
	delivering bool // a deliverer is flushing outside the lock
	flushed    atomic.Int64
	res        *Result
	base       int // first trial index (WithTrialRange lo)
	obs        func(int, TrialResult)
	keep       bool

	// Crash-safe resume sink: freshly executed trials are appended to the
	// journal before insertion; indices in skip were themselves restored
	// from the journal (or the compositional section cache) and must not be
	// re-appended.
	j    *Journal
	jkey string
	skip map[int]TrialResult

	// Sequential precision stopping (WithPrecision). stopAt is one past the
	// last trial index the campaign may deliver: initially hi (the trial
	// range's upper bound), lowered exactly once — by the single-threaded
	// deliverer, at a batch boundary of the delivered prefix — when every
	// outcome class reaches the target half-width. Trials at or past stopAt
	// are discarded undelivered, so the delivered prefix (and therefore the
	// stop decision itself) is identical across execution modes.
	prec   *stats.Sequential
	hi     int // the campaign's trial-range upper bound
	stopAt atomic.Int64

	// comp, when non-nil, buffers every delivered trial by range-relative
	// index for the compositional section store (Run only stores sections
	// from complete, precision-unstopped campaigns).
	comp []TrialResult
}

// stop returns one past the last trial index the campaign may deliver.
func (c *collector) stop() int { return int(c.stopAt.Load()) }

// stopped reports whether sequential precision stopping fixed a stop index
// below the campaign's trial-range upper bound.
func (c *collector) stopped() bool { return c.stop() < c.hi }

func (c *collector) add(i int, tr TrialResult) {
	if c.j != nil && i < c.stop() {
		if _, replayed := c.skip[i]; !replayed {
			c.j.Append(c.jkey, i, tr)
		}
	}
	c.mu.Lock()
	c.pending[i] = tr
	if c.delivering {
		// The current deliverer will pick this up before it retires.
		c.mu.Unlock()
		return
	}
	c.delivering = true
	for {
		start := c.next
		var run []TrialResult
		for {
			r, ok := c.pending[c.next]
			if !ok {
				break
			}
			delete(c.pending, c.next)
			run = append(run, r)
			c.next++
		}
		if len(run) == 0 {
			c.delivering = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		for k, r := range run {
			idx := start + k
			if idx >= c.stop() {
				continue // past the precision stop: discard undelivered
			}
			if c.comp != nil {
				c.comp[idx-c.base] = r
			}
			if c.keep {
				c.res.Records[idx-c.base] = r
			}
			c.res.Counts.Add(r.Outcome)
			c.res.Cycles += r.Cycles
			if c.obs != nil {
				c.obs(idx, r)
			}
			c.flushed.Store(int64(idx - c.base + 1))
			if c.prec != nil {
				// Evaluate the stopping rule per delivered trial (not per
				// flush batch): the decision sequence must match a replayed
				// or resumed run, where delivery granularity differs.
				n := idx - c.base + 1
				if c.prec.Boundary(n) && c.prec.Satisfied(n, []int{
					c.res.Counts.Crash, c.res.Counts.SOC,
					c.res.Counts.Benign, c.res.Counts.HarnessFault,
				}) {
					c.stopAt.Store(int64(idx + 1))
				}
			}
		}
		c.mu.Lock()
	}
}

// delivered returns the length of the contiguous delivered prefix: the
// number of trials whose counts, record and observer call have all been
// applied. Safe to call from anywhere, including from inside an observer.
func (c *collector) delivered() int {
	return int(c.flushed.Load())
}

// Run executes the campaign: build and profile (through the configured
// cache) as one executor unit — so an idle worker of a shared executor can
// pick it up while other campaigns trial — then the trials as one claimable
// batch. The executor is the one from WithExecutor, otherwise a private one of
// WithWorkers workers that lives for this call. Trial i uses
// TrialSeed(seed, tool, i), so Counts, Cycles, Records and the observer
// stream are all reproducible regardless of parallelism and cache state.
//
// Cancelling the context stops the campaign promptly: workers abandon
// not-yet-started trials, and Run returns the partial Result — aggregates
// and records covering the contiguous prefix of delivered trials
// (Result.Trials is shrunk to that prefix) — together with an error wrapping
// ctx.Err(). The observer never sees a trial outside that prefix.
func (c *Campaign) Run(ctx context.Context) (*Result, error) {
	if c.lo < 0 || c.lo > c.trials {
		return nil, fmt.Errorf("campaign: %s/%s: invalid trial range [%d, %d)",
			c.app.Name, c.tool.Name(), c.lo, c.trials)
	}
	ex := c.exec
	if ex == nil {
		workers := c.workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		// A zero-trial campaign still builds and profiles: never size below 1.
		ex = sched.New(max(1, min(workers, c.trials-c.lo)))
		defer ex.Close()
	}

	var (
		bin  *Binary
		prof *Profile
		err  error
	)
	ex.Submit(ctx, 1, func(int) { bin, prof, err = c.prepare() }).Wait()
	if err != nil {
		return nil, err
	}
	if bin == nil {
		// Abandoned before the build unit was claimed — almost always a
		// cancelled context, but never wrap ctx.Err() blindly: a nil cause
		// would format as %!w(<nil>) and break errors.Is matching.
		cause := ctx.Err()
		if cause == nil {
			cause = ErrBuildUnclaimed
		}
		return nil, fmt.Errorf("campaign: %s/%s: %w", c.app.Name, c.tool.Name(), cause)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign: %s/%s: %w", c.app.Name, c.tool.Name(), err)
	}

	comp, recorded := c.composeLoad(prof, c.resume())
	res, col := c.newResult(prof, recorded)
	if comp != nil && len(comp.missed) > 0 {
		col.comp = make([]TrialResult, c.trials-c.lo)
	}
	replay(recorded, col.add)
	ex.Submit(ctx, c.trials-c.lo, func(i int) {
		idx := c.lo + i
		if idx >= col.stop() {
			return // past the precision stop
		}
		if _, ok := recorded[idx]; ok {
			return // restored from the journal or section cache
		}
		m := bin.acquireMachine()
		defer bin.ReleaseMachine(m)
		col.add(idx, bin.runTrialOn(m, prof, c.costs, TrialSeed(c.seed, c.tool, idx)))
	}).Wait()

	c.composeStore(ctx, bin, comp, col)
	return c.finish(ctx, res, col)
}

// prepare resolves the campaign's binary and profile, through the configured
// cache when one is set.
func (c *Campaign) prepare() (*Binary, *Profile, error) {
	if c.cache != nil {
		return c.cache.BuildAndProfile(c.app, c.tool, c.build, c.costs)
	}
	bin, err := BuildBinary(c.app, c.tool, c.build)
	if err != nil {
		return nil, nil, err
	}
	prof, err := bin.RunProfile(c.costs)
	if err != nil {
		return nil, nil, err
	}
	return bin, prof, nil
}

// newResult allocates the campaign result and its ordered collector.
// recorded is the journal replay set (nil without one): those indices are
// delivered from the journal and must not be re-appended to it.
func (c *Campaign) newResult(prof *Profile, recorded map[int]TrialResult) (*Result, *collector) {
	res := &Result{App: c.app.Name, Tool: c.tool, Trials: c.trials - c.lo, Profile: prof}
	if c.keepRecords {
		res.Records = make([]TrialResult, c.trials-c.lo)
	}
	col := &collector{pending: map[int]TrialResult{}, next: c.lo, base: c.lo,
		res: res, obs: c.observer, keep: c.keepRecords,
		prec: c.precision, hi: c.trials}
	col.stopAt.Store(int64(c.trials))
	if c.journal != nil {
		col.j, col.jkey, col.skip = c.journal, c.Spec().Key(), recorded
	}
	return res, col
}

// replay feeds restored trials (journal, section cache) to add in index
// order; the reorder buffer behind add delivers them exactly as a live run
// would.
func replay(recorded map[int]TrialResult, add func(int, TrialResult)) {
	idx := make([]int, 0, len(recorded))
	for i := range recorded {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		add(i, recorded[i])
	}
}

// finish applies the partial-prefix cancellation contract and the sequential
// precision-stop truncation.
func (c *Campaign) finish(ctx context.Context, res *Result, col *collector) (*Result, error) {
	if col.stopped() {
		// Precision-stopped: the result covers exactly the delivered prefix
		// (== the stop index), with no error — stopping early is the
		// campaign completing, not being interrupted.
		res.Trials = col.delivered()
		if c.keepRecords {
			res.Records = res.Records[:res.Trials]
		}
	}
	if err := ctx.Err(); err != nil {
		// Partial-safe result: everything up to the first undelivered trial.
		res.Trials = col.delivered()
		if c.keepRecords {
			res.Records = res.Records[:res.Trials]
		}
		return res, fmt.Errorf("campaign: %s/%s: cancelled after %d/%d trials: %w",
			c.app.Name, c.tool.Name(), res.Trials, c.trials-c.lo, err)
	}
	return res, nil
}
