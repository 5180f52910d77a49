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
	// spec is the campaign's description: trial range, seed, build options,
	// cost model and worker count. Its App and Tool stay empty (the names are
	// app's and tool's) and its CacheDir is the cache's; Spec fills all three.
	spec  Spec
	cache *Cache // nil ⇒ fresh build+profile (a private cache per Run)

	observer  func(i int, tr TrialResult)
	exec      *sched.Executor   // nil ⇒ a private executor of spec.Workers for this Run
	journal   *Journal          // nil ⇒ no crash-safe resume
	precision *stats.Sequential // nil ⇒ fixed trial count (no sequential stopping)
	fromSpec  bool              // built by NewFromSpec: reads and writes no section entries
}

// Option configures a Campaign (functional options).
type Option func(*Campaign)

// WithTrials sets the number of fault-injection trials (default:
// PaperTrials, the paper's n=1068), covering the full index range [0, n) —
// it resets any earlier WithTrialRange.
func WithTrials(n int) Option { return func(c *Campaign) { c.spec.Lo, c.spec.Trials = 0, n } }

// WithSeed sets the base RNG seed; trial i uses TrialSeed(seed, tool, i)
// (default: 1).
func WithSeed(s uint64) Option { return func(c *Campaign) { c.spec.Seed = s } }

// WithWorkers sizes the private executor a campaign without WithExecutor
// runs on (default and ≤ 0: GOMAXPROCS; 1 = serial). Results are independent
// of the worker count by construction.
func WithWorkers(n int) Option { return func(c *Campaign) { c.spec.Workers = n } }

// WithBuildOptions sets the build pipeline configuration (optimization
// level, -fi-funcs, -fi-instrs). Default: DefaultBuildOptions.
func WithBuildOptions(o BuildOptions) Option { return func(c *Campaign) { c.spec.Build = o } }

// WithCache selects the build/profile cache. Passing nil forces a fresh
// build and golden run on a private cache created per Run (the equivalence
// matrix compares exactly that against cached campaigns). Default: the
// process-wide DefaultCache.
func WithCache(cache *Cache) Option { return func(c *Campaign) { c.cache = cache } }

// WithObserver streams trial results as the campaign runs. The observer is
// invoked exactly once per completed trial, in trial order (i = 0, 1, 2, …)
// regardless of worker count — out-of-order completions are buffered and
// delivered in sequence. The observer is the only view of individual trials:
// a Result holds aggregates, so million-trial campaigns run in constant
// memory. On cancellation or a precision stop it has seen exactly the
// delivered prefix Result.Trials counts. Calls are serialized; a slow observer
// back-pressures delivery (workers keep running ahead into the reorder
// buffer), so keep it cheap or hand off to a channel.
func WithObserver(fn func(i int, tr TrialResult)) Option {
	return func(c *Campaign) { c.observer = fn }
}

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
// exactly — the range NewFromSpec gives a shard worker's campaign.
// Result aggregates (Counts, Cycles) cover only the range.
// WithTrials after WithTrialRange resets to the full [0, n) range.
func WithTrialRange(lo, hi int) Option {
	return func(c *Campaign) { c.spec.Lo, c.spec.Trials = lo, hi }
}

// WithPrecision replaces the fixed trial count with sequential Wilson-CI
// stopping (stats.Sequential): the campaign stops at the first trial-count
// batch boundary where every outcome class's 95% Wilson interval has
// half-width at most margin. WithTrials still bounds the campaign —
// precision can only stop it early, never extend it — and Result.Trials
// reports the delivered count.
//
// The stop index is a pure function of the delivered in-order trial prefix,
// evaluated only at stats.DefaultBatch boundaries during ordered delivery,
// so precision-stopped campaigns keep the standing determinism invariant:
// serial ≡ scheduled ≡ sharded ≡ cached ≡ resumed, for any worker count.
// Workers past the stop index abandon their not-yet-started trials; in-flight
// trials beyond it are discarded undelivered (the observer never sees them).
//
// margin ≤ 0 disables precision stopping (the fixed -trials behavior).
func WithPrecision(margin float64) Option {
	return func(c *Campaign) {
		if margin <= 0 {
			c.precision = nil
			return
		}
		c.precision = &stats.Sequential{Margin: margin}
	}
}

// WithJournal makes the campaign crash-safe: every trial is appended to the
// journal before it is delivered, and Run starts by adding the journal's
// recorded trials for this campaign (matched by Spec.Key) to its Merger, so
// only the missing indices execute. A
// coordinator killed mid-campaign therefore resumes where it left off, and
// because trial i is a pure function of TrialSeed(seed, tool, i), the resumed
// Counts/Cycles/observer stream is bit-identical to an uninterrupted
// run. Applies to in-process and sharded campaigns alike (shard workers
// never journal — only the coordinator's merger does).
func WithJournal(j *Journal) Option { return func(c *Campaign) { c.journal = j } }

// PaperTrials is the paper's per-configuration trial count (§5.3: 3% margin,
// 95% confidence over a large population — the Leveugle et al. sample size;
// stats.SampleSize(1<<40, 0.03, stats.Z95) computes the same value).
const PaperTrials = 1068

// New specifies a campaign for (app, tool) with the given options.
func New(app App, tool Tool, opts ...Option) *Campaign {
	c := &Campaign{
		app:  app,
		tool: tool,
		spec: Spec{
			Trials: PaperTrials,
			Seed:   1,
			Build:  DefaultBuildOptions(),
			Costs:  pinfi.DefaultCosts(),
		},
		cache: defaultCache,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Run executes the campaign: build and profile (through the configured
// cache) as one executor unit — so an idle worker of a shared executor can
// pick it up while other campaigns trial — then every trial its Merger is
// missing as one claimable batch. The executor is the one from WithExecutor,
// otherwise a private one of WithWorkers workers that lives for this call.
// Trial i uses TrialSeed(seed, tool, i), so Counts, Cycles and the observer
// stream are all reproducible regardless of parallelism and cache state.
//
// Cancelling the context stops the campaign promptly: workers abandon
// not-yet-started trials, and Run returns the partial Result — aggregates
// covering the contiguous prefix of delivered trials (Result.Trials is shrunk
// to that prefix) — together with an error wrapping ctx.Err(). The observer
// never sees a trial outside that prefix.
func (c *Campaign) Run(ctx context.Context) (*Result, error) {
	s := c.spec
	if err := s.CheckRange(); err != nil {
		return nil, fmt.Errorf("campaign: %s/%s: %w", c.app.Name, c.tool.Name(), err)
	}
	ex := c.exec
	if ex == nil {
		workers := s.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		// A zero-trial campaign still builds and profiles: never size below 1.
		ex = sched.New(max(1, min(workers, s.Trials-s.Lo)))
		defer ex.Close()
	}

	cache := c.cache
	if cache == nil {
		cache = NewCache()
	}
	var (
		bin  *Binary
		prof *Profile
		err  error
	)
	ex.Submit(ctx, 1, func(int) { bin, prof, err = cache.BuildAndProfile(c.app, c.tool, s.Build, s.Costs) }).Wait()
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

	st := c.composeLoad(prof)
	m := c.newMerger(prof, st)
	// One job covers the missing runs, so a resume with holes runs in
	// parallel: job index i lies in the run k whose running total ends[k]
	// first exceeds it.
	missing := m.Missing()
	ends := make([]int, len(missing))
	n := 0
	for k, r := range missing {
		n += r[1] - r[0]
		ends[k] = n
	}
	ex.Submit(ctx, n, func(i int) {
		k := sort.SearchInts(ends, i+1)
		idx := missing[k][1] - (ends[k] - i)
		if idx >= m.stop() {
			return // past the precision stop
		}
		mach := bin.acquireMachine()
		defer bin.ReleaseMachine(mach)
		m.Add(idx, bin.runTrialOn(mach, prof, s.Costs, TrialSeed(s.Seed, c.tool, idx)))
	}).Wait()

	c.composeStore(ctx, bin, st, m)
	return m.Finish(ctx)
}

// Merger is a campaign's ordered sink. Trials arrive in any order — from the
// executor's workers, from shard workers' frames, restored from the journal
// or the section cache — and it delivers them in trial order, aggregating
// counts and invoking the observer, so aggregation order and the observer
// stream are deterministic regardless of scheduling. Its reorder buffer is
// the only record of arrival: trial i has arrived iff i < next or i is
// pending. A trial outside the campaign's range, or arriving again (a dead
// shard worker's reassigned range), is dropped: trial i is a pure function of
// its seed, so the first receipt is authoritative.
//
// Whoever adds the next-in-sequence trial becomes the deliverer: it extracts
// the contiguous run under the lock, drops the lock, applies it, and loops in
// case more trials queued up meanwhile. The delivering flag keeps delivery
// single-threaded (and therefore in order, through one reused run buffer, so
// an Add allocates nothing), while a re-entrant observer — one that cancels
// the context and inspects Delivered, or adds follow-up work that lands back
// in this Merger — cannot self-deadlock on the mutex.
//
// Campaign.Run drives one through Missing → Add → Finish, shard.Pool.Run
// through Missing → AddBatch (a worker's trial frame at a time) → Finish.
// Construct with Campaign.NewMerger.
type Merger struct {
	c   *Campaign
	res *Result

	mu         sync.Mutex
	pending    map[int]TrialResult
	next       int           // lowest trial index not yet extracted for delivery
	delivering bool          // a deliverer is flushing outside the lock
	run        []TrialResult // the deliverer's extracted run, reused
	flushed    atomic.Int64

	// The crash-safe resume sink, attached once the restored trials are in:
	// every later arrival inside the stop index is journaled under the lock
	// that admits it, so a trial is journaled once and before it is delivered.
	// A batch's new trials go out in one write, gathered in jbuf.
	j    *Journal
	jkey string
	jbuf []journalEntry

	// Sequential precision stopping (WithPrecision). stopAt is one past the
	// last trial index the campaign may deliver: initially the range's upper
	// bound, lowered exactly once — by the single-threaded deliverer, at a
	// batch boundary of the delivered prefix — when every outcome class
	// reaches the target half-width. Trials at or past stopAt are discarded
	// undelivered, so the delivered prefix (and therefore the stop decision
	// itself) is identical across execution modes.
	stopAt atomic.Int64

	// comp, when non-nil, buffers every delivered trial by range-relative
	// index for the compositional section store (Run only stores sections
	// from complete, precision-unstopped campaigns).
	comp []TrialResult
}

// NewMerger returns the campaign's Merger holding the journal's recorded
// trials (WithJournal), so Missing reports only the work left to assign and
// late frames for recorded indices drop as duplicates. The profile arrives
// through SetProfile.
func (c *Campaign) NewMerger() *Merger { return c.newMerger(nil, nil) }

// newMerger returns a Merger holding prof and the restored trials: the
// journal's, then the reused sections' the journal does not hold (st is nil
// when the campaign does not compose). The journal is attached only then, so
// no restored trial is appended again.
func (c *Campaign) newMerger(prof *Profile, st *composeState) *Merger {
	lo, hi := c.spec.Lo, c.spec.Trials
	m := &Merger{c: c, res: &Result{App: c.app.Name, Tool: c.tool, Trials: hi - lo, Profile: prof},
		pending: map[int]TrialResult{}, next: lo}
	m.stopAt.Store(int64(hi))
	if st != nil && len(st.missed) > 0 {
		m.comp = make([]TrialResult, hi-lo)
	}
	var key string
	journaled := 0
	if c.journal != nil {
		key = c.Spec().Key()
		journaled = m.restore(c.journal.Recorded(key, lo, hi))
	}
	if st != nil {
		reused := m.restore(st.recorded)
		c.cache.trialsReused.Add(uint64(reused))
		c.cache.trialsReinjected.Add(uint64(hi - lo - journaled - reused))
	}
	m.j, m.jkey = c.journal, key
	return m
}

// restore adds recovered trials in index order and reports how many were new.
func (m *Merger) restore(trs map[int]TrialResult) int {
	idx := make([]int, 0, len(trs))
	for i := range trs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	n := 0
	for _, i := range idx {
		if m.Add(i, trs[i]) {
			n++
		}
	}
	return n
}

// stop returns one past the last trial index the campaign may deliver.
func (m *Merger) stop() int { return int(m.stopAt.Load()) }

// Add folds trial i's result in, reporting whether it was new: a trial
// outside the campaign's range, or one that has already arrived, is dropped.
func (m *Merger) Add(i int, tr TrialResult) bool {
	return m.AddBatch(i, []TrialResult{tr}) == 1
}

// AddBatch folds in the results of consecutive trials first, first+1, … — one
// shard frame's worth — and reports how many were new, dropping the rest as
// Add does. The new trials are journaled in one write before any of them is
// delivered.
func (m *Merger) AddBatch(first int, trs []TrialResult) int {
	m.mu.Lock()
	added := 0
	for k, tr := range trs {
		i := first + k
		if _, held := m.pending[i]; held || i < m.next || i >= m.c.spec.Trials {
			continue
		}
		if m.j != nil && i < m.stop() {
			m.jbuf = append(m.jbuf, journalEntry{Key: m.jkey, Index: i, TR: tr})
		}
		m.pending[i] = tr
		added++
	}
	if len(m.jbuf) > 0 {
		m.j.write(m.jbuf)
		clear(m.jbuf)
		m.jbuf = m.jbuf[:0]
	}
	if added == 0 {
		m.mu.Unlock()
		return 0
	}
	if m.delivering {
		// The current deliverer will pick these up before it retires.
		m.mu.Unlock()
		return added
	}
	m.delivering = true
	lo := m.c.spec.Lo
	for {
		start := m.next
		run := m.run[:0]
		for {
			r, ok := m.pending[m.next]
			if !ok {
				break
			}
			delete(m.pending, m.next)
			run = append(run, r)
			m.next++
		}
		m.run = run
		if len(run) == 0 {
			m.delivering = false
			m.mu.Unlock()
			return added
		}
		m.mu.Unlock()
		for k, r := range run {
			idx := start + k
			if idx >= m.stop() {
				continue // past the precision stop: discard undelivered
			}
			if m.comp != nil {
				m.comp[idx-lo] = r
			}
			m.res.Counts.Add(r.Outcome)
			m.res.Cycles += r.Cycles
			if m.c.observer != nil {
				m.c.observer(idx, r)
			}
			m.flushed.Store(int64(idx - lo + 1))
			if p := m.c.precision; p != nil {
				// Evaluate the stopping rule per delivered trial (not per
				// flush batch): the decision sequence must match a replayed
				// or resumed run, where delivery granularity differs.
				n := idx - lo + 1
				if p.Stop(n, []int{
					m.res.Counts.Crash, m.res.Counts.SOC,
					m.res.Counts.Benign, m.res.Counts.HarnessFault,
				}) {
					m.stopAt.Store(int64(idx + 1))
				}
			}
		}
		m.mu.Lock()
	}
}

// Missing returns the maximal runs [lo, hi) of trial indexes that have not
// arrived: after construction, the work a resume still has to execute (the
// full range for a fresh campaign).
func (m *Merger) Missing() [][2]int {
	m.mu.Lock()
	held := make([]int, 0, len(m.pending)+1)
	for i := range m.pending {
		held = append(held, i)
	}
	from := m.next
	m.mu.Unlock()
	sort.Ints(held)
	var runs [][2]int
	for _, i := range append(held, m.c.spec.Trials) {
		if i > from {
			runs = append(runs, [2]int{from, i})
		}
		from = i + 1
	}
	return runs
}

// Unseen returns the indexes in [lo, hi) that have not arrived. The shard
// pool uses it when splitting a repeatedly-fatal range into single-trial
// ranges: indexes the dying workers already shipped need no re-execution.
func (m *Merger) Unseen(lo, hi int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for i := max(lo, m.next); i < min(hi, m.c.spec.Trials); i++ {
		if _, held := m.pending[i]; !held {
			out = append(out, i)
		}
	}
	return out
}

// SetProfile attaches the profile shipped by the first shard worker to build
// the campaign's artifacts. Builds are byte-stable across processes, so every
// worker derives the identical profile; first receipt wins.
func (m *Merger) SetProfile(p *Profile) {
	m.mu.Lock()
	if m.res.Profile == nil {
		m.res.Profile = p
	}
	m.mu.Unlock()
}

// Delivered returns the length of the contiguous delivered prefix: the number
// of trials whose counts and observer call have both been applied. Safe to
// call from anywhere, including from inside an observer.
func (m *Merger) Delivered() int { return int(m.flushed.Load()) }

// Stopped reports whether the sequential precision rule (WithPrecision) has
// fixed a stop index below the trial range: the shard pool stops assigning
// ranges and lets outstanding ones drain, whose trials past the stop index
// are discarded undelivered.
func (m *Merger) Stopped() bool { return m.stop() < m.c.spec.Trials }

// Finish returns the result under the partial-prefix contract: a
// precision-stopped campaign covers exactly the delivered prefix with no
// error (stopping early is the campaign completing, not being interrupted);
// on a cancelled context the result covers the delivered prefix and the
// error wraps ctx.Err().
func (m *Merger) Finish(ctx context.Context) (*Result, error) {
	if m.Stopped() {
		m.res.Trials = m.Delivered()
	}
	if err := ctx.Err(); err != nil {
		m.res.Trials = m.Delivered()
		return m.res, fmt.Errorf("campaign: %s/%s: cancelled after %d/%d trials: %w",
			m.c.app.Name, m.c.tool.Name(), m.res.Trials, m.c.spec.Trials-m.c.spec.Lo, err)
	}
	return m.res, nil
}
