package campaign

// The data contract for running a campaign somewhere else: the gob-encodable
// Spec shipped to worker processes and daemons, NewFromSpec that rebuilds a
// campaign from one, and the Merger that reassembles remote trial streams
// through the same order-deterministic collector in-process runs use. The
// engines that spawn workers and speak the wire protocols (internal/shard,
// internal/serve) depend on this package; it knows nothing of them.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/pinfi"
)

// Spec is the wire description of a campaign for process sharding:
// everything a worker process needs to reconstruct the campaign with
// campaign.New and run assigned trial ranges through the ordinary Run
// machinery. Applications travel by registry name (workloads.ByName) and
// tools by injector-registry name, so the spec is plain data — gob-encodable
// across the coordinator/worker pipe.
//
// A Spec names the registry app, so the receiving process always rebuilds
// the harness's own IR: no edit can travel in one, and section reuse (which
// pays only after an edit) stays with campaigns run in the process that made
// them. Identical reruns in any mode are the journal's: Key leaves out the
// cache directory, the worker count and the shard layout.
type Spec struct {
	App      string          // workload registry name
	Tool     string          // injector registry name
	Trials   int             // one past the last trial index of the campaign
	Lo       int             // first trial index (WithTrialRange)
	Seed     uint64          // base seed; trial i uses TrialSeed(Seed, tool, i)
	Build    BuildOptions    // optimization level, -fi-funcs, -fi-instrs
	Costs    pinfi.CostModel // PIN-style dynamic-instrumentation cost model
	CacheDir string          // shared disk cache ("" ⇒ worker-private memory cache)
	Workers  int             // in-worker trial parallelism (0 ⇒ GOMAXPROCS)
}

// Spec returns the campaign's wire description, with the app and tool names
// and CacheDir taken from its app, tool and cache. The campaign must use a registry application — workers re-resolve
// the app by name, so a synthetic App whose builder only exists in this
// process cannot shard.
func (c *Campaign) Spec() Spec {
	s := c.spec
	s.App, s.Tool, s.CacheDir = c.app.Name, c.tool.Name(), ""
	if c.cache != nil {
		s.CacheDir = c.cache.Dir()
	}
	return s
}

// NewFromSpec reconstructs a worker-side campaign for trial range [lo, hi)
// of the spec'd campaign. The app is resolved by the caller (the shard
// worker resolves it through the workload registry, which campaign cannot
// import); the tool resolves through the injector registry. The observer
// receives absolute trial indexes — the frames the worker ships back.
// Trailing options are applied after the spec (the fi-serve daemon attaches
// its journal this way). The campaign uses the cache for its build and
// profile only: it neither reads nor writes section entries, so a shard
// worker's claimed range and a daemon's run leave no .fis behind.
func NewFromSpec(s Spec, app App, lo, hi int, cache *Cache, obs func(int, TrialResult), extra ...Option) (*Campaign, error) {
	if app.Name != s.App {
		return nil, fmt.Errorf("campaign: spec app %q resolved to %q", s.App, app.Name)
	}
	tool, err := ToolByName(s.Tool)
	if err != nil {
		return nil, fmt.Errorf("campaign: spec: %w", err)
	}
	if lo < s.Lo || hi > s.Trials || lo > hi {
		return nil, fmt.Errorf("campaign: spec range [%d, %d) outside campaign range [%d, %d)", lo, hi, s.Lo, s.Trials)
	}
	s.App, s.Tool, s.Lo, s.Trials = "", "", lo, hi
	c := &Campaign{app: app, tool: tool, spec: s, cache: cache, observer: obs, fromSpec: true}
	for _, o := range extra {
		o(c)
	}
	return c, nil
}

// Merger reassembles a sharded campaign's result from worker (index,
// TrialResult) frames. Frames may arrive in any order and — after a dead
// worker's range is reassigned — more than once per index; the merger drops
// duplicates (trial i is a pure function of its seed, so the first receipt
// is authoritative) and feeds the campaign's order-deterministic collector,
// which aggregates counts and streams the observer exactly
// as an in-process run would. The zero value is not usable; construct with
// Campaign.NewMerger.
type Merger struct {
	c   *Campaign
	res *Result
	col *collector

	mu   sync.Mutex
	seen []bool
}

// NewMerger returns a Merger for the campaign's trial range. With WithJournal
// configured, journal-recorded trials are replayed into the merger here —
// marked seen and delivered through the collector — so Missing reports only
// the work left to assign and late worker frames for replayed indices drop as
// ordinary duplicates.
func (c *Campaign) NewMerger() *Merger {
	recorded := c.resume()
	res, col := c.newResult(nil, recorded)
	m := &Merger{c: c, res: res, col: col, seen: make([]bool, c.spec.Trials-c.spec.Lo)}
	replay(recorded, func(i int, tr TrialResult) { m.Add(i, tr) })
	return m
}

// Missing returns the maximal runs [lo, hi) of trial indexes not yet folded
// in — after construction, the work a journal resume still has to execute
// (the full range for a fresh campaign). The shard pool partitions exactly
// these runs instead of the whole range.
func (m *Merger) Missing() [][2]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var runs [][2]int
	lo := m.c.spec.Lo
	for i := 0; i < len(m.seen); {
		if m.seen[i] {
			i++
			continue
		}
		j := i
		for j < len(m.seen) && !m.seen[j] {
			j++
		}
		runs = append(runs, [2]int{lo + i, lo + j})
		i = j
	}
	return runs
}

// SetProfile attaches the profile shipped by the first worker to build the
// campaign's artifacts. Builds are byte-stable across processes, so every
// worker derives the identical profile; first receipt wins.
func (m *Merger) SetProfile(p *Profile) {
	m.mu.Lock()
	if m.res.Profile == nil {
		m.res.Profile = p
	}
	m.mu.Unlock()
}

// Add folds trial i's result in, reporting whether the frame was new
// (out-of-range and duplicate frames are dropped).
func (m *Merger) Add(i int, tr TrialResult) bool {
	m.mu.Lock()
	lo, hi := m.c.spec.Lo, m.c.spec.Trials
	if i < lo || i >= hi || m.seen[i-lo] {
		m.mu.Unlock()
		return false
	}
	m.seen[i-lo] = true
	m.mu.Unlock()
	m.col.add(i, tr)
	return true
}

// Delivered reports the contiguous delivered prefix length — the trials
// whose aggregates and observer call have both been applied.
func (m *Merger) Delivered() int { return m.col.delivered() }

// Stopped reports whether the campaign's sequential precision rule
// (WithPrecision) has fixed a stop index below the trial range: the shard
// pool stops assigning ranges and lets outstanding ones drain — the
// collector discards frames past the stop index, so the merged result is
// bit-identical to a precision-stopped in-process run.
func (m *Merger) Stopped() bool { return m.col.stopped() }

// Unseen returns the indexes in [lo, hi) not yet folded in. The pool's
// retry-budget logic uses it when splitting a repeatedly-fatal range into
// single-trial ranges: indexes the dying workers already shipped need no
// re-execution.
func (m *Merger) Unseen(lo, hi int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for i := lo; i < hi; i++ {
		if k := i - m.c.spec.Lo; k >= 0 && k < len(m.seen) && !m.seen[k] {
			out = append(out, i)
		}
	}
	return out
}

// Finish applies the partial-prefix cancellation contract and returns the
// merged result, exactly as an in-process run does: on a cancelled context
// the result covers the contiguous delivered prefix and the error wraps
// ctx.Err().
func (m *Merger) Finish(ctx context.Context) (*Result, error) {
	return m.c.finish(ctx, m.res, m.col)
}
