package campaign

// The data contract for running a campaign somewhere else: the gob-encodable
// Spec shipped to worker processes and daemons, and NewFromSpec that rebuilds
// a campaign from one. Remote trial streams are reassembled by the campaign's
// Merger (runner.go), the same ordered sink in-process runs feed. The engines
// that spawn workers and speak the wire protocols (internal/shard,
// internal/serve) depend on this package; it knows nothing of them.

import (
	"fmt"

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

// CheckRange rejects a trial range outside 0 ≤ Lo ≤ Trials.
func (s Spec) CheckRange() error {
	if s.Lo < 0 || s.Lo > s.Trials {
		return fmt.Errorf("invalid trial range [%d, %d)", s.Lo, s.Trials)
	}
	return nil
}

// Spec returns the campaign's wire description, with the app and tool names
// and CacheDir taken from its app, tool and cache. The campaign must use a
// registry application — workers re-resolve the app by name, so a synthetic
// App whose builder only exists in this process cannot shard.
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
	if err := s.CheckRange(); err != nil {
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
