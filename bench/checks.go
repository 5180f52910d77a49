package main

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/pinfi"
)

// checker counts output checks against the operations attempted; every
// failed check is a failed operation of the run.
type checker struct {
	mu        sync.Mutex
	attempted int
	failures  []string
}

func (c *checker) expect(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// sampleOf lists the trial indexes of a cell the replay check covers: n
// evenly spaced indexes, or every index when the cell has no more than n.
func sampleOf(trials, n int) []int {
	if trials <= n {
		n = trials
	}
	out := make([]int, n)
	for k := range out {
		out[k] = k * trials / n
	}
	return out
}

// interpGolden runs the app's freshly built, unoptimised IR through the IR
// interpreter: a reference for the golden output that shares no code with
// opt, codegen, asm or the VM.
func interpGolden(app campaign.App) ([]uint64, error) {
	ip := ir.NewInterp(app.Build())
	if app.MemSize != 0 {
		ip.MemSize = app.MemSize
	}
	if code, err := ip.Run("main"); err != nil || code != 0 {
		return nil, fmt.Errorf("interp: exit %d: %v", code, err)
	}
	return ip.Output, nil
}

// checkRows checks a round's table: every campaign delivered its trial
// count, classified every trial, and lost none to the harness.
func (c *checker) checkRows(what string, cells []cell, out roundOut) {
	for _, f := range out.failures {
		c.expect(false, "%s: %s", what, f)
	}
	for _, cl := range cells {
		r, ok := out.rows[cl.key]
		if !ok {
			c.expect(false, "%s: %s: no result", what, cl.key)
			continue
		}
		c.expect(r.trials == cl.trials && r.counts.Total() == cl.trials,
			"%s: %s: %d trials, counts sum to %d, want %d", what, cl.key, r.trials, r.counts.Total(), cl.trials)
		c.expect(r.counts.HarnessFault == 0, "%s: %s: %d HarnessFault trials", what, cl.key, r.counts.HarnessFault)
	}
}

// checkReplay compares what the system under test produced for the check
// round against the plain path: each cell rebuilt from source with no
// cache, its golden output checked against the IR interpreter, and sampled
// trials re-run one by one as Binary.RunTrial on fresh machines. Whatever
// pool, scheduler, shard wire, cache, section store or daemon the workload
// routes trials through must not change a single field of a TrialResult.
//
// got holds the streamed results (nil for a workload with no observer seam:
// then every trial is replayed and the cell's Counts and Cycles compared).
func (c *checker) checkReplay(e *env, cells []cell, out roundOut, got map[string]map[int]campaign.TrialResult, samples int) {
	costs := pinfi.DefaultCosts()
	goldens := map[string][]uint64{} // by app variant (the key up to the tool)
	var gmu sync.Mutex
	forEach(e, upTo(len(cells)), func(i int) {
		cl := cells[i]
		bin, err := campaign.BuildBinary(cl.app, cl.tool, campaign.DefaultBuildOptions())
		if err != nil {
			c.expect(false, "%s: rebuild: %v", cl.key, err)
			return
		}
		prof, err := bin.RunProfile(costs)
		if err != nil {
			c.expect(false, "%s: re-profile: %v", cl.key, err)
			return
		}
		variant := strings.TrimSuffix(cl.key, "/"+cl.tool.Name())
		gmu.Lock()
		want, ok := goldens[variant]
		gmu.Unlock()
		if !ok {
			if want, err = interpGolden(cl.app); err != nil {
				c.expect(false, "%s: %v", cl.key, err)
				return
			}
			gmu.Lock()
			goldens[variant] = want
			gmu.Unlock()
		}
		c.expect(slices.Equal(prof.Golden, want), "%s: golden output differs from the IR interpreter's", cl.key)

		if got == nil {
			var counts fault.Counts
			var cycles int64
			for i := 0; i < cl.trials; i++ {
				tr := bin.RunTrial(prof, costs, campaign.TrialSeed(cl.seed, cl.tool, i))
				counts.Add(tr.Outcome)
				cycles += tr.Cycles
			}
			r := out.rows[cl.key]
			c.expect(r.counts == counts && r.cycles == cycles,
				"%s: table row %+v/%d differs from the plain replay %+v/%d", cl.key, r.counts, r.cycles, counts, cycles)
			return
		}
		for _, i := range sampleOf(cl.trials, samples) {
			want := bin.RunTrial(prof, costs, campaign.TrialSeed(cl.seed, cl.tool, i))
			for _, key := range []string{cl.key, cl.key + replaySuffix} {
				stream, ok := got[key]
				if !ok {
					continue
				}
				tr, ok := stream[i]
				c.expect(ok && tr == want, "%s: trial %d streamed %+v, plain replay %+v", key, i, tr, want)
			}
		}
	})
}

// checkFig5 holds the suite's Figure 5 totals to the paper's regime:
// campaign cycles normalised to PINFI, REFINE 1.0–1.6×, LLFI 2.5–5.0×.
func (c *checker) checkFig5(cells []cell, out roundOut) {
	tot := map[string]int64{}
	for _, cl := range cells {
		tot[cl.tool.Name()] += out.rows[cl.key].cycles
	}
	if tot["PINFI"] == 0 {
		c.expect(false, "fig5: no PINFI cycles")
		return
	}
	llfi := float64(tot["LLFI"]) / float64(tot["PINFI"])
	refine := float64(tot["REFINE"]) / float64(tot["PINFI"])
	c.expect(refine >= 1.0 && refine <= 1.6, "fig5: REFINE/PINFI = %.3f outside [1.0, 1.6]", refine)
	c.expect(llfi >= 2.5 && llfi <= 5.0, "fig5: LLFI/PINFI = %.3f outside [2.5, 5.0]", llfi)
}
