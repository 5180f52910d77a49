package campaign_test

// Compositional section-cache suite: composed campaigns (trials restored
// per-section from disk and merged with freshly executed ones) must be
// bit-identical to monolithic runs, a single-function edit must re-inject
// exactly the edited function's section plus the program-level section, and
// the section counters must account for every trial.

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/workloads"
)

const (
	composeTrials = 16
	composeSeed   = 7
)

// diskRun executes app×tool over a fresh Cache rooted at dir (so nothing is
// served from memory — every reuse is a disk restore) and returns the result
// plus the cache's counters.
func diskRun(t *testing.T, dir string, app campaign.App, tool campaign.Tool) (*campaign.Result, campaign.ComposeStats) {
	t.Helper()
	cache, err := campaign.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := runCampaign(t, app, tool, composeTrials, composeSeed, 4,
		campaign.DefaultBuildOptions(), campaign.WithCache(cache))
	return res, cache.Compose()
}

// TestComposeDifferentialMatchesMonolithic: for every registry app × tool,
// a cold disk run (sections stored), a warm composed run (every section
// restored) and a cache-free monolithic run produce identical Counts,
// Cycles and Records.
func TestComposeDifferentialMatchesMonolithic(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh builds for every app×tool are too heavy for -short (race CI); the compose-smoke CI job runs this in full")
	}
	apps := workloads.Registry()
	for _, app := range apps {
		for _, tool := range campaign.Tools {
			dir := t.TempDir()
			mono := runCampaign(t, app, tool, composeTrials, composeSeed, 4,
				campaign.DefaultBuildOptions(), campaign.WithCache(nil))
			cold, coldStats := diskRun(t, dir, app, tool)
			warm, warmStats := diskRun(t, dir, app, tool)
			label := app.Name + "×" + tool.Name()
			sameResult(t, label+" monolithic vs cold", mono, cold)
			sameResult(t, label+" cold vs warm-composed", cold, warm)
			if coldStats.Reused != 0 || coldStats.TrialsReused != 0 {
				t.Errorf("%s: cold run reused sections: %+v", label, coldStats)
			}
			if warmStats.Reinjected != 0 || warmStats.TrialsReinjected != 0 {
				t.Errorf("%s: warm run re-injected sections: %+v", label, warmStats)
			}
			if warmStats.TrialsReused != composeTrials {
				t.Errorf("%s: warm run restored %d trials, want %d", label, warmStats.TrialsReused, composeTrials)
			}
			if warmStats.Sections != coldStats.Sections || warmStats.Reused != coldStats.Reinjected {
				t.Errorf("%s: warm counters %+v don't mirror cold %+v", label, warmStats, coldStats)
			}
		}
	}
}

// TestComposeSingleFunctionEdit: after a DCE-erased single-function edit
// (binary bit-identical, fingerprint changed), a warm run re-injects exactly
// the edited function's section and the program-level section and still
// produces identical results.
func TestComposeSingleFunctionEdit(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh CG builds are too heavy for -short (race CI)")
	}
	app, err := workloads.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cold, coldStats := diskRun(t, dir, app, campaign.REFINE)
	mutated, err := workloads.MutateFunc(app, "norm")
	if err != nil {
		t.Fatal(err)
	}
	warm, warmStats := diskRun(t, dir, mutated, campaign.REFINE)
	sameResult(t, "cold vs mutated-warm", cold, warm)
	if warmStats.Reinjected != 2 {
		t.Errorf("mutated warm run re-injected %d sections, want 2 (norm + program-level): %+v",
			warmStats.Reinjected, warmStats)
	}
	if warmStats.Reused != coldStats.Sections-2 {
		t.Errorf("mutated warm run reused %d sections, want %d: %+v",
			warmStats.Reused, coldStats.Sections-2, warmStats)
	}
	if warmStats.TrialsReused+warmStats.TrialsReinjected != composeTrials {
		t.Errorf("mutated warm counters don't cover the range: %+v", warmStats)
	}

	// The mutated run stored the re-injected sections under the new
	// fingerprints: a second mutated run restores everything.
	again, againStats := diskRun(t, dir, mutated, campaign.REFINE)
	sameResult(t, "mutated-warm vs mutated-again", warm, again)
	if againStats.Reinjected != 0 || againStats.TrialsReused != composeTrials {
		t.Errorf("second mutated run not fully composed: %+v", againStats)
	}
}

// TestMutateFuncUnknownFunction: the mutator rejects functions the app
// doesn't have instead of silently running unmutated.
func TestMutateFuncUnknownFunction(t *testing.T) {
	app, err := workloads.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.MutateFunc(app, "no_such_func"); err == nil {
		t.Fatal("MutateFunc accepted an unknown function")
	}
}
