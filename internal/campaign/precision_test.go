package campaign_test

// Sequential-precision (adaptive trial allocation) suite: a WithPrecision
// campaign stops at the first deterministic batch boundary where every
// outcome class's Wilson-CI half-width fits the margin, and the stop index —
// a pure function of the in-order trial prefix — is identical across worker
// counts, the shared scheduler, compose-cached runs and journal resumes.

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sched"
	"repro/internal/workloads"
)

const (
	precTrials = 256
	precMargin = 0.1
	precSeed   = 7
)

func precisionRun(t *testing.T, extra ...campaign.Option) *campaign.Result {
	t.Helper()
	app, err := workloads.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]campaign.Option{
		campaign.WithTrials(precTrials),
		campaign.WithSeed(precSeed),
		campaign.WithBuildOptions(campaign.DefaultBuildOptions()),
		campaign.WithPrecision(precMargin, 0),
		campaign.WithRecords(),
	}, extra...)
	res, err := campaign.New(app, campaign.REFINE, opts...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPrecisionStopDeterministicAcrossModes(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh CG builds are too heavy for -short (race CI)")
	}
	cache := campaign.NewCache() // memory: share one build across modes
	serial := precisionRun(t, campaign.WithCache(cache), campaign.WithWorkers(1))
	if serial.Trials >= precTrials || serial.Trials == 0 {
		t.Fatalf("precision rule did not stop early: Trials=%d of %d", serial.Trials, precTrials)
	}
	if len(serial.Records) != serial.Trials {
		t.Fatalf("records not truncated to the stop index: %d vs %d", len(serial.Records), serial.Trials)
	}

	parallel := precisionRun(t, campaign.WithCache(cache), campaign.WithWorkers(8))
	if parallel.Trials != serial.Trials {
		t.Fatalf("workers=8 stopped at %d, serial at %d", parallel.Trials, serial.Trials)
	}
	sameResult(t, "serial vs workers=8", serial, parallel)

	ex := sched.New(4)
	scheduled := precisionRun(t, campaign.WithCache(cache), campaign.WithExecutor(ex))
	if scheduled.Trials != serial.Trials {
		t.Fatalf("scheduled stopped at %d, serial at %d", scheduled.Trials, serial.Trials)
	}
	sameResult(t, "serial vs scheduled", serial, scheduled)
}

// TestPrecisionStopWithComposedCache: a full fixed-count campaign populates
// the section cache; a precision campaign over the same range then composes
// its prefix entirely from restored trials and stops at the same index as an
// executing run. Precision-stopped runs store nothing (a section entry
// asserts the complete trial set), so the cache stays whole.
func TestPrecisionStopWithComposedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh CG builds are too heavy for -short (race CI)")
	}
	app, err := workloads.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := campaign.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	runCampaign(t, app, campaign.REFINE, precTrials, precSeed, 4,
		campaign.DefaultBuildOptions(), campaign.WithCache(cache))

	fresh := precisionRun(t, campaign.WithWorkers(4))
	warmCache, err := campaign.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	composed := precisionRun(t, campaign.WithCache(warmCache), campaign.WithWorkers(4))
	if composed.Trials != fresh.Trials {
		t.Fatalf("composed precision run stopped at %d, fresh at %d", composed.Trials, fresh.Trials)
	}
	sameResult(t, "fresh vs composed precision", fresh, composed)
	if st := warmCache.Compose(); st.TrialsReinjected != 0 {
		t.Errorf("composed precision run executed %d trials, want all restored: %+v", st.TrialsReinjected, st)
	}

	// The precision run must not have stored truncated section entries: a
	// later full-range composed run still restores the complete set.
	verify, err := campaign.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	full := runCampaign(t, app, campaign.REFINE, precTrials, precSeed, 4,
		campaign.DefaultBuildOptions(), campaign.WithCache(verify))
	if full.Trials != precTrials {
		t.Fatalf("full composed run truncated: %d", full.Trials)
	}
	if st := verify.Compose(); st.TrialsReused != precTrials {
		t.Errorf("cache poisoned by the precision run: %+v", st)
	}
}

// TestPrecisionStopAcrossJournalResume: a journaled precision campaign and
// its replay over the same journal stop at the same index with identical
// results — the stop rule re-evaluates over the replayed prefix.
func TestPrecisionStopAcrossJournalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh CG builds are too heavy for -short (race CI)")
	}
	cache := campaign.NewCache()
	dir := t.TempDir()
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := precisionRun(t, campaign.WithCache(cache), campaign.WithWorkers(4), campaign.WithJournal(j))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed := precisionRun(t, campaign.WithCache(cache), campaign.WithWorkers(4), campaign.WithJournal(j2))
	if resumed.Trials != first.Trials {
		t.Fatalf("resumed precision run stopped at %d, first at %d", resumed.Trials, first.Trials)
	}
	sameResult(t, "first vs journal-resumed precision", first, resumed)
	if st := j2.Stats(); st.Replayed == 0 {
		t.Errorf("resume executed instead of replaying: %+v", st)
	}
}
