package shard_test

// Chaos differential tests: every resilience behavior of the pool — crash
// reassignment, hung-worker kill escalation, torn-frame recovery, retry
// budgets, spawn fallback — is exercised by injecting the fault through the
// chaos harness and asserting the final results are bit-identical to the
// fault-free run (except where a HarnessFault outcome is the specified
// result). Worker-side faults are armed through the FI_CHAOS environment
// variable, which the spawned worker processes inherit; coordinator-side
// faults are armed in-process with chaos.Arm.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/shard"
)

// runPool runs one campaign over a fresh 2-worker pool, returning the result
// and the pool's death count. A non-zero stall fixes the silent-worker
// deadline and grace the SIGTERM→SIGKILL escalation (shard.SetDeadlines).
func runPool(t *testing.T, app campaign.App, trials int, seed uint64, stall, grace time.Duration) (*campaign.Result, int) {
	t.Helper()
	p, err := shard.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if stall > 0 {
		shard.SetDeadlines(p, stall, grace)
	}
	res, err := p.Run(context.Background(), campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(seed),
		campaign.WithRecords(), campaign.WithCache(nil)))
	if err != nil {
		t.Fatal(err)
	}
	return res, p.Deaths()
}

func assertIdentical(t *testing.T, got, ref *campaign.Result, label string) {
	t.Helper()
	if got.Counts != ref.Counts || got.Cycles != ref.Cycles || got.Trials != ref.Trials {
		t.Fatalf("%s: result diverges from fault-free run: %+v/%d vs %+v/%d",
			label, got.Counts, got.Cycles, ref.Counts, ref.Cycles)
	}
	for i := range ref.Records {
		if got.Records[i] != ref.Records[i] {
			t.Fatalf("%s: Records[%d] = %+v, fault-free %+v", label, i, got.Records[i], ref.Records[i])
		}
	}
}

// TestChaosWorkerCrashReassigned: worker 0 crashes claiming its first range;
// the range is reassigned and a replacement respawned — tables bit-identical.
func TestChaosWorkerCrashReassigned(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const trials = 120
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 31)

	t.Setenv(chaos.EnvVar, "shard.worker.range:crash:w=0")
	res, deaths := runPool(t, app, trials, 31, 0, 0)
	assertIdentical(t, res, ref, "crash")
	if deaths != 1 {
		t.Fatalf("pool counted %d deaths, want exactly the crashed worker", deaths)
	}
	if res.Counts.HarnessFault != 0 {
		t.Fatalf("transient crash must not surface a HarnessFault: %+v", res.Counts)
	}
}

// TestChaosHungWorkerKilledAndReassigned: worker 0 hangs inside its first
// range, alive but sending no frame. The coordinator must notice that nothing
// has refreshed its range deadline, SIGTERM then SIGKILL the worker, and
// finish bit-identically.
func TestChaosHungWorkerKilledAndReassigned(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and waits out a stall deadline")
	}
	const trials = 120
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 33)

	t.Setenv(chaos.EnvVar, "shard.worker.range:hang:w=0")
	res, deaths := runPool(t, app, trials, 33, 1200*time.Millisecond, 200*time.Millisecond)
	assertIdentical(t, res, ref, "hang")
	if deaths != 1 {
		t.Fatalf("pool counted %d deaths, want exactly the hung worker", deaths)
	}
}

// TestChaosTornFrameRecovered: worker 0 writes half a gob frame and dies.
// The coordinator's decoder fails mid-stream; the worker is reaped like any
// death and its range re-executes — no partial frame ever reaches the merger.
func TestChaosTornFrameRecovered(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const trials = 120
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 35)

	t.Setenv(chaos.EnvVar, "shard.worker.send:tear:w=0")
	res, deaths := runPool(t, app, trials, 35, 0, 0)
	assertIdentical(t, res, ref, "tear")
	if deaths != 1 {
		t.Fatalf("pool counted %d deaths, want exactly the torn worker", deaths)
	}
}

// TestChaosSlowWorkerNotKilled: a slow worker (injected delay well under the
// stall deadline) must not be condemned — slowness is not death.
func TestChaosSlowWorkerNotKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const trials = 48
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 37)

	t.Setenv(chaos.EnvVar, "shard.worker.range:sleep:ms=300:w=0")
	res, deaths := runPool(t, app, trials, 37, 5*time.Second, 2*time.Second)
	assertIdentical(t, res, ref, "slow")
	if deaths != 0 {
		t.Fatalf("slow worker was killed: %d deaths", deaths)
	}
}

// TestChaosDeterministicCrashBecomesHarnessFault: every worker that attempts
// trial 30 crashes — a poison trial. The pool must split the range, burn the
// per-trial retry budget (SplitAfter+MaxTrialRetries worker deaths), then
// record a HarnessFault outcome for that one trial and finish every other
// trial bit-identically — the campaign reports the infrastructure failure
// instead of hanging or dying.
func TestChaosDeterministicCrashBecomesHarnessFault(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns (and kills) many worker processes")
	}
	const trials = 120
	const poison = 30
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 39)

	t.Setenv(chaos.EnvVar, "shard.worker.trial:crash:at=30:count=9999")
	res, deaths := runPool(t, app, trials, 39, 0, 0)

	if res.Counts.HarnessFault != 1 {
		t.Fatalf("Counts.HarnessFault = %d, want exactly the poison trial", res.Counts.HarnessFault)
	}
	if res.Records[poison].Outcome != fault.HarnessFault {
		t.Fatalf("Records[%d] = %+v, want a HarnessFault outcome", poison, res.Records[poison])
	}
	wantDeaths := shard.SplitAfter + shard.MaxTrialRetries + 1
	if deaths != wantDeaths {
		t.Fatalf("pool counted %d deaths, want the full retry budget (%d)", deaths, wantDeaths)
	}
	// Every other trial matches the fault-free run exactly.
	for i := range ref.Records {
		if i == poison {
			continue
		}
		if res.Records[i] != ref.Records[i] {
			t.Fatalf("Records[%d] = %+v diverges from fault-free %+v", i, res.Records[i], ref.Records[i])
		}
	}
	if res.Cycles != ref.Cycles-ref.Records[poison].Cycles {
		t.Fatalf("Cycles = %d, want fault-free minus the poison trial (%d)",
			res.Cycles, ref.Cycles-ref.Records[poison].Cycles)
	}
}

// TestConcurrentCampaignsSurviveWorkerCrash: a worker crash while multiple
// tenants share the pool orphans at most one range per tenant; both campaigns
// still finish bit-identical on the respawned capacity.
func TestConcurrentCampaignsSurviveWorkerCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	app := mustApp(t, "CG")
	refA := baseline(t, app, campaign.REFINE, 120, 41)
	refB := baseline(t, app, campaign.REFINE, 120, 43)

	t.Setenv("FI_CHAOS", "shard.worker.range:crash:w=0")
	p, err := shard.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	var resA, resB *campaign.Result
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		resA, errA = p.Run(context.Background(), campaign.New(app, campaign.REFINE,
			campaign.WithTrials(120), campaign.WithSeed(41),
			campaign.WithRecords(), campaign.WithCache(nil)))
	}()
	go func() {
		defer wg.Done()
		resB, errB = p.Run(context.Background(), campaign.New(app, campaign.REFINE,
			campaign.WithTrials(120), campaign.WithSeed(43),
			campaign.WithRecords(), campaign.WithCache(nil)))
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("concurrent runs failed: %v / %v", errA, errB)
	}
	assertIdentical(t, resA, refA, "tenant A after crash")
	assertIdentical(t, resB, refB, "tenant B after crash")
	if d := p.Deaths(); d != 1 {
		t.Fatalf("pool counted %d deaths, want exactly the crashed worker", d)
	}
}

// TestChaosSpawnFailureFailsFast: a pool whose first worker cannot spawn must
// fail with an error naming the executable and worker index.
func TestChaosSpawnFailureFailsFast(t *testing.T) {
	defer chaos.Reset()
	chaos.Arm("shard.pool.spawn", chaos.Fault{Kind: chaos.ErrKind, Count: 1 << 20})
	p, err := shard.NewPool(2)
	if err == nil {
		p.Close()
		t.Fatal("NewPool succeeded with every spawn failing")
	}
	if !strings.Contains(err.Error(), "spawn worker 0") {
		t.Fatalf("spawn error %q does not name the worker", err)
	}
}

// TestChaosPartialSpawnContinues: if some workers spawn and some do not, the
// pool runs with what it has rather than failing the suite.
func TestChaosPartialSpawnContinues(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	defer chaos.Reset()
	const trials = 48
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 43)

	// First spawn attempt (worker 0) succeeds; every later attempt fails, so
	// worker 1 exhausts its retry budget.
	chaos.Arm("shard.pool.spawn", chaos.Fault{Kind: chaos.ErrKind, After: 2, Count: 1 << 20})
	p, err := shard.NewPool(2)
	chaos.Reset()
	if err != nil {
		t.Fatalf("partial pool construction failed outright: %v", err)
	}
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatalf("pool reports %d workers, want the 1 that spawned", p.Workers())
	}
	res, err := p.Run(context.Background(), campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(43),
		campaign.WithRecords(), campaign.WithCache(nil)))
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, res, ref, "partial")
}

// TestChaosJournalResumeAcrossPool: a sharded campaign killed mid-run (via a
// deterministic worker crash that fails it) and restarted over the same
// journal replays the recorded prefix and re-executes only what is missing.
func TestChaosJournalResumeAcrossPool(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const trials = 120
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 45)
	dir := t.TempDir()

	// First attempt: cancel once a prefix has been merged — the coordinator
	// "dies" with a partial journal.
	j1, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p1, err := shard.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p1.Run(ctx, campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(45),
		campaign.WithCache(nil), campaign.WithJournal(j1),
		campaign.WithObserver(func(i int, tr campaign.TrialResult) {
			if i == 40 {
				cancel()
			}
		})))
	p1.Close()
	j1.Close()
	if err == nil {
		t.Fatal("cancelled sharded run returned nil error")
	}
	recorded := j1.Stats().Appended
	if recorded == 0 || recorded >= trials {
		t.Fatalf("interrupted run journaled %d of %d trials; need a partial journal", recorded, trials)
	}

	// Restart: a fresh pool and a reopened journal.
	j2, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	p2, err := shard.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	res, err := p2.Run(context.Background(), campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(45),
		campaign.WithRecords(), campaign.WithCache(nil), campaign.WithJournal(j2)))
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Stats()
	if st.Replayed != recorded {
		t.Fatalf("resume replayed %d, journal held %d", st.Replayed, recorded)
	}
	if st.Appended != uint64(trials)-recorded {
		t.Fatalf("resume appended %d, want only the %d missing", st.Appended, uint64(trials)-recorded)
	}
	assertIdentical(t, res, ref, "journal resume")
}
