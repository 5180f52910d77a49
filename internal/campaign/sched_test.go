package campaign_test

// Coverage for the trial executor and the disk-persistent artifact cache:
// campaigns on a shared work-stealing executor must be bit-identical to ones
// on a private executor across executor sizes and submission patterns;
// cancellation keeps the partial-prefix contract; a private executor never
// outlives its Run; and a warm disk cache must skip every build and golden
// profile while reproducing the cold run bit for bit.

import (
	"context"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/ir"
	"repro/internal/sched"
)

// miniApp2 builds under miniApp's name but with different IR — the
// disk-cache fingerprint test's "source changed between binary versions"
// scenario.
func miniApp2() *ir.Module {
	m := ir.NewModule("mini")
	m.DeclareHost(ir.HostDecl{Name: "out_i64", Params: []ir.Type{ir.I64}, Ret: ir.I64})
	b := ir.NewBuilder(m)
	b.NewFunc("main", ir.I64)
	acc := b.NewVar(ir.I64, b.ConstI(0))
	b.Loop(b.ConstI(0), b.ConstI(64), b.ConstI(1), func(i *ir.Value) {
		acc.Set(b.Add(acc.Get(), b.Mul(i, i)))
	})
	b.Call("out_i64", acc.Get())
	b.Ret(b.ConstI(0))
	return m
}

// runPrivate runs the reference campaign on a private executor of the given
// size; runShared runs it on ex.
func runPrivate(t *testing.T, workers int, cache *campaign.Cache) *campaign.Result {
	t.Helper()
	return runCampaign(t, testApp, campaign.REFINE, 120, 7, workers,
		campaign.DefaultBuildOptions(), campaign.WithCache(cache))
}

func runShared(t *testing.T, ex *sched.Executor, cache *campaign.Cache) *campaign.Result {
	t.Helper()
	return runCampaign(t, testApp, campaign.REFINE, 120, 7, 0,
		campaign.DefaultBuildOptions(), campaign.WithCache(cache), campaign.WithExecutor(ex))
}

func equalResults(t *testing.T, label string, a, b *campaign.Result) {
	t.Helper()
	if a.Counts != b.Counts || a.Cycles != b.Cycles || a.Trials != b.Trials {
		t.Fatalf("%s: aggregates differ: %+v/%d/%d vs %+v/%d/%d",
			label, a.Counts, a.Cycles, a.Trials, b.Counts, b.Cycles, b.Trials)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("%s: record counts differ: %d vs %d", label, len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("%s: trial %d differs:\n%+v\nvs\n%+v", label, i, a.Records[i], b.Records[i])
		}
	}
}

// TestScheduledMatchesPooled: a campaign on a shared executor reproduces the
// one on its private executor bit for bit, across executor sizes (1 worker ≡
// serial, 0 = GOMAXPROCS) and every cache state.
func TestScheduledMatchesPooled(t *testing.T) {
	cache := campaign.NewCache()
	private := runPrivate(t, 4, cache) // cold cache
	for _, workers := range []int{0, 1, 8} {
		ex := sched.New(workers)
		got := runShared(t, ex, cache)
		ex.Close()
		equalResults(t, "shared executor workers="+string(rune('0'+workers)), private, got)
	}
	for _, workers := range []int{1, 2, 8} {
		equalResults(t, "private executor workers="+string(rune('0'+workers)), private, runPrivate(t, workers, cache))
	}
	// WithCache(nil) forces a fresh build+profile; results must still agree
	// with the cached ones.
	equalResults(t, "warm cache vs fresh build", private, runPrivate(t, 2, nil))
}

// TestScheduledConcurrentCampaigns: many campaigns submitted to one executor
// at once (the suite shape) each reproduce their solo result.
func TestScheduledConcurrentCampaigns(t *testing.T) {
	cache := campaign.NewCache()
	want := map[string]*campaign.Result{}
	for _, tool := range campaign.Tools {
		res, err := campaign.New(testApp, tool,
			campaign.WithTrials(100), campaign.WithSeed(3), campaign.WithWorkers(1),
			campaign.WithCache(cache), campaign.WithRecords(),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want[tool.Name()] = res
	}
	ex := sched.New(4)
	defer ex.Close()
	var wg sync.WaitGroup
	got := make(map[string]*campaign.Result)
	var mu sync.Mutex
	for _, tool := range campaign.Tools {
		wg.Add(1)
		go func(tool campaign.Tool) {
			defer wg.Done()
			res, err := campaign.New(testApp, tool,
				campaign.WithTrials(100), campaign.WithSeed(3),
				campaign.WithExecutor(ex), campaign.WithCache(cache), campaign.WithRecords(),
			).Run(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			got[tool.Name()] = res
			mu.Unlock()
		}(tool)
	}
	wg.Wait()
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Fatalf("%s: no scheduled result", name)
		}
		equalResults(t, name+" concurrent-vs-solo", w, g)
	}
}

// TestScheduledCancellation: cancelling a scheduled campaign returns the
// partial-safe prefix — aggregates and records covering a contiguous run of
// delivered trials, each bit-identical to the full run's.
func TestScheduledCancellation(t *testing.T) {
	cache := campaign.NewCache()
	full := runPrivate(t, 1, cache)
	ex := sched.New(2)
	defer ex.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var seen int
	res, err := campaign.New(testApp, campaign.REFINE,
		campaign.WithTrials(100000), campaign.WithSeed(7),
		campaign.WithExecutor(ex), campaign.WithCache(cache), campaign.WithRecords(),
		campaign.WithObserver(func(i int, tr campaign.TrialResult) {
			seen++
			if seen == 25 {
				cancel()
			}
		}),
	).Run(ctx)
	if err == nil {
		t.Fatal("cancelled scheduled campaign returned nil error")
	}
	if res == nil {
		t.Fatal("cancelled scheduled campaign returned nil partial result")
	}
	if res.Trials >= 100000 {
		t.Fatalf("cancellation did not abandon trials: %d completed", res.Trials)
	}
	if res.Trials < 25 {
		t.Fatalf("partial prefix lost deliveries: %d < 25", res.Trials)
	}
	if len(res.Records) != res.Trials {
		t.Fatalf("records (%d) != partial trials (%d)", len(res.Records), res.Trials)
	}
	for i := 0; i < min(res.Trials, len(full.Records)); i++ {
		if res.Records[i] != full.Records[i] {
			t.Fatalf("partial trial %d differs from full run", i)
		}
	}
}

// TestDiskCacheColdWarm: a second cache over the same directory — a fresh
// process in miniature — must restore every artifact from disk (zero
// builds), and the warm campaign must be bit-identical to the cold one.
func TestDiskCacheColdWarm(t *testing.T) {
	dir := t.TempDir()
	cold, err := campaign.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := runPrivate(t, 4, cold)
	st := cold.Stats()
	if st.Builds == 0 {
		t.Fatalf("cold run built nothing: %+v", st)
	}
	if st.DiskHits != 0 {
		t.Fatalf("cold run hit disk entries: %+v", st)
	}

	warm, err := campaign.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := runPrivate(t, 4, warm)
	st = warm.Stats()
	if st.Builds != 0 {
		t.Fatalf("warm run rebuilt %d artifacts: %+v", st.Builds, st)
	}
	if st.DiskHits == 0 {
		t.Fatalf("warm run never hit the disk layer: %+v", st)
	}
	if st.DiskErrors != 0 {
		t.Fatalf("disk layer errored: %+v", st)
	}
	equalResults(t, "cold vs warm disk cache", a, b)

	// And fully uncached agrees too: persistence must not change results.
	fresh := runPrivate(t, 4, nil)
	equalResults(t, "warm disk cache vs fresh build", b, fresh)
}

// TestDiskCacheStoresOneEntryPerLevel: a build is addressed by what was built.
// Every registered tool run over one cache directory leaves three .fic
// entries per app — ir, backend, binary — and a second cache over the
// directory restores all seven tools from them without building, with the
// records of the cold run.
func TestDiskCacheStoresOneEntryPerLevel(t *testing.T) {
	dir := t.TempDir()
	sweep := func() (map[string]*campaign.Result, campaign.CacheStats) {
		cache, err := campaign.NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]*campaign.Result{}
		for _, tool := range everyTool {
			out[tool.Name()] = runCampaign(t, testApp, tool, 24, 7, 1,
				campaign.DefaultBuildOptions(), campaign.WithCache(cache))
		}
		return out, cache.Stats()
	}
	cold, st := sweep()
	if st.Builds != 3 || st.DiskHits != 0 {
		t.Fatalf("cold sweep of %d tools: %+v, want 3 builds", len(everyTool), st)
	}
	if fics, _ := filepath.Glob(filepath.Join(dir, "*.fic")); len(fics) != 3 {
		t.Fatalf("cold sweep left %d .fic entries, want 3: %v", len(fics), fics)
	}
	warm, st := sweep()
	if st.Builds != 0 || st.DiskHits != 3 || st.DiskErrors != 0 || st.Quarantined != 0 {
		t.Fatalf("warm sweep: %+v, want 0 builds from 3 disk hits", st)
	}
	for _, tool := range everyTool {
		equalResults(t, "cold vs warm "+tool.Name(), cold[tool.Name()], warm[tool.Name()])
	}
}

// TestDiskCacheKeysByIR: two apps sharing a name but building different IR
// must land on different disk entries (the content address includes the IR
// fingerprint), unlike the in-memory layer which documents the name
// collision.
func TestDiskCacheKeysByIR(t *testing.T) {
	dir := t.TempDir()
	c1, err := campaign.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.BuildAndProfile(testApp, campaign.REFINE, campaign.DefaultBuildOptions(), detCosts()); err != nil {
		t.Fatal(err)
	}

	// Same name, different IR: must miss the disk entry and build.
	other := campaign.App{Name: testApp.Name, Build: miniApp2}
	c2, err := campaign.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.BuildAndProfile(other, campaign.REFINE, campaign.DefaultBuildOptions(), detCosts()); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.DiskHits != 0 || st.Builds != 1 {
		t.Fatalf("changed IR behind the same name must rebuild: %+v", st)
	}
}

// TestChunkedCancellationPrefix: cancellation abandons unclaimed indexes
// only — a claimed chunk runs to its end. One worker cancelled mid-chunk
// therefore delivers exactly its first claim (sched.MaxChunk at this trial
// count), bit-identical to the full run's prefix.
func TestChunkedCancellationPrefix(t *testing.T) {
	cache := campaign.NewCache()
	full := runPrivate(t, 1, cache)
	ctx, cancel := context.WithCancel(context.Background())
	var seen int
	res, err := campaign.New(testApp, campaign.REFINE,
		campaign.WithTrials(100000), campaign.WithSeed(7), campaign.WithWorkers(1),
		campaign.WithCache(cache), campaign.WithRecords(),
		campaign.WithObserver(func(i int, tr campaign.TrialResult) {
			seen++
			if seen == 25 {
				cancel()
			}
		}),
	).Run(ctx)
	if err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
	if res.Trials != sched.MaxChunk {
		t.Fatalf("partial prefix %d, want the one claimed chunk of %d", res.Trials, sched.MaxChunk)
	}
	for i := 0; i < res.Trials; i++ {
		if res.Records[i] != full.Records[i] {
			t.Fatalf("partial trial %d differs from full run", i)
		}
	}
}

// TestZeroTrialCampaign: an empty trial range still builds and profiles —
// the result is empty, carries the profile and no error — on a private
// executor (whose size must clamp to one worker for the build unit) and on a
// shared one.
func TestZeroTrialCampaign(t *testing.T) {
	ex := sched.New(2)
	defer ex.Close()
	for name, rng := range map[string]campaign.Option{
		"WithTrials(0)":        campaign.WithTrials(0),
		"WithTrialRange(5, 5)": campaign.WithTrialRange(5, 5),
	} {
		for where, exec := range map[string]*sched.Executor{"private": nil, "shared": ex} {
			res, err := campaign.New(testApp, campaign.REFINE, rng,
				campaign.WithExecutor(exec), campaign.WithRecords(),
				campaign.WithObserver(func(int, campaign.TrialResult) {
					t.Errorf("%s/%s: observer invoked", name, where)
				}),
			).Run(context.Background())
			if err != nil {
				t.Fatalf("%s/%s: %v", name, where, err)
			}
			if res.Trials != 0 || len(res.Records) != 0 || res.Counts.Total() != 0 || res.Cycles != 0 {
				t.Fatalf("%s/%s: result not empty: %+v", name, where, res)
			}
			if res.Profile == nil {
				t.Fatalf("%s/%s: no profile", name, where)
			}
		}
	}
}

// unbuildable fails ir.Verify: main has no terminator.
func unbuildable() *ir.Module {
	m := ir.NewModule("unbuildable")
	ir.NewBuilder(m).NewFunc("main", ir.I64)
	return m
}

// TestPrivateExecutorNeverLeaks: Run closes its private executor on every
// return path — completed, cancelled mid-run, failed build, invalid range —
// so repeated campaigns leave the goroutine count where it started.
func TestPrivateExecutorNeverLeaks(t *testing.T) {
	cache := campaign.NewCache()
	runPrivate(t, 4, cache) // warm the cache and any lazily started runtime goroutines
	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		runPrivate(t, 4, cache)

		ctx, cancel := context.WithCancel(context.Background())
		var seen int
		if _, err := campaign.New(testApp, campaign.REFINE,
			campaign.WithTrials(100000), campaign.WithWorkers(4), campaign.WithCache(cache),
			campaign.WithObserver(func(int, campaign.TrialResult) {
				if seen++; seen == 25 {
					cancel()
				}
			}),
		).Run(ctx); err == nil {
			t.Fatal("cancelled campaign returned nil error")
		}
		cancel()

		if _, err := campaign.New(campaign.App{Name: "unbuildable", Build: unbuildable}, campaign.REFINE,
			campaign.WithTrials(8), campaign.WithWorkers(4), campaign.WithCache(nil),
		).Run(context.Background()); err == nil {
			t.Fatal("unbuildable app campaigned without error")
		}
	}
	// The executor's per-batch context watchers exit once their batch
	// settles, which may trail Run's return by a scheduling quantum.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
