package shard_test

// The sharding acceptance suite: sharded campaigns must be bit-identical to
// in-process runs for any shard count, worker processes must share one disk
// cache (first builds, rest restore, warm runs build nothing), cancellation
// must keep the partial-prefix contract across processes, and a worker
// killed mid-range must have its range reassigned without holes or
// duplicates.
//
// The worker side re-execs this very test binary: TestMain routes the
// FI_SHARD_WORKER marker into shard.MaybeWorker before any test runs, and a
// second marker turns the binary into a bare cache-warming child for the
// concurrent cross-process writer test.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/pinfi"
	"repro/internal/shard"
	"repro/internal/workloads"
)

func TestMain(m *testing.M) {
	shard.MaybeWorker()
	cacheWarmChild()
	os.Exit(m.Run())
}

// cacheWarmChild is the helper-process mode for the concurrent-writer test:
// warm one app×tool build+profile into the given cache dir and report the
// cache counters on stdout.
func cacheWarmChild() {
	dir := os.Getenv("FI_SHARD_CACHEWARM")
	if dir == "" {
		return
	}
	cache, err := campaign.NewDiskCache(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachewarm:", err)
		os.Exit(1)
	}
	app, err := workloads.ByName("CG")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachewarm:", err)
		os.Exit(1)
	}
	if _, _, err := cache.BuildAndProfile(app, campaign.REFINE, campaign.DefaultBuildOptions(), pinfi.DefaultCosts()); err != nil {
		fmt.Fprintln(os.Stderr, "cachewarm:", err)
		os.Exit(1)
	}
	st := cache.Stats()
	fmt.Printf("builds=%d disk-hits=%d disk-errors=%d\n", st.Builds, st.DiskHits, st.DiskErrors)
	os.Exit(0)
}

func mustApp(t *testing.T, name string) campaign.App {
	t.Helper()
	app, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// baseline runs the in-process reference campaign.
func baseline(t *testing.T, app campaign.App, tool campaign.Tool, trials int, seed uint64) *campaign.Result {
	t.Helper()
	res, err := campaign.New(app, tool,
		campaign.WithTrials(trials), campaign.WithSeed(seed),
		campaign.WithRecords(), campaign.WithCache(nil)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runOnPool runs one campaign on a pool of n workers opened for it and
// drained afterwards.
func runOnPool(ctx context.Context, n int, c *campaign.Campaign) (*campaign.Result, error) {
	p, err := shard.NewPool(n)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.Run(ctx, c)
}

// TestShardDeterminism is the acceptance gate: shards ∈ {1, 2, 4} must
// reproduce the unsharded campaign bit for bit — Counts, Cycles, Records,
// the observer stream (indexes strictly in order), and the profile.
func TestShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const trials = 48
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 5)
	cacheDir := t.TempDir() // shared across shard counts: later pools warm-start

	for _, shards := range []int{1, 2, 4} {
		cache, err := campaign.NewDiskCache(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var order []int
		c := campaign.New(app, campaign.REFINE,
			campaign.WithTrials(trials), campaign.WithSeed(5),
			campaign.WithRecords(), campaign.WithCache(cache),
			campaign.WithObserver(func(i int, tr campaign.TrialResult) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			}))
		res, err := runOnPool(context.Background(), shards, c)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Counts != ref.Counts {
			t.Fatalf("shards=%d: Counts %+v != unsharded %+v", shards, res.Counts, ref.Counts)
		}
		if res.Cycles != ref.Cycles {
			t.Fatalf("shards=%d: Cycles %d != unsharded %d", shards, res.Cycles, ref.Cycles)
		}
		if res.Trials != ref.Trials {
			t.Fatalf("shards=%d: Trials %d != unsharded %d", shards, res.Trials, ref.Trials)
		}
		if len(res.Records) != len(ref.Records) {
			t.Fatalf("shards=%d: %d records != unsharded %d", shards, len(res.Records), len(ref.Records))
		}
		for i := range ref.Records {
			if res.Records[i] != ref.Records[i] {
				t.Fatalf("shards=%d: Records[%d] = %+v != unsharded %+v", shards, i, res.Records[i], ref.Records[i])
			}
		}
		if len(order) != trials {
			t.Fatalf("shards=%d: observer saw %d trials, want %d", shards, len(order), trials)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("shards=%d: observer order[%d] = %d (stream must be in trial order)", shards, i, got)
			}
		}
		if res.Profile == nil || ref.Profile == nil ||
			res.Profile.Targets != ref.Profile.Targets || res.Profile.Budget != ref.Profile.Budget {
			t.Fatalf("shards=%d: profile %+v != unsharded %+v", shards, res.Profile, ref.Profile)
		}
	}
}

// TestShardSharedCacheWarm: workers sharing one -cache-dir build at most
// once per app×tool across all processes of a cold pool, and a warm pool
// reports builds=0 — every artifact restored from disk.
func TestShardSharedCacheWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const trials = 24
	app := mustApp(t, "CG")
	dir := t.TempDir()
	runOnce := func() campaign.CacheStats {
		cache, err := campaign.NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		p, err := shard.NewPool(2)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		c := campaign.New(app, campaign.PINFI,
			campaign.WithTrials(trials), campaign.WithSeed(9), campaign.WithCache(cache))
		if _, err := p.Run(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		p.Close()
		return p.Stats()
	}
	cold := runOnce()
	if cold.Builds == 0 {
		t.Fatalf("cold pool reported no builds: %+v", cold)
	}
	warm := runOnce()
	if warm.Builds != 0 {
		t.Fatalf("warm pool rebuilt despite shared cache dir: %+v", warm)
	}
	if warm.DiskHits == 0 {
		t.Fatalf("warm pool shows no disk hits: %+v", warm)
	}
}

// TestShardCancellationPrefix: cancelling a sharded campaign mid-flight
// returns the contiguous delivered prefix — same contract, same error shape
// as the in-process runner — and the prefix matches the unsharded stream.
func TestShardCancellationPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const trials = 400
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 11)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var order []int
	c := campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(11),
		campaign.WithRecords(), campaign.WithCache(nil),
		campaign.WithObserver(func(i int, tr campaign.TrialResult) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			if i == 25 {
				cancel()
			}
		}))
	res, err := runOnPool(ctx, 2, c)
	if err == nil {
		t.Fatal("cancelled sharded campaign must return an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error must wrap context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("cancelled sharded campaign must return the partial result")
	}
	if res.Trials <= 25 || res.Trials > trials {
		t.Fatalf("partial result covers %d trials, want (25, %d]", res.Trials, trials)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != res.Trials {
		t.Fatalf("observer saw %d trials, result claims %d", len(order), res.Trials)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("delivered prefix has a hole: order[%d] = %d", i, got)
		}
	}
	for i := 0; i < res.Trials; i++ {
		if res.Records[i] != ref.Records[i] {
			t.Fatalf("prefix record %d diverges from the unsharded stream", i)
		}
	}
}

// TestShardWorkerKilledReassigns: a worker killed mid-campaign (the crash /
// external-SIGKILL case) must have its claimed range reassigned to a live
// worker; the campaign completes in full, without holes or duplicates, bit-
// identical to the unsharded run.
func TestShardWorkerKilledReassigns(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const trials = 240
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 13)

	p, err := shard.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pids := p.Pids()
	var once sync.Once
	var mu sync.Mutex
	var order []int
	c := campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(13),
		campaign.WithRecords(), campaign.WithCache(nil),
		campaign.WithObserver(func(i int, tr campaign.TrialResult) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			once.Do(func() {
				// First delivery: one worker is mid-range right now. Kill it.
				syscall.Kill(pids[0], syscall.SIGKILL)
			})
		}))
	res, err := p.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != trials {
		t.Fatalf("campaign completed %d/%d trials after worker kill", res.Trials, trials)
	}
	if res.Counts != ref.Counts || res.Cycles != ref.Cycles {
		t.Fatalf("post-kill result diverges: %+v / %d vs %+v / %d", res.Counts, res.Cycles, ref.Counts, ref.Cycles)
	}
	for i := range ref.Records {
		if res.Records[i] != ref.Records[i] {
			t.Fatalf("post-kill Records[%d] diverges from unsharded run", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i {
			t.Fatalf("observer stream out of order after reassignment: order[%d] = %d", i, got)
		}
	}
}

// TestShardPromptCancellation: an already-cancelled context must return
// before any range is assigned — no trials run, no observer calls, matching
// the in-process runner's pre-trial ctx check.
func TestShardPromptCancellation(t *testing.T) {
	app := mustApp(t, "CG")
	p, err := shard.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := p.Run(ctx, campaign.New(app, campaign.REFINE,
		campaign.WithTrials(1000), campaign.WithCache(nil),
		campaign.WithObserver(func(i int, tr campaign.TrialResult) {
			t.Errorf("observer fired (trial %d) on a pre-cancelled campaign", i)
		})))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatalf("pre-cancelled sharded run returned a result: %+v", res)
	}
}

// TestShardNonRegistryAppRejected: sharding needs workers to re-resolve the
// app by name; a synthetic app must fail fast with a clear error.
func TestShardNonRegistryAppRejected(t *testing.T) {
	c := campaign.New(campaign.App{Name: "no-such-app"}, campaign.REFINE, campaign.WithTrials(4))
	p, err := shard.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Run(context.Background(), c); err == nil || !strings.Contains(err.Error(), "registry") {
		t.Fatalf("expected registry-app error, got %v", err)
	}
}

// TestConcurrentCacheWarmProcesses is the cross-process disk-cache pin: two
// child processes warming the same cache dir for the same app×tool
// concurrently must both succeed, leave exactly one valid entry (atomic
// renames collapse onto one content address), and a third, warm child must
// report builds=0.
func TestConcurrentCacheWarmProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns helper processes")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	warm := func() (builds, diskHits int) {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "FI_SHARD_CACHEWARM="+dir)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("cache-warm child: %v (%s)", err, out)
		}
		var diskErrors int
		if _, err := fmt.Sscanf(string(out), "builds=%d disk-hits=%d disk-errors=%d", &builds, &diskHits, &diskErrors); err != nil {
			t.Fatalf("cache-warm child output %q: %v", out, err)
		}
		return builds, diskHits
	}

	var wg sync.WaitGroup
	results := make([][2]int, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, h := warm()
			results[i] = [2]int{b, h}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("concurrent cache-warm children did not finish")
	}
	for i, r := range results {
		if r[0]+r[1] == 0 {
			t.Fatalf("child %d neither built nor hit the cache: %v", i, r)
		}
	}

	entries, err := filepath.Glob(filepath.Join(dir, "*.fic"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("cache dir holds %d entries (%v), want exactly 1", len(entries), entries)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, ".fic-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temp files leaked: %v", leftovers)
	}

	builds, diskHits := warm()
	if builds != 0 || diskHits != 1 {
		t.Fatalf("warm child: builds=%d disk-hits=%d, want builds=0 disk-hits=1", builds, diskHits)
	}
}
