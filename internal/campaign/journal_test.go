package campaign_test

// Crash-safe resume tests: the journal must round-trip entries through
// segment files, tolerate torn tails left by dying writers, and — wired into
// a campaign — make a restarted run replay recorded trials and execute only
// the missing indices, bit-identically to an uninterrupted run.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/workloads"
)

func journalApp(t *testing.T) campaign.App {
	t.Helper()
	app, err := workloads.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append("k1", i, campaign.TrialResult{Outcome: fault.Benign, Cycles: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append("k2", 0, campaign.TrialResult{Outcome: fault.Crash}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Stats()
	if st.Loaded != 11 || st.Segments != 1 || st.Torn != 0 {
		t.Fatalf("reopen stats %+v, want 11 loaded from 1 segment", st)
	}
	got := j2.Recorded("k1", 0, 100)
	if len(got) != 10 {
		t.Fatalf("Recorded(k1) returned %d entries, want 10", len(got))
	}
	for i := 0; i < 10; i++ {
		if got[i].Cycles != int64(i) {
			t.Fatalf("entry %d round-tripped as %+v", i, got[i])
		}
	}
	// Range filtering and key namespacing.
	if sub := j2.Recorded("k1", 3, 5); len(sub) != 2 || sub[3].Cycles != 3 {
		t.Fatalf("ranged Recorded = %v", sub)
	}
	if other := j2.Recorded("k2", 0, 100); len(other) != 1 || other[0].Outcome != fault.Crash {
		t.Fatalf("Recorded(k2) = %v", other)
	}
	if none := j2.Recorded("absent", 0, 100); none != nil {
		t.Fatalf("unknown key returned %v", none)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append("k", i, campaign.TrialResult{Cycles: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// A crashed writer leaves a half-flushed frame at the tail.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.fij"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v)", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x42, 0x13, 0x07}) // not a decodable gob frame
	f.Close()

	j2, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Stats()
	if st.Loaded != 5 || st.Torn != 1 {
		t.Fatalf("torn reopen stats %+v, want the 5-entry prefix with Torn=1", st)
	}

	// The reopened journal appends to a fresh segment, never the torn tail.
	if err := j2.Append("k", 5, campaign.TrialResult{Cycles: 5}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	segs, _ = filepath.Glob(filepath.Join(dir, "seg-*.fij"))
	if len(segs) != 2 {
		t.Fatalf("append after torn reopen went into %d segments, want a fresh second", len(segs))
	}
	j3, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := j3.Recorded("k", 0, 100); len(got) != 6 {
		t.Fatalf("after torn tail + append: %d entries recovered, want 6", len(got))
	}
}

func TestJournalAppendFailuresCountedNotFatal(t *testing.T) {
	defer chaos.Reset()
	dir := t.TempDir()
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// Transient: fails twice, the retry budget absorbs it.
	chaos.Arm("campaign.journal.write", chaos.Fault{Kind: chaos.ErrKind, Count: 2})
	if err := j.Append("k", 0, campaign.TrialResult{}); err != nil {
		t.Fatalf("transient write failures not absorbed: %v", err)
	}
	chaos.Reset()

	// Persistent: the append is dropped, counted, and reported — the caller
	// (the collector) treats the journal as best-effort.
	chaos.Arm("campaign.journal.write", chaos.Fault{Kind: chaos.ErrKind, Count: 1 << 20})
	if err := j.Append("k", 1, campaign.TrialResult{}); err == nil {
		t.Fatal("persistent write failure returned nil")
	}
	chaos.Reset()
	st := j.Stats()
	if st.Appended != 1 || st.Errors != 1 {
		t.Fatalf("stats %+v, want Appended=1 Errors=1", st)
	}

	// The encoder was repaired (fresh segment): later appends still work and
	// survive a reopen.
	if err := j.Append("k", 2, campaign.TrialResult{Cycles: 2}); err != nil {
		t.Fatalf("append after encoder repair: %v", err)
	}
	j.Close()
	j2, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := j2.Recorded("k", 0, 10)
	if len(got) != 2 || got[2].Cycles != 2 {
		t.Fatalf("recovered %v, want entries 0 and 2", got)
	}
}

func TestUnusableJournalPathFailsFast(t *testing.T) {
	reg := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(reg, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.OpenJournal(reg); err == nil {
		t.Fatal("OpenJournal accepted a regular file as its directory")
	}
	if os.Geteuid() != 0 {
		ro := t.TempDir()
		os.Chmod(ro, 0o555)
		defer os.Chmod(ro, 0o755)
		if _, err := campaign.OpenJournal(ro); err == nil {
			t.Fatal("OpenJournal accepted an unwritable directory")
		}
	}
}

// TestCampaignResumeExecutesOnlyMissing is the acceptance pin for crash-safe
// resume: a campaign interrupted mid-run and restarted over the same journal
// must replay the recorded prefix and execute only the missing indices, with
// a final result bit-identical to an uninterrupted run.
func TestCampaignResumeExecutesOnlyMissing(t *testing.T) {
	const trials = 60
	app := journalApp(t)
	ref, err := campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(21),
		campaign.WithRecords(), campaign.WithCache(nil)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	j1, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	// "Crash" partway: cancel once a prefix has been delivered. Workers that
	// already completed out-of-order indices journal them too — exactly what
	// a dying coordinator leaves behind.
	ctx, cancel := context.WithCancel(context.Background())
	c1 := campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(21),
		campaign.WithCache(nil), campaign.WithJournal(j1),
		campaign.WithObserver(func(i int, tr campaign.TrialResult) {
			if i == 20 {
				cancel()
			}
		}))
	if _, err := c1.Run(ctx); err == nil {
		t.Fatal("cancelled first run returned nil error")
	}
	j1.Close()
	recorded := j1.Stats().Appended
	if recorded == 0 || recorded >= trials {
		t.Fatalf("interrupted run journaled %d of %d trials; the test needs a partial journal", recorded, trials)
	}

	// Restart over the same journal dir, as a new coordinator process would.
	j2, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.Loaded != recorded {
		t.Fatalf("reopen loaded %d entries, first run appended %d", st.Loaded, recorded)
	}
	var mu sync.Mutex
	var order []int
	res, err := campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(21),
		campaign.WithRecords(), campaign.WithCache(nil), campaign.WithJournal(j2),
		campaign.WithObserver(func(i int, tr campaign.TrialResult) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Only the missing indices re-executed: replayed + newly appended must
	// partition the trial space exactly.
	st := j2.Stats()
	if st.Replayed != recorded {
		t.Fatalf("resume replayed %d entries, journal held %d", st.Replayed, recorded)
	}
	if st.Appended != uint64(trials)-recorded {
		t.Fatalf("resume appended %d entries, want the %d missing", st.Appended, uint64(trials)-recorded)
	}

	// Bit-identical to the uninterrupted run, observer stream in order.
	if res.Counts != ref.Counts || res.Cycles != ref.Cycles || res.Trials != ref.Trials {
		t.Fatalf("resumed result diverges: %+v/%d vs %+v/%d", res.Counts, res.Cycles, ref.Counts, ref.Cycles)
	}
	for i := range ref.Records {
		if res.Records[i] != ref.Records[i] {
			t.Fatalf("resumed Records[%d] = %+v, reference %+v", i, res.Records[i], ref.Records[i])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != trials {
		t.Fatalf("observer saw %d deliveries, want %d (replayed + fresh)", len(order), trials)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("resumed observer stream out of order: order[%d] = %d", i, got)
		}
	}
}

// TestJournalFullyRecordedRunReExecutesNothing: a completed campaign resumed
// over its own journal is pure replay — zero fresh appends.
func TestJournalFullyRecordedRunReExecutesNothing(t *testing.T) {
	const trials = 30
	app := journalApp(t)
	dir := t.TempDir()
	run := func() (*campaign.Result, campaign.JournalStats) {
		j, err := campaign.OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		res, err := campaign.New(app, campaign.PINFI,
			campaign.WithTrials(trials), campaign.WithSeed(4),
			campaign.WithRecords(), campaign.WithCache(nil),
			campaign.WithJournal(j)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, j.Stats()
	}
	res1, st1 := run()
	if st1.Appended != trials || st1.Replayed != 0 {
		t.Fatalf("cold journaled run stats %+v", st1)
	}
	res2, st2 := run()
	if st2.Appended != 0 || st2.Replayed != trials {
		t.Fatalf("warm journaled run stats %+v, want pure replay", st2)
	}
	if res1.Counts != res2.Counts || res1.Cycles != res2.Cycles {
		t.Fatalf("replayed result diverges: %+v vs %+v", res2.Counts, res1.Counts)
	}
	for i := range res1.Records {
		if res1.Records[i] != res2.Records[i] {
			t.Fatalf("replayed Records[%d] diverges", i)
		}
	}
}

// TestJournalKeyIsolation: recordings are namespaced by the campaign's
// outcome-determining configuration — a different seed (or tool) never
// replays another campaign's entries.
func TestJournalKeyIsolation(t *testing.T) {
	const trials = 12
	app := journalApp(t)
	dir := t.TempDir()
	runSeed := func(seed uint64) campaign.JournalStats {
		j, err := campaign.OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if _, err := campaign.New(app, campaign.PINFI,
			campaign.WithTrials(trials), campaign.WithSeed(seed),
			campaign.WithCache(nil), campaign.WithJournal(j)).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return j.Stats()
	}
	if st := runSeed(1); st.Appended != trials {
		t.Fatalf("seed 1 cold run stats %+v", st)
	}
	if st := runSeed(2); st.Appended != trials || st.Replayed != 0 {
		t.Fatalf("seed 2 replayed seed 1's journal: %+v", st)
	}
	if st := runSeed(1); st.Replayed != trials || st.Appended != 0 {
		t.Fatalf("seed 1 warm run stats %+v, want pure replay", st)
	}
}

// TestScheduledCampaignResume: a campaign on a shared executor honors the
// journal the same way one on its private executor does.
func TestScheduledCampaignResume(t *testing.T) {
	const trials = 24
	app := journalApp(t)
	ex := sched.New(4)
	defer ex.Close()
	dir := t.TempDir()
	run := func() campaign.JournalStats {
		j, err := campaign.OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if _, err := campaign.New(app, campaign.REFINE,
			campaign.WithTrials(trials), campaign.WithSeed(8),
			campaign.WithCache(nil), campaign.WithJournal(j),
			campaign.WithExecutor(ex)).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return j.Stats()
	}
	if st := run(); st.Appended != trials {
		t.Fatalf("cold scheduled run stats %+v", st)
	}
	if st := run(); st.Appended != 0 || st.Replayed != trials {
		t.Fatalf("warm scheduled run stats %+v, want pure replay", st)
	}
}

// TestJournalSegmentRotation: appends past the segment size cap rotate into
// new segment files, and every entry survives a reopen.
func TestJournalSegmentRotation(t *testing.T) {
	if testing.Short() {
		t.Skip("writes tens of MB")
	}
	dir := t.TempDir()
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 120_000 // ~50 B/entry: comfortably past one 4 MiB segment
	key := fmt.Sprintf("%032d", 7)
	for i := 0; i < n; i++ {
		if err := j.Append(key, i, campaign.TrialResult{Cycles: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.fij"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("%d appends stayed in %d segment(s); rotation never triggered", n, len(segs))
	}
	j2, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Recorded(key, 0, n); len(got) != n {
		t.Fatalf("recovered %d of %d entries across %d segments", len(got), n, len(segs))
	}
}
