package campaign_test

// Journal tests: entries round-trip through segment files, torn tails left
// by dying writers are tolerated, append failures are counted, and a
// campaign replays only its own key's entries. A resumed campaign's
// equivalence with an uninterrupted one is the journal-resumed row of
// internal/experiments' TestEquivalenceMatrix.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/fault"
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
	// (the Merger) treats the journal as best-effort.
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

// TestJournalReplayIsNeitherReusedNorReinjected: a campaign over a complete
// journal and an empty cache dir executes nothing, and its section counters
// say so — journal replays + trials reused + trials re-injected = trials.
func TestJournalReplayIsNeitherReusedNorReinjected(t *testing.T) {
	const trials = 24
	app := journalApp(t)
	dir := t.TempDir()
	run := func(cache *campaign.Cache) campaign.JournalStats {
		j, err := campaign.OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if _, err := campaign.New(app, campaign.PINFI, campaign.WithTrials(trials),
			campaign.WithCache(cache), campaign.WithJournal(j)).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return j.Stats()
	}
	if st := run(nil); st.Appended != trials {
		t.Fatalf("cold run stats %+v", st)
	}
	cache, err := campaign.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := run(cache)
	if cs := cache.Compose(); st.Replayed != trials || cs.TrialsReused != 0 || cs.TrialsReinjected != 0 {
		t.Fatalf("rerun over a complete journal: journal %+v, sections %+v; want %d replayed, none reused or re-injected", st, cs, trials)
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
