package campaign_test

// Merger tests: the campaign's ordered sink drops what has already arrived or
// lies outside the range, journals each new trial once — a batch's new
// trials in one write —, never re-appends a restored one, adds a trial
// without allocating, and a journal with holes resumes on a parallel
// executor to the uninterrupted run's counts and observer stream.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/fault"
)

// stream is an observer recording what a campaign delivers.
type stream struct {
	idx []int
	trs []campaign.TrialResult
}

func (s *stream) obs(i int, tr campaign.TrialResult) {
	s.idx = append(s.idx, i)
	s.trs = append(s.trs, tr)
}

func TestMergerDropsDuplicateAndOutOfRange(t *testing.T) {
	var seen stream
	m := campaign.New(journalApp(t), campaign.PINFI, campaign.WithTrialRange(4, 8),
		campaign.WithObserver(seen.obs)).NewMerger()
	crash := campaign.TrialResult{Outcome: fault.Crash, Cycles: 7}
	benign := campaign.TrialResult{Outcome: fault.Benign, Cycles: 5}
	for _, add := range []struct {
		i    int
		tr   campaign.TrialResult
		want bool
	}{
		{5, crash, true},   // held in the reorder buffer
		{5, benign, false}, // a duplicate of a pending trial
		{4, benign, true},  // delivers 4 and 5
		{4, crash, false},  // a duplicate of a delivered trial
		{3, crash, false},  // below the range
		{8, crash, false},  // past the range
		{-1, crash, false},
	} {
		if got := m.Add(add.i, add.tr); got != add.want {
			t.Fatalf("Add(%d) = %v, want %v", add.i, got, add.want)
		}
	}
	if got, want := m.Missing(), [][2]int{{6, 8}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Missing() = %v, want %v", got, want)
	}
	if got, want := m.Unseen(0, 10), []int{6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Unseen(0, 10) = %v, want %v", got, want)
	}
	if m.Delivered() != 2 || !reflect.DeepEqual(seen.idx, []int{4, 5}) {
		t.Fatalf("delivered %d, observer saw %v; want 2 and [4 5]", m.Delivered(), seen.idx)
	}
	res, err := m.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := (fault.Counts{Crash: 1, Benign: 1}); res.Counts != want || res.Cycles != 12 {
		t.Fatalf("Counts %+v Cycles %d, want %+v and 12 (first receipts only)", res.Counts, res.Cycles, want)
	}
}

func TestMergerJournalsEachTrialOnce(t *testing.T) {
	dir := t.TempDir()
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := []campaign.Option{campaign.WithTrials(4)}
	m := campaign.New(journalApp(t), campaign.PINFI, append(opts, campaign.WithJournal(j))...).NewMerger()
	tr := campaign.TrialResult{Outcome: fault.SOC, Cycles: 3}
	for _, i := range []int{1, 1, 0, 0, 9} {
		m.Add(i, tr)
	}
	if got := j.Stats().Appended; got != 2 {
		t.Fatalf("journal appended %d entries for two new trials and three drops, want 2", got)
	}
	j.Close()

	j, err = campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var seen stream
	m = campaign.New(journalApp(t), campaign.PINFI,
		append(opts, campaign.WithJournal(j), campaign.WithObserver(seen.obs))...).NewMerger()
	if st := j.Stats(); st.Loaded != 2 || st.Replayed != 2 || st.Appended != 0 {
		t.Fatalf("reopened journal %+v, want 2 loaded, 2 replayed, none re-appended", st)
	}
	if m.Delivered() != 2 || !reflect.DeepEqual(seen.idx, []int{0, 1}) {
		t.Fatalf("replay delivered %d, observer saw %v; want 2 and [0 1]", m.Delivered(), seen.idx)
	}
	if m.Add(1, tr) {
		t.Fatal("a replayed trial was added again")
	}
	if got, want := m.Missing(), [][2]int{{2, 4}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Missing() = %v, want %v", got, want)
	}
	m.Add(2, tr)
	if got := j.Stats().Appended; got != 1 {
		t.Fatalf("appended %d after one new trial, want 1", got)
	}
}

// TestMergerJournalsABatchInOneWrite: AddBatch drops what Add drops, and
// journals the batch's new trials in one write before delivering them. The
// journal's write seam fails from its second write on, so a batch written
// trial by trial would lose all but its first trial.
func TestMergerJournalsABatchInOneWrite(t *testing.T) {
	defer chaos.Reset()
	dir := t.TempDir()
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seen stream
	m := campaign.New(journalApp(t), campaign.PINFI, campaign.WithTrials(8),
		campaign.WithJournal(j), campaign.WithObserver(seen.obs)).NewMerger()
	if !m.Add(3, campaign.TrialResult{Outcome: fault.Crash}) {
		t.Fatal("Add(3) dropped a new trial")
	}
	chaos.Arm("campaign.journal.write", chaos.Fault{Kind: chaos.ErrKind, After: 2, Count: 1 << 20})
	trs := []campaign.TrialResult{
		{Outcome: fault.SOC, Cycles: 1}, {Outcome: fault.Benign, Cycles: 2}, {Outcome: fault.Crash, Cycles: 3},
		{Outcome: fault.SOC, Cycles: 4}, {Outcome: fault.Benign, Cycles: 5}, {Outcome: fault.Crash, Cycles: 6},
	}
	if got := m.AddBatch(1, trs); got != 5 {
		t.Fatalf("AddBatch(1, 6 trials) = %d new, want 5 (trial 3 has arrived)", got)
	}
	if st := j.Stats(); st.Appended != 6 || st.Errors != 0 {
		t.Fatalf("journal %+v, want 6 appended in two writes, no error", st)
	}
	if m.Delivered() != 0 || len(seen.idx) != 0 {
		t.Fatalf("delivered %d before trial 0 arrived", m.Delivered())
	}
	chaos.Reset()
	if got := m.AddBatch(6, trs[:3]); got != 1 {
		t.Fatalf("AddBatch(6, 3 trials) = %d new, want 1 (7; 8 is past the range)", got)
	}
	m.Add(0, campaign.TrialResult{Outcome: fault.Benign})
	if !reflect.DeepEqual(seen.idx, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("observer saw %v, want 0..7 in order", seen.idx)
	}
	j.Close()

	j, err = campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	key := campaign.New(journalApp(t), campaign.PINFI, campaign.WithTrials(8)).Spec().Key()
	got := j.Recorded(key, 0, 8)
	if len(got) != 8 || got[1] != trs[0] || got[6] != trs[5] || got[7] != trs[1] {
		t.Fatalf("reopened journal holds %v, want all 8 trials as added", got)
	}
}

// TestMergerAddAllocatesNothing: Add, the one-trial case of AddBatch, takes
// no allocation once the merger is warm, as the in-process executor calls
// it once per trial.
func TestMergerAddAllocatesNothing(t *testing.T) {
	const n = 1000
	m := campaign.New(journalApp(t), campaign.PINFI, campaign.WithTrials(n+1)).NewMerger()
	i := 0
	tr := campaign.TrialResult{Outcome: fault.Benign, Cycles: 1}
	if a := testing.AllocsPerRun(n, func() { m.Add(i, tr); i++ }); a != 0 {
		t.Fatalf("Add allocates %v times, want 0", a)
	}
}

// TestJournalWithHolesResumes: a journal holding every third trial of a
// reference run, appended by hand, resumes on a 4-worker executor — the
// missing runs are one job — executing exactly the other trials, to the
// reference's counts and observer stream.
func TestJournalWithHolesResumes(t *testing.T) {
	const n = 30
	app := journalApp(t)
	var ref stream
	want, err := campaign.New(app, campaign.PINFI, campaign.WithTrials(n), campaign.WithWorkers(1),
		campaign.WithCache(nil), campaign.WithObserver(ref.obs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, err := campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := campaign.New(app, campaign.PINFI, campaign.WithTrials(n)).Spec().Key()
	k := 0
	for i := 0; i < n; i += 3 {
		if err := j.Append(key, i, ref.trs[i]); err != nil {
			t.Fatal(err)
		}
		k++
	}
	j.Close()

	j, err = campaign.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var got stream
	res, err := campaign.New(app, campaign.PINFI, campaign.WithTrials(n), campaign.WithWorkers(4),
		campaign.WithJournal(j), campaign.WithObserver(got.obs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Replayed != uint64(k) || st.Appended != uint64(n-k) {
		t.Fatalf("journal %+v, want Replayed %d and Appended %d", st, k, n-k)
	}
	if res.Counts != want.Counts || res.Cycles != want.Cycles || res.Trials != n {
		t.Fatalf("resumed %+v/%d/%d, reference %+v/%d/%d", res.Counts, res.Cycles, res.Trials, want.Counts, want.Cycles, want.Trials)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("the resumed observer stream differs from the reference's")
	}
}
