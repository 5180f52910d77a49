package campaign_test

// Merger tests: the campaign's ordered sink drops what has already arrived or
// lies outside the range, journals each new trial once, never re-appends a
// restored one, and a journal with holes resumes on a parallel executor to
// the uninterrupted run's counts and observer stream.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/campaign"
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
