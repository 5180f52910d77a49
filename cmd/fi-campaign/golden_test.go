package main

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiments"
)

// TestSweepMatchesCommittedGolden holds "tables byte-identical" for perf
// work: testdata/sweep.golden is the output of
//
//	fi-campaign -apps CG,HPCCG,FT -trials 40 -seed 3 \
//	    -tools LLFI,REFINE,PINFI,OPCODE,PINFI2,REFINE2 -quiet | grep -v '^#'
//
// generated by the build of the commit before trials started from prefix
// anchors, and the same flags must print the same bytes from now on — every
// registered fault model, 720 trials. A change that moves it has changed
// what an experiment measures and must say so by regenerating the file.
//
// The six tools are three instrumentation levels, and the sweep is where
// that is held too: on a fresh cache it makes nine builds (3 apps × ir,
// backend, binary), not eighteen.
func TestSweepMatchesCommittedGolden(t *testing.T) {
	_, cache := runGoldenSuite(t, "testdata/sweep.golden", "-apps", "CG,HPCCG,FT", "-trials", "40", "-seed", "3",
		"-tools", "LLFI,REFINE,PINFI,OPCODE,PINFI2,REFINE2")
	if builds, entries := cache.Stats().Builds, cache.Len(); builds != 9 || entries != 9 {
		t.Errorf("six tools × three apps made %d builds in %d cache entries, want 9 and 9: one per app and level", builds, entries)
	}
}

// TestPaperScaleMatchesCommittedGolden holds the paper-scale evaluation to
// testdata/paper.golden, the output of
//
//	fi-campaign -seed 1 -quiet | grep -v '^#'
//
// — 14 apps × LLFI/REFINE/PINFI × 1068 trials, every table the paper
// reports. It also states the reproduction's verdict in words, so a
// deliberate re-seed that regenerates the file still has to keep the claim:
// LLFI differs from PINFI on every app, REFINE on none, and Figure 5's totals
// keep REFINE near PINFI and LLFI well above it.
func TestPaperScaleMatchesCommittedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale campaign: 44 856 trials")
	}
	suite, _ := runGoldenSuite(t, "testdata/paper.golden", "-seed", "1")
	sig, err := suite.SummaryCounts()
	if err != nil {
		t.Fatal(err)
	}
	if sig["LLFI"] != 14 || sig["REFINE"] != 0 {
		t.Errorf("Table 5: LLFI differs on %d/14 apps and REFINE on %d/14, want 14 and 0", sig["LLFI"], sig["REFINE"])
	}
	if r := suite.NormalizedTime(campaign.REFINE); !(r <= 1.5) {
		t.Errorf("Figure 5: REFINE campaign time %.3f× PINFI, want ≤ 1.5×", r)
	}
	if l := suite.NormalizedTime(campaign.LLFI); !(l >= 3) {
		t.Errorf("Figure 5: LLFI campaign time %.3f× PINFI, want ≥ 3×", l)
	}
}

// runGoldenSuite runs fi-campaign's flags on a fresh cache and compares the
// printed tables with the golden file byte for byte.
func runGoldenSuite(t *testing.T, golden string, args ...string) (*experiments.Suite, *campaign.Cache) {
	t.Helper()
	var f experiments.Flags
	fs := flag.NewFlagSet("fi-campaign", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, closeRun, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer closeRun()
	cfg.Cache = campaign.NewCache()
	suite, err := experiments.RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := printTables(&got, suite); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tables differ from %s:\n--- got\n%s\n--- want\n%s", golden, got.Bytes(), want)
	}
	return suite, cfg.Cache
}
