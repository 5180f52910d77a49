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
	var f experiments.Flags
	fs := flag.NewFlagSet("fi-campaign", flag.ContinueOnError)
	f.Register(fs, 1068)
	f.RegisterTools(fs)
	if err := fs.Parse([]string{"-apps", "CG,HPCCG,FT", "-trials", "40", "-seed", "3",
		"-tools", "LLFI,REFINE,PINFI,OPCODE,PINFI2,REFINE2"}); err != nil {
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
	want, err := os.ReadFile("testdata/sweep.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tables differ from testdata/sweep.golden:\n--- got\n%s\n--- want\n%s", got.Bytes(), want)
	}
	if builds, entries := cfg.Cache.Stats().Builds, cfg.Cache.Len(); builds != 9 || entries != 9 {
		t.Errorf("six tools × three apps made %d builds in %d cache entries, want 9 and 9: one per app and level", builds, entries)
	}
}
