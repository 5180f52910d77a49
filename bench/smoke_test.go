package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/shard"
)

// served_sharded re-execs this test binary as its shard workers.
func TestMain(m *testing.M) {
	shard.MaybeWorker()
	os.Exit(m.Run())
}

// TestSmoke runs every workload for one round of two trials per cell with
// all output checks on, so the benchmark cannot silently rot. It asserts
// nothing about time.
func TestSmoke(t *testing.T) {
	for _, d := range workloadDefs {
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(runOpts{workload: d.name, seed: 1, seconds: 1, smoke: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || !(v.Value > 0) {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", m.name, v, ok, m.unit)
				}
			}
			if v := res.Metrics[failedShare]; v.Value != 0 {
				t.Errorf("%s = %v", failedShare, v.Value)
			}
		})
	}
}

// TestSmokeTraced runs the traced path — one traced round, one untraced, and
// the layer probes at a hundredth of their size: every per-layer metric the
// contract lists gets a finite value (runWorkload fails otherwise), and the
// span file carries self times.
func TestSmokeTraced(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	res, err := runWorkload(runOpts{workload: "fired_serial", seed: 1, seconds: 1, smoke: true, trace: true, outDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Rounds != 2 {
		t.Errorf("correct=%v rounds=%d: %v", res.Correct, res.Rounds, res.Failures)
	}
	for _, m := range perLayer {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
			t.Errorf("%s = %+v (present %v), want a value in %s", m.name, v, ok, m.unit)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace-fired_serial.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	var self int64
	for _, s := range spans {
		if s.SelfNS < 0 || s.SelfNS > s.EndNS-s.StartNS {
			t.Errorf("span %d %s: self time %d outside [0, %d]", s.ID, s.Name, s.SelfNS, s.EndNS-s.StartNS)
		}
		self += s.SelfNS
	}
	if len(spans) == 0 || self == 0 {
		t.Errorf("%d spans, %d ns of self time", len(spans), self)
	}
}

// TestSmokePass runs what a memory-pass child runs.
func TestSmokePass(t *testing.T) {
	t.Parallel()
	res, err := runPass(runOpts{workload: "served_sharded", seed: memSeed, smoke: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || !(res.Metrics["peak_rss_mb"].Value > 0) {
		t.Errorf("correct=%v peak=%v: %v", res.Correct, res.Metrics["peak_rss_mb"], res.Failures)
	}
}
