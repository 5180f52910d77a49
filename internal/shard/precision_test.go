package shard_test

// Sharded sequential-precision suite: a WithPrecision campaign fanned over
// worker processes must stop at the same deterministic index as an
// in-process run — the coordinator-side merger detects the stop over the
// in-order delivered prefix, stops assigning ranges, and discards frames
// past the stop index — and produce a bit-identical truncated result.

import (
	"context"
	"testing"

	"repro/internal/campaign"
)

func TestShardPrecisionStopMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const (
		trials = 256
		margin = 0.1
		seed   = 7
	)
	app := mustApp(t, "CG")
	opts := func() []campaign.Option {
		return []campaign.Option{
			campaign.WithTrials(trials), campaign.WithSeed(seed),
			campaign.WithPrecision(margin, 0), campaign.WithRecords(),
		}
	}
	ref, err := campaign.New(app, campaign.REFINE, opts()...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Trials >= trials || ref.Trials == 0 {
		t.Fatalf("precision rule did not stop early in-process: Trials=%d", ref.Trials)
	}

	for _, shards := range []int{1, 3} {
		cache, err := campaign.NewDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c := campaign.New(app, campaign.REFINE,
			append(opts(), campaign.WithCache(cache))...)
		res, err := runOnPool(context.Background(), shards, c)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Trials != ref.Trials {
			t.Fatalf("shards=%d stopped at %d, in-process at %d", shards, res.Trials, ref.Trials)
		}
		if res.Counts != ref.Counts {
			t.Fatalf("shards=%d: Counts %+v != in-process %+v", shards, res.Counts, ref.Counts)
		}
		if len(res.Records) != len(ref.Records) {
			t.Fatalf("shards=%d: %d records, in-process %d", shards, len(res.Records), len(ref.Records))
		}
		for i := range res.Records {
			if res.Records[i] != ref.Records[i] {
				t.Fatalf("shards=%d: trial %d differs", shards, i)
			}
		}
	}
}
