package shard

import (
	"bytes"
	"encoding/gob"
	"io"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// TestWireReqRoundTrip pins the coordinator→worker message through a gob
// encode/decode cycle: every req must come back field-for-field — the wire
// version, session index, campaign id, spec, harness build and range the
// worker runs it from.
func TestWireReqRoundTrip(t *testing.T) {
	reqs := []req{
		{Wire: wireVersion, Index: 3, CID: 7, Spec: campaign.Spec{
			App: "CG", Tool: "REFINE", Trials: 120, Lo: 8, Seed: 42,
			CacheDir: "/tmp/fi-cache", Workers: 2,
		}, Build: "0123abcd+modified", Lo: 16, Hi: 32},
		{Index: 3, CID: 8, Spec: campaign.Spec{App: "FT", Tool: "PINFI", Trials: 4}, Lo: 0, Hi: 4},
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i := range reqs {
		if err := enc.Encode(&reqs[i]); err != nil {
			t.Fatalf("encode req %d: %v", i, err)
		}
	}
	dec := gob.NewDecoder(&buf)
	for i, want := range reqs {
		var got req
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode req %d: %v", i, err)
		}
		// Spec holds a slice-bearing BuildOptions, so compare the scalar
		// identity fields (the Key() inputs plus deployment detail).
		if got.Wire != want.Wire || got.Index != want.Index || got.CID != want.CID || got.Build != want.Build ||
			got.Lo != want.Lo || got.Hi != want.Hi ||
			got.Spec.App != want.Spec.App ||
			got.Spec.Tool != want.Spec.Tool ||
			got.Spec.Trials != want.Spec.Trials ||
			got.Spec.Lo != want.Spec.Lo ||
			got.Spec.Seed != want.Spec.Seed ||
			got.Spec.CacheDir != want.Spec.CacheDir ||
			got.Spec.Workers != want.Spec.Workers {
			t.Errorf("req %d = %+v, want %+v", i, got, want)
		}
	}
}

// TestWireFrameRoundTrip pins every worker→coordinator frame kind through
// an encode/decode cycle on one shared stream, as the real session
// interleaves them: a batch of one trial, a batch of several, whose results
// differ in every field, then the range ack, an error and the exit.
func TestWireFrameRoundTrip(t *testing.T) {
	frames := []frame{
		{Kind: frameTrials, CID: 2, Index: 16,
			TRs: []campaign.TrialResult{{Outcome: fault.Crash, Cycles: 12345, Instrs: 678}}},
		{Kind: frameTrials, CID: 2, Index: 17, TRs: []campaign.TrialResult{
			{Outcome: fault.SOC, Cycles: 1 << 40, Instrs: 9,
				Rec: fault.Record{DynIdx: 1234, PC: 567, Bit: 13, Op: "addq"}},
			{Outcome: fault.Benign},
			{Outcome: fault.HarnessFault, Cycles: 3},
		}},
		{Kind: frameRangeDone, CID: 2, Lo: 16, Hi: 32, Profile: &campaign.Profile{}, Counters: counters{
			Stats: campaign.CacheStats{MemHits: 3, Builds: 1},
			Phases: campaign.PhaseStats{ProfileInstrs: 5, ProfileNanos: 6,
				TrialByTool: map[string]campaign.TrialPhase{"REFINE": {Trials: 16, Rejoined: 3, Instrs: 700, Skipped: 90, Pruned: 80, Nanos: 1}}},
		}},
		{Kind: frameErr, CID: 2, Err: "build failed"},
		{Kind: frameExit, Counters: counters{Stats: campaign.CacheStats{DiskHits: 4}}},
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			t.Fatalf("encode frame %d: %v", i, err)
		}
	}
	dec := gob.NewDecoder(&buf)
	for i, want := range frames {
		var got frame
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.CID != want.CID || got.Index != want.Index ||
			!reflect.DeepEqual(got.TRs, want.TRs) || got.Lo != want.Lo || got.Hi != want.Hi ||
			got.Err != want.Err || !reflect.DeepEqual(got.Counters, want.Counters) {
			t.Errorf("frame %d: got %+v, want %+v", i, got, want)
		}
		if (got.Profile != nil) != (want.Profile != nil) {
			t.Errorf("frame %d: profile presence = %v, want %v", i, got.Profile != nil, want.Profile != nil)
		}
	}
}

// TestWireTruncatedFrame asserts a frame cut mid-encoding fails decode
// rather than yielding a partial value — the torn-frame signal the
// coordinator's reader turns into workerGone/reassignment.
func TestWireTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&frame{
		Kind: frameTrials, CID: 1, Index: 9,
		TRs: []campaign.TrialResult{{Outcome: fault.SOC, Cycles: 1 << 40}, {Outcome: fault.Crash}},
	}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{1, len(whole) / 2, len(whole) - 1} {
		var got frame
		err := gob.NewDecoder(bytes.NewReader(whole[:cut])).Decode(&got)
		if err == nil {
			t.Fatalf("cut at %d/%d bytes: decode succeeded: %+v", cut, len(whole), got)
		}
		if err != io.EOF && err != io.ErrUnexpectedEOF {
			// Any error is a dead worker to the reader; just document which.
			t.Logf("cut at %d: %v", cut, err)
		}
	}
}

// TestWireGarbagePrefix asserts a stream that opens with non-gob bytes (a
// stray print on a worker's stdout, a corrupted TCP segment) errors instead
// of decoding nonsense into the merger.
func TestWireGarbagePrefix(t *testing.T) {
	var valid bytes.Buffer
	if err := gob.NewEncoder(&valid).Encode(&frame{Kind: frameExit, Counters: counters{Stats: campaign.CacheStats{Builds: 1}}}); err != nil {
		t.Fatal(err)
	}
	for _, garbage := range [][]byte{
		[]byte("panic: runtime error\n"),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	} {
		var got frame
		err := gob.NewDecoder(bytes.NewReader(append(append([]byte(nil), garbage...), valid.Bytes()...))).Decode(&got)
		if err == nil {
			t.Fatalf("garbage prefix %q: decode succeeded: %+v", garbage, got)
		}
		if sessionClosed(err) {
			t.Errorf("garbage prefix %q: classified as clean close: %v", garbage, err)
		}
	}
}
