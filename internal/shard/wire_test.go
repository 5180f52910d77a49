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

// TestWireReqRoundTrip pins the coordinator→worker messages through a gob
// encode/decode cycle: every req variant (hello, specIntro, rangeReq) must
// come back field-for-field, exactly one variant non-nil — the property the
// worker's serve loop dispatches on.
func TestWireReqRoundTrip(t *testing.T) {
	reqs := []req{
		{Hello: &hello{Index: 3}},
		{Spec: &specIntro{CID: 7, Spec: campaign.Spec{
			App: "CG", Tool: "REFINE", Trials: 120, Lo: 8, Seed: 42,
			CacheDir: "/tmp/fi-cache", Workers: 2,
		}}},
		{Range: &rangeReq{CID: 7, Lo: 16, Hi: 32, Retries: 1}},
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
		nonNil := 0
		for _, set := range []bool{got.Hello != nil, got.Spec != nil, got.Range != nil} {
			if set {
				nonNil++
			}
		}
		if nonNil != 1 {
			t.Fatalf("req %d: %d non-nil variants, want exactly 1", i, nonNil)
		}
		switch {
		case want.Hello != nil:
			if got.Hello == nil || *got.Hello != *want.Hello {
				t.Errorf("req %d: hello = %+v, want %+v", i, got.Hello, want.Hello)
			}
		case want.Spec != nil:
			// Spec holds a slice-bearing BuildOptions, so compare the scalar
			// identity fields (the Key() inputs plus deployment detail).
			if got.Spec == nil || got.Spec.CID != want.Spec.CID ||
				got.Spec.Spec.App != want.Spec.Spec.App ||
				got.Spec.Spec.Tool != want.Spec.Spec.Tool ||
				got.Spec.Spec.Trials != want.Spec.Spec.Trials ||
				got.Spec.Spec.Lo != want.Spec.Spec.Lo ||
				got.Spec.Spec.Seed != want.Spec.Spec.Seed ||
				got.Spec.Spec.CacheDir != want.Spec.Spec.CacheDir ||
				got.Spec.Spec.Workers != want.Spec.Spec.Workers {
				t.Errorf("req %d: specIntro = %+v, want %+v", i, got.Spec, want.Spec)
			}
		case want.Range != nil:
			if got.Range == nil || *got.Range != *want.Range {
				t.Errorf("req %d: rangeReq = %+v, want %+v", i, got.Range, want.Range)
			}
		}
	}
}

// TestWireFrameRoundTrip pins every worker→coordinator frame kind through
// an encode/decode cycle on one shared stream, as the real session
// interleaves them.
func TestWireFrameRoundTrip(t *testing.T) {
	frames := []frame{
		{Kind: frameTrial, CID: 2, Index: 17,
			TR: campaign.TrialResult{Outcome: fault.Crash, Cycles: 12345, Instrs: 678}},
		{Kind: frameProfile, CID: 2, Profile: &campaign.Profile{}},
		{Kind: frameRangeDone, CID: 2, Lo: 16, Hi: 32, Counters: counters{
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
			got.TR != want.TR || got.Lo != want.Lo || got.Hi != want.Hi ||
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
		Kind: frameTrial, CID: 1, Index: 9,
		TR: campaign.TrialResult{Outcome: fault.SOC, Cycles: 1 << 40},
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
