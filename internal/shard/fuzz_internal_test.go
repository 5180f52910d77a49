package shard

// FuzzWireFrames feeds arbitrary bytes to both ends of the session protocol:
// as a worker→coordinator frame stream, decoded as the pool's reader decodes
// it, and as a coordinator→worker req stream, decoded as a worker session
// decodes it. Either stream arrives from a peer over a socket, so decoding
// must end in an error — never a panic or a hang. The seeds are real streams
// encoded here from a small campaign: every req kind and every frame kind,
// whole and truncated. Run with
//
//	go test -run '^$' -fuzz '^FuzzWireFrames$' -fuzztime=10s -fuzzminimizetime=100x ./internal/shard/
//
// (the default 60 s minimization of each new input would eat a 10 s budget).

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"

	"repro/internal/campaign"
	"repro/internal/workloads"
)

// wireSeeds encodes one req stream and one frame stream from a real
// campaign: its spec, trial results, profile and cache counters.
func wireSeeds(f *testing.F) (reqs, frames []byte) {
	app, err := workloads.ByName("CG")
	if err != nil {
		f.Fatal(err)
	}
	cache := campaign.NewCache()
	var trs []campaign.TrialResult
	c := campaign.New(app, campaign.PINFI, campaign.WithTrials(3), campaign.WithCache(cache),
		campaign.WithObserver(func(_ int, tr campaign.TrialResult) { trs = append(trs, tr) }))
	res, err := c.Run(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	spec := c.Spec()

	var rb bytes.Buffer
	enc := gob.NewEncoder(&rb)
	for _, r := range []req{
		{Hello: &hello{Index: 1}},
		{Spec: &specIntro{CID: 4, Spec: spec, Build: "0123abcd+modified"}},
		{Range: &rangeReq{CID: 4, Lo: 0, Hi: 3, Retries: 2}},
	} {
		if err := enc.Encode(&r); err != nil {
			f.Fatal(err)
		}
	}
	cs := counters{Stats: cache.Stats(), Phases: cache.Phases()}
	var fb bytes.Buffer
	enc = gob.NewEncoder(&fb)
	out := []frame{{Kind: frameProfile, CID: 4, Profile: res.Profile}}
	for i, tr := range trs {
		out = append(out, frame{Kind: frameTrial, CID: 4, Index: i, TR: tr})
	}
	out = append(out,
		frame{Kind: frameRangeDone, CID: 4, Lo: 0, Hi: 3, Counters: cs},
		frame{Kind: frameErr, CID: 5, Err: "worker 1 runs harness build x, the coordinator y"},
		frame{Kind: frameExit, Counters: cs})
	for _, fr := range out {
		if err := enc.Encode(&fr); err != nil {
			f.Fatal(err)
		}
	}
	return rb.Bytes(), fb.Bytes()
}

func FuzzWireFrames(f *testing.F) {
	reqs, frames := wireSeeds(f)
	for _, s := range [][]byte{reqs, frames} {
		f.Add(s)
		f.Add(s[:len(s)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each decode that succeeds consumes input, so both loops end.
		c := &conn{dec: gob.NewDecoder(bytes.NewReader(data))}
		for {
			var fr frame
			if c.recv(&fr) != nil {
				break
			}
		}
		dec := gob.NewDecoder(bytes.NewReader(data))
		for {
			var r req
			if dec.Decode(&r) != nil {
				break
			}
		}
	})
}
