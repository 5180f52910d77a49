package shard

// FuzzWireFrames feeds arbitrary bytes to both ends of the session protocol:
// as a worker→coordinator frame stream, decoded as the pool's reader decodes
// it, and as a coordinator→worker req stream, decoded as a worker session
// decodes it. Either stream arrives from a peer over a socket, so decoding
// must end in an error — never a panic or a hang. The seeds are real streams
// encoded here from a small campaign: requests and every frame kind, whole
// and truncated, and three trial batches — one trial, the whole range, and
// the whole range cut short. Run with
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
// campaign — its spec, trial results, profile and cache counters — and the
// trial batches a worker ships for the campaign's range, each on a stream of
// its own.
func wireSeeds(f *testing.F) (reqs, frames []byte, batches [][]byte) {
	const n = 8
	app, err := workloads.ByName("CG")
	if err != nil {
		f.Fatal(err)
	}
	cache := campaign.NewCache()
	var trs []campaign.TrialResult
	c := campaign.New(app, campaign.PINFI, campaign.WithTrials(n), campaign.WithCache(cache),
		campaign.WithObserver(func(_ int, tr campaign.TrialResult) { trs = append(trs, tr) }))
	res, err := c.Run(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	spec := c.Spec()
	encode := func(vs ...any) []byte {
		var b bytes.Buffer
		enc := gob.NewEncoder(&b)
		for _, v := range vs {
			if err := enc.Encode(v); err != nil {
				f.Fatal(err)
			}
		}
		return b.Bytes()
	}

	reqs = encode(
		&req{Wire: wireVersion, Index: 1, CID: 4, Spec: spec, Build: "0123abcd+modified", Lo: 0, Hi: n},
		&req{Wire: wireVersion, Index: 1, CID: 5, Spec: spec, Lo: 1, Hi: 2})
	cs := counters{Stats: cache.Stats(), Phases: cache.Phases()}
	frames = encode(
		&frame{Kind: frameTrials, CID: 4, Index: 0, TRs: trs[:3]},
		&frame{Kind: frameTrials, CID: 4, Index: 3, TRs: trs[3:]},
		&frame{Kind: frameRangeDone, CID: 4, Lo: 0, Hi: n, Profile: res.Profile, Counters: cs},
		&frame{Kind: frameErr, CID: 5, Err: "worker 1 runs harness build x, the coordinator y"},
		&frame{Kind: frameExit, Counters: cs})
	whole := encode(&frame{Kind: frameTrials, CID: 4, Index: 0, TRs: trs})
	batches = [][]byte{
		encode(&frame{Kind: frameTrials, CID: 4, Index: 5, TRs: trs[5:6]}),
		whole,
		whole[:len(whole)*2/3],
	}
	return reqs, frames, batches
}

func FuzzWireFrames(f *testing.F) {
	reqs, frames, batches := wireSeeds(f)
	for _, s := range [][]byte{reqs, frames} {
		f.Add(s)
		f.Add(s[:len(s)/2])
	}
	for _, b := range batches {
		f.Add(b)
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
