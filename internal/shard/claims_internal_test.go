package shard

// The coordinator checks what a worker claims. These tests run a pool over
// one scripted worker session: the test decides which frames answer each
// range request, so a worker can claim what a real one never would.

import (
	"context"
	"encoding/gob"
	"net"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/workloads"
)

// scriptedPool returns a pool of one worker session whose worker half
// answers each range request with the frames script returns for it. A
// replacement session is scripted alike; a session ends when the
// coordinator closes its side.
func scriptedPool(t *testing.T, script func(r req) []frame) *Pool {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				dec, enc := gob.NewDecoder(nc), gob.NewEncoder(nc)
				for {
					var r req
					if dec.Decode(&r) != nil {
						return
					}
					for _, f := range script(r) {
						if enc.Encode(&f) != nil {
							return
						}
					}
				}
			}()
		}
	}()
	p, err := newPool(1, func(int) (*conn, error) {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		return newConn(nc, nil), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// trials returns n made-up results; the pool never looks inside one.
func trials(n int) []campaign.TrialResult {
	trs := make([]campaign.TrialResult, n)
	for i := range trs {
		trs[i] = campaign.TrialResult{Outcome: fault.Benign, Cycles: 1}
	}
	return trs
}

// honest answers a range the way a worker does: its trials in two batches,
// then the ack.
func honest(r req) []frame {
	mid := (r.Lo + r.Hi + 1) / 2
	out := []frame{{Kind: frameTrials, CID: r.CID, Index: r.Lo, TRs: trials(mid - r.Lo)}}
	if mid < r.Hi {
		out = append(out, frame{Kind: frameTrials, CID: r.CID, Index: mid, TRs: trials(r.Hi - mid)})
	}
	return append(out, frame{Kind: frameRangeDone, CID: r.CID, Lo: r.Lo, Hi: r.Hi})
}

func claimsCampaign(t *testing.T) *campaign.Campaign {
	t.Helper()
	app, err := workloads.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	return campaign.New(app, campaign.PINFI, campaign.WithTrials(8), campaign.WithWorkers(1), campaign.WithCache(nil))
}

// TestScriptedWorkerMerges: the scripted session itself is sound — an honest
// script's batches merge into the whole campaign, with no death.
func TestScriptedWorkerMerges(t *testing.T) {
	p := scriptedPool(t, honest)
	res, err := p.Run(context.Background(), claimsCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 8 || res.Counts.Benign != 8 || res.Cycles != 8 || p.Deaths() != 0 {
		t.Fatalf("got %d trials, %+v, %d cycles, %d deaths; want 8 benign trials of one cycle, no death",
			res.Trials, res.Counts, res.Cycles, p.Deaths())
	}
}

// TestCoordinatorChecksWorkerClaims: a frame no honest worker sends fails
// the campaign with an error naming the worker, and the worker's session is
// stopped — an empty trial frame, trials outside the worker's assignment, a
// frame of unknown kind, and a range ack for trials that never arrived,
// which would otherwise settle the campaign short.
func TestCoordinatorChecksWorkerClaims(t *testing.T) {
	for _, tc := range []struct {
		name   string
		script func(r req) []frame
		want   string
	}{
		{"empty", func(r req) []frame {
			return []frame{{Kind: frameTrials, CID: r.CID, Index: r.Lo}}
		}, "worker 0 sent an empty trial frame"},
		{"past-the-range", func(r req) []frame {
			return []frame{{Kind: frameTrials, CID: r.CID, Index: r.Lo, TRs: trials(r.Hi - r.Lo + 1)}}
		}, "worker 0 sent trials [0, 3) of campaign 0, outside its assignment"},
		{"after-the-range", func(r req) []frame {
			return []frame{{Kind: frameTrials, CID: r.CID, Index: r.Hi, TRs: trials(1)}}
		}, "worker 0 sent trials [2, 3) of campaign 0, outside its assignment"},
		{"before-the-range", func(r req) []frame {
			return []frame{{Kind: frameTrials, CID: r.CID, Index: r.Lo - 1, TRs: trials(1)}}
		}, "worker 0 sent trials [-1, 0) of campaign 0, outside its assignment"},
		{"other-campaign", func(r req) []frame {
			return []frame{{Kind: frameTrials, CID: r.CID + 1, Index: r.Lo, TRs: trials(1)}}
		}, "worker 0 sent trials [0, 1) of campaign 1, outside its assignment"},
		{"unknown-kind", func(r req) []frame {
			return []frame{{Kind: frameExit + 1, CID: r.CID}}
		}, "worker 0 sent a frame of unknown kind 4"},
		{"ack-unsent", func(r req) []frame {
			return []frame{
				{Kind: frameTrials, CID: r.CID, Index: r.Lo, TRs: trials(1)},
				{Kind: frameRangeDone, CID: r.CID, Lo: r.Lo, Hi: r.Hi},
			}
		}, "worker 0 acknowledged trials [0, 2) with 1 of them never sent"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := scriptedPool(t, tc.script)
			res, err := p.Run(context.Background(), claimsCampaign(t))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = %+v, %v; want an error containing %q", res, err, tc.want)
			}
			if d := p.Deaths(); d != 1 {
				t.Fatalf("%d deaths, want 1: the worker's session is stopped", d)
			}
		})
	}
}
