package shard

import (
	"encoding/gob"
	"net"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/workloads"
)

// TestWorkerRefusesForeignHarness: a worker compares the coordinator's
// harness build with its own. A range request from another build — a
// coordinator built from another revision — gets a frameErr naming both
// builds and runs no trial; the same request from the worker's own build, or
// from a coordinator that cannot name its build, runs the range.
func TestWorkerRefusesForeignHarness(t *testing.T) {
	const own, foreign = "1111111111111111111111111111111111111111", "2222222222222222222222222222222222222222+modified"
	defer func(orig func() string) { harnessBuild = orig }(harnessBuild)
	harnessBuild = func() string { return own }

	n, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go n.Serve()
	defer n.Close()
	app, err := workloads.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.New(app, campaign.PINFI, campaign.WithTrials(4), campaign.WithWorkers(1), campaign.WithCache(nil)).Spec()
	session := func(build string) (frames []frame) {
		nc, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		enc := gob.NewEncoder(nc)
		if err := enc.Encode(&req{CID: 1, Spec: spec, Build: build, Lo: 0, Hi: 4}); err != nil {
			t.Fatal(err)
		}
		nc.(*net.TCPConn).CloseWrite() // the session ends after the range
		dec := gob.NewDecoder(nc)
		for {
			var f frame
			if dec.Decode(&f) != nil {
				return frames
			}
			frames = append(frames, f)
		}
	}
	count := func(frames []frame, k frameKind) (n int) {
		for _, f := range frames {
			if f.Kind == k {
				n++
			}
		}
		return n
	}

	frames := session(foreign)
	if count(frames, frameTrial) != 0 || count(frames, frameRangeDone) != 0 {
		t.Fatalf("foreign build: the worker ran the range: %+v", frames)
	}
	if len(frames) == 0 || frames[0].Kind != frameErr ||
		!strings.Contains(frames[0].Err, own) || !strings.Contains(frames[0].Err, foreign) {
		t.Fatalf("foreign build: want a frameErr naming both builds first, got %+v", frames)
	}

	for _, build := range []string{own, ""} {
		frames = session(build)
		if count(frames, frameErr) != 0 || count(frames, frameTrial) != 4 || count(frames, frameRangeDone) != 1 {
			t.Fatalf("build %q: want 4 trials and the range ack, no error; got %+v", build, frames)
		}
	}
}
