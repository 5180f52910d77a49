package shard

import (
	"encoding/gob"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/workloads"
)

// introNode starts a worker node on a loopback port and returns a session
// helper: it sends one range request of a 4-trial EP/PINFI campaign, with
// the given wire version and harness build, closes its write side and
// returns every frame the worker sent back before it ended the session.
func introNode(t *testing.T) (session func(wire int, build string) []frame) {
	t.Helper()
	n, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go n.Serve()
	t.Cleanup(func() { n.Close() })
	app, err := workloads.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.New(app, campaign.PINFI, campaign.WithTrials(4), campaign.WithWorkers(1), campaign.WithCache(nil)).Spec()
	return func(wire int, build string) (frames []frame) {
		nc, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		enc := gob.NewEncoder(nc)
		if err := enc.Encode(&req{Wire: wire, CID: 1, Spec: spec, Build: build, Lo: 0, Hi: 4}); err != nil {
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
}

// count returns how many frames of kind k there are and, for frameTrials,
// how many trials they carry.
func count(frames []frame, k frameKind) (n, trials int) {
	for _, f := range frames {
		if f.Kind == k {
			n++
			trials += len(f.TRs)
		}
	}
	return n, trials
}

// TestWorkerRefusesForeignHarness: a worker compares the coordinator's
// harness build with its own. A range request from another build — a
// coordinator built from another revision — gets a frameErr naming both
// builds and runs no trial; the same request from the worker's own build, or
// from a coordinator that cannot name its build, runs the range.
func TestWorkerRefusesForeignHarness(t *testing.T) {
	const own, foreign = "1111111111111111111111111111111111111111", "2222222222222222222222222222222222222222+modified"
	defer func(orig func() string) { harnessBuild = orig }(harnessBuild)
	harnessBuild = func() string { return own }
	session := introNode(t)

	frames := session(wireVersion, foreign)
	if _, trials := count(frames, frameTrials); trials != 0 {
		t.Fatalf("foreign build: the worker ran %d trials: %+v", trials, frames)
	}
	if acks, _ := count(frames, frameRangeDone); acks != 0 {
		t.Fatalf("foreign build: the worker acknowledged the range: %+v", frames)
	}
	if len(frames) == 0 || frames[0].Kind != frameErr ||
		!strings.Contains(frames[0].Err, own) || !strings.Contains(frames[0].Err, foreign) {
		t.Fatalf("foreign build: want a frameErr naming both builds first, got %+v", frames)
	}

	for _, build := range []string{own, ""} {
		frames = session(wireVersion, build)
		errs, _ := count(frames, frameErr)
		_, trials := count(frames, frameTrials)
		acks, _ := count(frames, frameRangeDone)
		if errs != 0 || trials != 4 || acks != 1 {
			t.Fatalf("build %q: want 4 trials and the range ack, no error; got %+v", build, frames)
		}
	}
}

// TestWorkerRefusesForeignWireVersion: a range request of another wire
// version — a coordinator of another revision, or one from before requests
// carried the version (0) — gets a frameErr naming both versions and runs no
// trial, whatever harness build either side names.
func TestWorkerRefusesForeignWireVersion(t *testing.T) {
	session := introNode(t)
	for _, wire := range []int{0, wireVersion + 1} {
		frames := session(wire, "")
		if _, trials := count(frames, frameTrials); trials != 0 {
			t.Fatalf("wire %d: the worker ran %d trials: %+v", wire, trials, frames)
		}
		if acks, _ := count(frames, frameRangeDone); acks != 0 {
			t.Fatalf("wire %d: the worker acknowledged the range: %+v", wire, frames)
		}
		if len(frames) == 0 || frames[0].Kind != frameErr ||
			!strings.Contains(frames[0].Err, fmt.Sprintf("wire version %d, the coordinator %d", wireVersion, wire)) {
			t.Fatalf("wire %d: want a frameErr naming both versions first, got %+v", wire, frames)
		}
	}
}
