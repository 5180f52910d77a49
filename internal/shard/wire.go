package shard

import (
	"runtime/debug"
	"sync"

	"repro/internal/campaign"
)

// Wire format. Both directions are gob streams over the worker's session
// socket — a local worker's socketpair or a TCP connection to a worker node;
// the frames are identical either way (see transport.go):
//
//	coordinator → worker: a stream of req messages, each assigning one trial
//	    index range [Lo, Hi) and carrying all the worker needs to run it —
//	    the campaign's Spec under a small integer id, the coordinator's
//	    harness build and the session's shard index. The worker keeps no
//	    per-campaign state between requests. Closing the write side tells
//	    the worker to finish up: it ships a final frameExit with its counters
//	    and ends the session (a local worker then exits).
//
//	worker → coordinator: a stream of frames. Running a range
//	    produces one frameTrial per trial — (Index, TrialResult), exactly
//	    the order-deterministic observer's callback shape, in trial order —
//	    then one frameRangeDone echoing [Lo, Hi) with the campaign's
//	    golden-run profile (builds are byte-stable across processes, so
//	    every worker derives the identical profile) and the worker's
//	    cumulative counters — cache and phase throughput.
//	    A campaign-fatal error (unknown app, build failure, a coordinator
//	    built from another revision) is one frameErr.
//	    Every frame is progress: each pushes the session's read deadline one
//	    trial's worth ahead, and a worker that sends nothing before it
//	    passes is taken for hung.
//
// The coordinator feeds frameTrial streams to the campaign's Merger, the
// ordered sink in-process runs feed too: frames may interleave across workers
// in any order, duplicates from reassigned ranges are dropped, and the merged
// Counts/Cycles/observer stream come out bit-identical to an unsharded run.

// req is the one coordinator→worker message: run trial range [Lo, Hi) of
// campaign CID. Build is the coordinator's harnessBuild(): a worker that
// knows its own build and finds it differs refuses the range with a
// frameErr naming both, since its trials would silently differ.
type req struct {
	Index  int // the pool's shard index for this worker session
	CID    int
	Spec   campaign.Spec
	Build  string
	Lo, Hi int
}

// harnessBuild names the source revision this binary was built from, as the
// Go toolchain stamps it into every binary built in a git checkout:
// vcs.revision, plus "+modified" for a dirty tree. Every fi-* driver built
// from one checkout shares it — fi-serve coordinating fi-campaign nodes —
// where Spec.Key's executable hash differs between any two drivers. It is ""
// for a binary without the stamp (go run, test binaries, a build outside a
// checkout): such a process cannot name its build, and the check passes.
// Two builds of one revision with different uncommitted edits share a name.
// A variable so a test can give the worker a build.
var harnessBuild = sync.OnceValue(func() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" && modified == "true" {
		rev += "+modified"
	}
	return rev
})

// rangeReq is the coordinator's record of trial index range [Lo, Hi) of
// campaign CID, pending or assigned. Retries counts how many workers died
// holding it — the per-range slice of the retry budget; it never travels.
type rangeReq struct {
	CID     int
	Lo, Hi  int
	Retries int
}

type frameKind uint8

const (
	// frameTrial carries one trial result: (Index, TR).
	frameTrial frameKind = iota
	// frameRangeDone acknowledges completion of [Lo, Hi) with the
	// campaign's Profile, and the worker's cumulative counters piggybacked
	// for the drivers' report.
	frameRangeDone
	// frameErr reports a campaign-fatal worker error (Err).
	frameErr
	// frameExit is the worker's sign-off after the coordinator closes its
	// write side: final counters, then the session ends.
	frameExit
)

// frame is one worker→coordinator message.
type frame struct {
	Kind     frameKind
	CID      int
	Index    int
	TR       campaign.TrialResult
	Profile  *campaign.Profile // frameRangeDone
	Lo, Hi   int
	Err      string
	Counters counters // frameRangeDone, frameExit
}

// counters are a worker session's cumulative counters, summed over its
// caches: what the drivers' "# shard-cache:" and "# speed:" lines report for
// a pool, which sums its workers' last-shipped copies. No section counter
// travels: a worker's campaigns are rebuilt from a Spec and never compose.
type counters struct {
	Stats  campaign.CacheStats
	Phases campaign.PhaseStats
}

func (c *counters) add(o counters) {
	c.Stats.Add(o.Stats)
	c.Phases.Add(o.Phases)
}
