package shard

import (
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/campaign"
)

// Wire format. Both directions are gob streams over the worker's session
// socket — a local worker's socketpair or a TCP connection to a worker node;
// the frames are identical either way (see transport.go):
//
//	coordinator → worker: a stream of req messages, each assigning one trial
//	    index range [Lo, Hi) and carrying all the worker needs to run it —
//	    the wire version, the campaign's Spec under a small integer id, the
//	    coordinator's harness build and the session's shard index. The
//	    worker keeps no per-campaign state between requests. Closing the
//	    write side tells the worker to finish up: it ships a final frameExit
//	    with its counters and ends the session (a local worker then exits).
//
//	worker → coordinator: a stream of frames. Running a range produces
//	    frameTrials, each carrying consecutive trial results (Index, TRs) in
//	    trial order — the order-deterministic observer's stream, cut into
//	    batches: the worker ships its batch when a trial lands batchWindow or
//	    more after its previous frame, and when the range ends. Then one
//	    frameRangeDone echoes [Lo, Hi) with the campaign's golden-run profile
//	    (builds are byte-stable across processes, so every worker derives the
//	    identical profile) and the worker's cumulative counters — cache and
//	    phase throughput. A campaign-fatal error (unknown app, build
//	    failure, a coordinator of another wire version or built from another
//	    revision) is one frameErr; the batch is shipped before it.
//	    Every frame is progress: each pushes the session's read deadline one
//	    trial's worth ahead, and a healthy worker is silent for at most
//	    batchWindow plus one trial, so one that sends nothing before the
//	    deadline passes is taken for hung.
//
// The coordinator feeds each frameTrials to the campaign's Merger in one
// call, the ordered sink in-process runs feed too: frames may interleave
// across workers in any order, duplicates from reassigned ranges are
// dropped, and the merged Counts/Cycles/observer stream come out
// bit-identical to an unsharded run. It checks what a worker claims: an
// empty trial frame, one outside the worker's assignment, a frame of unknown
// kind, or a range ack for trials it never sent fails the campaign naming
// the worker, and the worker's session is stopped.

// wireVersion numbers the layout of req and frame. A worker answers a
// request of another version with a frameErr naming both, so a coordinator
// and worker of different revisions fail by name instead of misreading each
// other's frames. A request from before the field existed decodes as 0.
const wireVersion = 1

// batchWindow bounds how long a worker holds finished trials: a trial that
// lands this long after the worker's previous frame ships with its batch.
const batchWindow = 4 * time.Millisecond

// req is the one coordinator→worker message: run trial range [Lo, Hi) of
// campaign CID. Wire is the coordinator's wireVersion. Build is the
// coordinator's harnessBuild(): a worker that knows its own build and finds
// it differs refuses the range with a frameErr naming both, since its trials
// would silently differ.
type req struct {
	Wire   int
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
	// frameTrials carries the results of trials Index, Index+1, … (TRs, at
	// least one).
	frameTrials frameKind = iota
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
	Index    int                    // frameTrials: the first trial's index
	TRs      []campaign.TrialResult // frameTrials
	Profile  *campaign.Profile      // frameRangeDone
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
