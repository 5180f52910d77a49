package shard

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/workloads"
)

// workerEnv marks a process as a re-exec'd shard worker. The coordinator
// sets it when spawning os.Executable(), so the same mechanism works for the
// fi-* drivers and for test binaries (whose TestMain calls MaybeWorker).
const workerEnv = "FI_SHARD_WORKER"

// MaybeWorker turns this process into a shard worker when the re-exec
// marker is set — the stdio marker (FI_SHARD_WORKER) runs the wire protocol
// on stdin/stdout and exits when the coordinator closes the pipe; the node
// marker (FI_SHARD_LISTEN) serves worker sessions over TCP until killed.
// Call it first thing in main() — and in TestMain of any test binary that
// spawns a Pool — before flags or tests run. It returns (without side
// effects) in ordinary processes.
func MaybeWorker() {
	maybeNode()
	if os.Getenv(workerEnv) == "" {
		return
	}
	if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "shard worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// WorkerMain runs the worker half of the wire protocol: decode spec and
// range assignments from in, run each assigned range through the ordinary
// campaign.New(...).Run machinery, and stream (index, TrialResult) frames
// to out. It returns when the coordinator closes in (normal drain) or the
// process receives SIGTERM/SIGINT — then the current range's claimed trials
// finish shipping their contiguous prefix, a final frameExit carries the
// counters, and the coordinator reassigns whatever was left. Every range ack
// carries them too: the worker's cache and phase counters, summed over its
// caches, are how the coordinator reports work it did not do.
//
// TCP worker-node sessions (transport_tcp.go) run the identical session loop
// over their connection; only the stop signal differs — connection close
// instead of SIGTERM.
func WorkerMain(in io.Reader, out io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	return newWorker(in, &tearWriter{w: out}).serve(ctx)
}

// worker is the per-session protocol state: introduced specs, one
// build/profile cache per cache directory (plus one session-private memory
// cache for dirless specs), and which campaigns already shipped a profile.
type worker struct {
	dec      *gob.Decoder
	enc      *gob.Encoder
	index    int // shard index from the session hello (stdio: from the env)
	specs    map[int]campaign.Spec
	caches   map[string]*campaign.Cache
	profiled map[int]bool

	sendMu sync.Mutex // serializes enc: trial frames come from the executor's deliverer
	encErr error

	// onSendErr, when set, fires once when the first encode error latches —
	// TCP sessions cancel their context here so a range whose frames have
	// nowhere to go stops running instead of burning the node until the
	// decode loop notices the dead conn.
	onSendErr func()
}

// newWorker builds the session state over a decode source and an encode sink
// (the sink is pre-wrapped with the transport's tear seam).
func newWorker(in io.Reader, out io.Writer) *worker {
	return &worker{
		dec:    gob.NewDecoder(in),
		enc:    gob.NewEncoder(out),
		specs:  map[int]campaign.Spec{},
		caches: map[string]*campaign.Cache{},
	}
}

// serve is the session loop shared by stdio workers and TCP node sessions:
// decode reqs, run ranges, stream frames until the peer goes away.
func (w *worker) serve(ctx context.Context) error {
	for {
		var r req
		if err := w.dec.Decode(&r); err != nil {
			w.sendExit()
			if sessionClosed(err) {
				return nil
			}
			return fmt.Errorf("decode: %w", err)
		}
		switch {
		case r.Hello != nil:
			w.index = r.Hello.Index
		case r.Spec != nil:
			w.introduce(r.Spec)
		case r.Range != nil:
			w.runRange(ctx, r.Range)
			if ctx.Err() != nil {
				// Stopped (SIGTERM, or a dead conn): the claimed range drained
				// what it could (its delivered prefix is on the wire); leave
				// the rest to reassignment.
				w.sendExit()
				return nil
			}
		}
	}
}

// introduce records a campaign spec, unless the coordinator and this worker
// both name their harness build and the names differ: then the worker runs
// another revision, whose trials would silently differ, and it refuses the
// campaign instead (the range that follows is refused too, as one for an
// unknown campaign id).
func (w *worker) introduce(in *specIntro) {
	if own := harnessBuild(); own != "" && in.Build != "" && own != in.Build {
		w.send(&frame{Kind: frameErr, CID: in.CID, Err: fmt.Sprintf(
			"shard: worker %d runs harness build %s, the coordinator %s",
			w.index, own, in.Build)})
		return
	}
	w.specs[in.CID] = in.Spec
}

// tearWriter is the stdio chaos seam for torn frames: when a
// shard.worker.send tear fault fires, it flushes only half of the pending
// write and dies — the coordinator sees a mid-frame gob error, exactly as if
// the worker crashed between two write(2) calls.
type tearWriter struct{ w io.Writer }

func (t *tearWriter) Write(p []byte) (int, error) {
	if len(p) > 1 && chaos.Tearing("shard.worker.send") {
		t.w.Write(p[:len(p)/2])
		fmt.Fprintln(os.Stderr, "chaos: shard.worker.send: torn frame, exiting")
		os.Exit(3)
	}
	return t.w.Write(p)
}

// send encodes one frame, latching the first encode error (a vanished
// coordinator): after that the worker just drains. Safe for concurrent use.
func (w *worker) send(f *frame) {
	w.sendMu.Lock()
	if w.encErr != nil {
		w.sendMu.Unlock()
		return
	}
	w.encErr = w.enc.Encode(f)
	failed := w.encErr != nil
	w.sendMu.Unlock()
	// Fire the failure hook outside the critical section: onSendErr cancels
	// the session context, and cancellation callbacks must never run under
	// the same lock the trial stream sends through.
	if failed && w.onSendErr != nil {
		w.onSendErr()
	}
}

func (w *worker) sendExit() {
	w.send(&frame{Kind: frameExit, Counters: w.counters()})
}

// counters sums the counters of the worker's caches.
func (w *worker) counters() (sum counters) {
	for _, c := range w.caches {
		sum.add(counters{Stats: c.Stats(), Phases: c.Phases()})
	}
	return sum
}

// cache resolves the build/profile cache for a spec: the shared disk cache
// rooted at its CacheDir, or a session-private memory cache. One instance per
// directory per session, so a worker's later ranges and campaigns reuse
// earlier builds in memory.
func (w *worker) cache(dir string) (*campaign.Cache, error) {
	if c, ok := w.caches[dir]; ok {
		return c, nil
	}
	var (
		c   *campaign.Cache
		err error
	)
	if dir == "" {
		c = campaign.NewCache()
	} else if c, err = campaign.NewDiskCache(dir); err != nil {
		return nil, err
	}
	w.caches[dir] = c
	return c, nil
}

// runRange executes trial range [Lo, Hi) of an introduced campaign,
// streaming each trial as a frame from inside the campaign's ordered
// observer, then the profile (once per campaign) and the range ack.
// shard.worker.range and shard.worker.trial are chaos seams: the former
// fires per assignment, the latter per trial with the absolute trial index
// as its PointN argument, so a test can hang/crash/kill this worker at an
// exact frame.
func (w *worker) runRange(ctx context.Context, r *rangeReq) {
	chaos.Point("shard.worker.range")
	fail := func(err error) {
		w.send(&frame{Kind: frameErr, CID: r.CID, Err: err.Error()})
	}
	s, ok := w.specs[r.CID]
	if !ok {
		fail(fmt.Errorf("shard: range for unknown campaign id %d", r.CID))
		return
	}
	app, err := workloads.ByName(s.App)
	if err != nil {
		fail(err)
		return
	}
	cache, err := w.cache(s.CacheDir)
	if err != nil {
		fail(err)
		return
	}
	cam, err := campaign.NewFromSpec(s, app, r.Lo, r.Hi, cache, func(i int, tr campaign.TrialResult) {
		chaos.PointN("shard.worker.trial", int64(i))
		w.send(&frame{Kind: frameTrial, CID: r.CID, Index: i, TR: tr})
	})
	if err != nil {
		fail(err)
		return
	}
	res, err := cam.Run(ctx)
	if err != nil {
		if ctx.Err() != nil {
			// Stopped mid-range: the partial prefix is already on the wire;
			// still ship the profile (the coordinator may have no other
			// worker that completed a range), then let the exit path report.
			// The range itself is left for reassignment.
			if res != nil {
				w.sendProfile(r.CID, res.Profile)
			}
			return
		}
		fail(err)
		return
	}
	w.sendProfile(r.CID, res.Profile)
	w.send(&frame{Kind: frameRangeDone, CID: r.CID, Lo: r.Lo, Hi: r.Hi, Counters: w.counters()})
}

// sendProfile ships a campaign's golden-run profile once per session.
func (w *worker) sendProfile(cid int, p *campaign.Profile) {
	if p == nil || w.profiled[cid] {
		return
	}
	if w.profiled == nil {
		w.profiled = map[int]bool{}
	}
	w.profiled[cid] = true
	w.send(&frame{Kind: frameProfile, CID: cid, Profile: p})
}
