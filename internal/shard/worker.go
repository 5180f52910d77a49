package shard

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/workloads"
)

// workerEnv marks a process as a re-exec'd local shard worker. The
// coordinator sets it when spawning os.Executable(), so the same mechanism
// works for the fi-* drivers and for test binaries (whose TestMain calls
// MaybeWorker).
const workerEnv = "FI_SHARD_WORKER"

// workerFD is the descriptor a local worker's session socket arrives on: the
// first of exec.Cmd.ExtraFiles.
const workerFD = 3

// listenEnv, when set, turns MaybeWorker into a TCP worker node listening on
// the given address — how tests re-exec themselves as node processes. The
// node prints "FI_SHARD_ADDR host:port" on stdout once the listener is up
// (the parent reads the resolved port when asked for :0).
const listenEnv = "FI_SHARD_LISTEN"

// MaybeWorker turns this process into a shard worker when a re-exec marker
// is set: the worker marker (FI_SHARD_WORKER) serves one session on the
// socket inherited as fd 3 and exits when the coordinator closes it — or dies
// with it; the node marker (FI_SHARD_LISTEN) serves sessions over TCP until
// killed. Call it first thing in main() — and in TestMain of any test binary
// that spawns a Pool — before flags or tests run. It returns (without side
// effects) in ordinary processes.
func MaybeWorker() {
	if addr := os.Getenv(listenEnv); addr != "" {
		err := ListenAndServe(addr, func(a string) {
			fmt.Fprintf(os.Stdout, "FI_SHARD_ADDR %s\n", a)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "shard node:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if os.Getenv(workerEnv) == "" {
		return
	}
	f := os.NewFile(workerFD, "shard")
	nc, err := net.FileConn(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "shard worker:", err)
		os.Exit(1)
	}
	serveSession(nc)
	os.Exit(0)
}

// Node is a TCP worker node: a listener whose every accepted connection is
// served as an independent worker session until the peer disconnects. One
// node serves any number of coordinators and sessions concurrently; sessions
// are as isolated as local worker processes (private in-memory caches), and
// share builds through the content-addressed disk cache when the campaign
// spec names a CacheDir.
type Node struct {
	ln net.Listener
}

// Listen opens a worker-node listener on addr ("host:port"; port 0 picks a
// free port — read it back from Addr).
func Listen(addr string) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shard: listen %s: %w", addr, err)
	}
	return &Node{ln: ln}, nil
}

// Addr returns the node's resolved listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close stops the listener; Serve returns. In-flight sessions finish on
// their own connections.
func (n *Node) Close() error { return n.ln.Close() }

// Serve accepts coordinator connections until the listener closes, serving
// each as a worker session in its own goroutine. An armed
// shard.transport.accept fault drops the fresh connection instead of serving
// it — the coordinator's dial succeeded but the session never speaks, so its
// reader EOFs and the spawn retries.
func (n *Node) Serve() error {
	for {
		nc, err := n.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("shard: accept: %w", err)
		}
		if cerr := chaos.Err("shard.transport.accept"); cerr != nil {
			fmt.Fprintf(os.Stderr, "shard node: dropping connection: %v\n", cerr)
			nc.Close()
			continue
		}
		go serveSession(nc)
	}
}

// ListenAndServe runs a worker node on addr until the process dies, announcing
// the resolved address through ready (nil ⇒ a stderr line). fi-campaign
// -shard-listen lands here.
func ListenAndServe(addr string, ready func(addr string)) error {
	n, err := Listen(addr)
	if err != nil {
		return err
	}
	if ready == nil {
		ready = func(a string) { fmt.Fprintf(os.Stderr, "shard node: listening on %s\n", a) }
	}
	ready(n.Addr())
	return n.Serve()
}

// serveSession runs the worker half of the wire protocol on one session —
// a local worker's inherited socket or a connection a node accepted: decode
// range requests, run each through the ordinary campaign machinery, and
// stream batches of trial results back. It returns when the coordinator
// closes its write side (the clean drain: a final frameExit carries the
// counters) or the session breaks. A failed send cancels the session
// context, so a range whose frames have nowhere to go stops instead of
// burning the worker's cores; the coordinator reassigns whatever was left.
func serveSession(nc net.Conn) {
	defer nc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &worker{
		dec:    gob.NewDecoder(nc),
		enc:    gob.NewEncoder(&tearWriter{nc: nc}),
		cancel: cancel,
		caches: map[string]*campaign.Cache{},
	}
	if err := w.serve(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "shard: worker session %d: %v\n", w.index, err)
	}
}

// tearWriter is the worker-side chaos seam for torn frames: when a
// shard.transport.send tear fault fires, it flushes only half of the pending
// write and closes the session — the coordinator sees a mid-frame gob error,
// exactly as if the worker died between two write(2) calls. A local worker
// then exits; a node survives, only the session dies.
type tearWriter struct{ nc net.Conn }

func (t *tearWriter) Write(p []byte) (int, error) {
	if len(p) > 1 && chaos.Tearing("shard.transport.send") {
		t.nc.Write(p[:len(p)/2])
		fmt.Fprintln(os.Stderr, "chaos: shard.transport.send: torn frame, closing the session")
		t.nc.Close()
		return 0, net.ErrClosed
	}
	return t.nc.Write(p)
}

// sessionClosed reports whether a session decode error is a clean peer
// disconnect rather than a protocol failure.
func sessionClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF)
}

// worker is the per-session state: one build/profile cache per cache
// directory (plus one session-private memory cache for dirless specs), which
// a session's later ranges and campaigns reuse.
type worker struct {
	dec    *gob.Decoder
	enc    *gob.Encoder
	cancel context.CancelFunc // the session context's: fired by the first failed send
	index  int                // shard index from the latest req
	caches map[string]*campaign.Cache

	sendMu sync.Mutex // serializes enc: trial frames come from the executor's deliverer
	encErr error
	sent   time.Time // when the latest frame went out
}

// serve is the session loop: decode reqs, run ranges, stream frames until
// the peer goes away.
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
		w.index = r.Index
		w.runRange(ctx, &r)
		if ctx.Err() != nil {
			// The session broke mid-range: the claimed range drained what it
			// could; leave the rest to reassignment.
			return nil
		}
	}
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
	w.sent = time.Now()
	w.sendMu.Unlock()
	// Cancel outside the critical section: cancellation callbacks must never
	// run under the same lock the trial stream sends through.
	if failed {
		w.cancel()
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

// runRange executes trial range [Lo, Hi) of the request's campaign,
// collecting the trials from inside the campaign's ordered observer into
// batches — shipped when a trial lands batchWindow or more after the
// previous frame, and before the range's last frame — then the range ack
// carrying the profile. It refuses the range when the coordinator speaks
// another wire version, or when the coordinator and this worker both name
// their harness build and the names differ: the worker runs another
// revision, whose trials would silently differ. shard.worker.range and
// shard.worker.trial are chaos seams: the former fires per assignment, the
// latter per trial with the absolute trial index as its PointN argument, so
// a test can hang/crash/kill this worker at an exact trial.
func (w *worker) runRange(ctx context.Context, r *req) {
	chaos.Point("shard.worker.range")
	batch := frame{Kind: frameTrials, CID: r.CID}
	flush := func() {
		if len(batch.TRs) > 0 {
			w.send(&batch)
			batch.TRs = batch.TRs[:0]
		}
	}
	fail := func(err error) {
		flush()
		w.send(&frame{Kind: frameErr, CID: r.CID, Err: err.Error()})
	}
	if r.Wire != wireVersion {
		fail(fmt.Errorf("shard: worker %d speaks wire version %d, the coordinator %d", w.index, wireVersion, r.Wire))
		return
	}
	if own := harnessBuild(); own != "" && r.Build != "" && own != r.Build {
		fail(fmt.Errorf("shard: worker %d runs harness build %s, the coordinator %s", w.index, own, r.Build))
		return
	}
	app, err := workloads.ByName(r.Spec.App)
	if err != nil {
		fail(err)
		return
	}
	cache, err := w.cache(r.Spec.CacheDir)
	if err != nil {
		fail(err)
		return
	}
	cam, err := campaign.NewFromSpec(r.Spec, app, r.Lo, r.Hi, cache, func(i int, tr campaign.TrialResult) {
		chaos.PointN("shard.worker.trial", int64(i))
		if len(batch.TRs) == 0 {
			batch.Index = i
		}
		batch.TRs = append(batch.TRs, tr)
		if time.Since(w.sent) >= batchWindow {
			flush()
		}
	})
	if err != nil {
		fail(err)
		return
	}
	res, err := cam.Run(ctx)
	if err != nil {
		if ctx.Err() == nil { // else the session broke: nothing more reaches the coordinator
			fail(err)
		}
		return
	}
	flush()
	w.send(&frame{Kind: frameRangeDone, CID: r.CID, Lo: r.Lo, Hi: r.Hi,
		Profile: res.Profile, Counters: w.counters()})
}
