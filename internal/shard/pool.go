// Package shard fans campaigns out across worker processes and machines: a
// coordinator dials workers through a Transport — re-execing this same
// binary over stdio (the single-machine default, marked by the
// FI_SHARD_WORKER environment variable), or TCP sessions to long-lived
// worker nodes (fi-campaign -shard-listen / NewTCPPool) — partitions each
// campaign's trial index space into claimable ranges, and merges the
// workers' trial streams back through the campaign collector.
//
// Guarantees, in the same contract language as internal/sched:
//
//   - Determinism: the coordinator only decides where a trial runs, never
//     what it computes — trial i is always seeded TrialSeed(seed, tool, i),
//     frames are merged through the order-deterministic collector, and
//     Counts, Cycles, Records and the observer stream are bit-identical to
//     an in-process run for any shard count and either transport (the
//     equivalence matrix in internal/experiments runs shards ∈ {1, 2, 4}
//     over stdio and TCP against one in-process reference).
//
//   - Cache sharing: workers given the same cache directory share one
//     content-addressed disk cache; the first process to build an app×tool
//     persists it via atomic rename, the rest restore from disk, and a warm
//     directory yields builds=0 across every worker process. The sharing is
//     of build entries only: a worker runs its ranges as campaigns rebuilt
//     from a Spec, which neither read nor write section entries (identical
//     reruns are the coordinator's journal's). Each worker ships its caches'
//     counters (builds and hits, phase throughput) on every range ack and on
//     exit; Stats and Phases sum the fleet's.
//
//   - Concurrency: any number of campaigns may Run on one pool at once
//     (multi-tenant suites, the fi-serve daemon). Range assignment
//     round-robins across the active campaigns, so every tenant makes
//     proportional progress — one campaign's build tail no longer leaves
//     workers idle when another has runnable ranges — and each tenant's
//     result is bit-identical to running alone (its merger only ever sees
//     its own frames, routed by campaign id).
//
//   - Cancellation: cancelling a Run context stops assignment for that
//     campaign; claimed ranges drain (their trials finish shipping), so the
//     delivered set stays a contiguous prefix and Run returns the partial
//     result exactly as the in-process runner does. Other campaigns on the
//     pool are unaffected.
//
//   - Resilience: a worker that dies mid-range (SIGTERM, crash, SIGKILL,
//     torn frame, dropped connection, dead worker node) has its claimed
//     range reassigned to a live worker — duplicate frames from the dead
//     worker's partial delivery are dropped by the merger — and a
//     replacement worker is dialed under a bounded budget. A worker that
//     goes *silent* (alive but making no progress) is detected by the
//     monitor — every frame a worker sends refreshes its range deadline —
//     then terminated (SIGTERM, or a connection close for TCP) and, after a
//     grace period, killed, feeding the same reassignment path. A range
//     that keeps killing workers is split into single-trial ranges to
//     isolate the poison trial, and a single trial that exhausts its retry
//     budget is recorded as a fault.HarnessFault outcome instead of looping
//     forever. All of this is exercised deterministically by the chaos
//     suite (internal/chaos).
//
// Pool.Run is the only way a campaign reaches the workers: callers open a
// pool (NewPool, NewTCPPool, or OpenPool from the fi-* drivers' -shards /
// -shard-nodes) and hand it campaigns; suites pass it as
// experiments.Config.Pool.
package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/workloads"
)

// Retry budget: a range that kills SplitAfter workers is split into
// single-trial ranges (only not-yet-shipped indexes), and a single-trial
// range whose cumulative retries exceed SplitAfter+MaxTrialRetries is given
// up — its trial is recorded as fault.HarnessFault. The budget counts worker
// deaths while holding the range, so one flaky death costs nothing and a
// deterministically fatal trial is isolated and reported after a handful of
// kills instead of grinding the pool forever.
const (
	SplitAfter      = 2
	MaxTrialRetries = 2
)

const (
	defaultStall = 30 * time.Second
	defaultGrace = 2 * time.Second
	// slowInstrPerSec is the pessimistic VM throughput floor used to derive
	// a per-trial progress deadline from the cost model's trial budget; the
	// real VM is orders of magnitude faster, so only a genuinely wedged
	// worker can miss the deadline.
	slowInstrPerSec = 8 << 20
)

// spawnRetry bounds worker spawn attempts (fork/exec and network dials can
// fail transiently under fd, pid, or connection pressure).
var spawnRetry = backoff.Default()

// Pool is a set of live worker connections campaigns fan out over. Create
// with NewPool (stdio re-exec workers) or NewTCPPool (remote worker nodes),
// run any number of campaigns through Run — concurrently if you like; the
// pool round-robins range assignment across active campaigns — and Close to
// drain and reap the workers.
type Pool struct {
	runMu sync.RWMutex // Run holds the read side for its duration; Close excludes

	transport  Transport
	stall      time.Duration // silent-worker deadline floor
	stallFixed bool          // tests: stall is the deadline, no cost-model scale-up
	grace      time.Duration // terminate → kill escalation grace

	mu            sync.Mutex
	workers       []*proc
	nextIndex     int // shard index of the next spawned worker (never reused)
	nextCID       int
	runs          map[int]*runState // active campaigns by cid
	runOrder      []int             // cids in admission order (fair-share scan order)
	rrNext        int               // round-robin cursor into runOrder
	closed        bool
	respawnBudget int // replacement spawns left (bounds a crash loop)
	respawning    int // spawns in flight (holds off the all-dead verdict)
	deaths        int
}

// proc is one worker connection and its coordinator-side bookkeeping.
type proc struct {
	index       int // shard index: stderr prefix, chaos w= filter
	conn        Conn
	dead        bool
	condemned   bool      // monitor declared it hung; kill escalation running
	cur         *rangeReq // outstanding assignment (nil ⇒ idle)
	lastAdvance time.Time // last frame received (or range assigned)
	knows       map[int]bool
	last        counters // as of the worker's latest range ack or exit
	readerDone  chan struct{}
}

// runState tracks one campaign's fan-out.
type runState struct {
	cid       int
	ctx       context.Context
	spec      campaign.Spec
	merger    *campaign.Merger
	pending   []rangeReq // unclaimed ranges, ascending Lo
	total     int        // ranges overall (grows when a fatal range splits)
	done      int        // ranges acked or given up
	budget    int64      // cost-model instruction budget per trial (from the profile)
	cancelled bool       // stop assigning (ctx cancel or fatal error)
	err       error
	settled   bool
	finished  chan struct{}
}

// prefixWriter tags every stderr line a worker writes with its shard index,
// so interleaved multi-worker diagnostics stay attributable.
type prefixWriter struct {
	mu     sync.Mutex
	dst    io.Writer
	prefix string
	buf    []byte // partial line carried across writes
}

func (pw *prefixWriter) Write(b []byte) (int, error) {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	pw.buf = append(pw.buf, b...)
	for {
		i := bytes.IndexByte(pw.buf, '\n')
		if i < 0 {
			break
		}
		io.WriteString(pw.dst, pw.prefix)
		pw.dst.Write(pw.buf[:i+1])
		pw.buf = pw.buf[i+1:]
	}
	if len(pw.buf) > 4096 { // don't buffer a runaway unterminated line
		io.WriteString(pw.dst, pw.prefix)
		pw.dst.Write(pw.buf)
		io.WriteString(pw.dst, "\n")
		pw.buf = pw.buf[:0]
	}
	return len(b), nil
}

// NewPool spawns n worker processes (n < 1 ⇒ 1) by re-executing this
// binary with the worker marker set. Workers idle until Run assigns ranges
// and survive across campaigns until Close.
//
// Spawns are retried with bounded backoff. If no worker at all can be
// spawned NewPool fails fast with an error naming the executable and worker
// index; if some spawned, the pool degrades to the partial fleet with a
// warning (results are unaffected — workers only decide where trials run).
func NewPool(n int) (*Pool, error) {
	t, err := newStdioTransport()
	if err != nil {
		return nil, err
	}
	return newPool(n, t)
}

// newPool fields n workers (n < 1 ⇒ 1) over the given transport.
func newPool(n int, t Transport) (*Pool, error) {
	if n < 1 {
		n = 1
	}
	p := &Pool{
		transport:     t,
		stall:         defaultStall,
		grace:         defaultGrace,
		runs:          map[int]*runState{},
		respawnBudget: 2 * n,
	}
	var spawnErr error
	for i := 0; i < n; i++ {
		w, err := p.spawnWorker()
		if err != nil {
			spawnErr = err
			break
		}
		p.mu.Lock()
		p.workers = append(p.workers, w)
		p.mu.Unlock()
	}
	if len(p.workers) == 0 {
		return nil, spawnErr
	}
	if spawnErr != nil {
		fmt.Fprintf(os.Stderr, "shard: %v; continuing with %d of %d workers\n",
			spawnErr, len(p.workers), n)
	}
	return p, nil
}

// spawnWorker dials one worker connection (with bounded retry) and starts its
// reader. The caller appends it to p.workers.
func (p *Pool) spawnWorker() (*proc, error) {
	p.mu.Lock()
	idx := p.nextIndex
	p.nextIndex++
	p.mu.Unlock()
	var w *proc
	err := backoff.Retry(nil, spawnRetry, func() error {
		if err := chaos.Err("shard.pool.spawn"); err != nil {
			return err
		}
		conn, err := p.transport.Dial(idx)
		if err != nil {
			return err
		}
		w = &proc{index: idx, conn: conn,
			knows: map[int]bool{}, readerDone: make(chan struct{}), lastAdvance: time.Now()}
		go p.reader(w)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("shard: spawn worker %d (%s): %w", idx, p.transport, err)
	}
	return w, nil
}

// Workers reports the pool size (including workers that have since died).
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// Deaths reports how many worker processes have died over the pool's
// lifetime (diagnostics; the chaos tests assert on it).
func (p *Pool) Deaths() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deaths
}

// Pids returns the worker process ids, for diagnostics and the
// kill-a-worker reassignment tests. Transports that don't own a worker's
// process (TCP sessions to remote nodes) contribute no entry.
func (p *Pool) Pids() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	pids := make([]int, 0, len(p.workers))
	for _, w := range p.workers {
		if pid := w.conn.Pid(); pid != 0 {
			pids = append(pids, pid)
		}
	}
	return pids
}

// Stats sums the workers' last-reported cache counters — each worker
// piggybacks its cumulative counters on every range ack and on exit, so
// after a run (or Close) this is the cross-process total the drivers print
// and the warm-start tests assert builds == 0 on.
func (p *Pool) Stats() campaign.CacheStats { return p.counters().Stats }

// Phases sums the workers' phase throughput counters, as Stats does.
func (p *Pool) Phases() campaign.PhaseStats { return p.counters().Phases }

func (p *Pool) counters() (sum counters) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		sum.add(w.last)
	}
	return sum
}

// Close drains the pool: worker write sides close, workers ship their final
// counters and exit, and their processes are reaped. Waits for every active
// Run to settle first.
func (p *Pool) Close() {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	ws := append([]*proc(nil), p.workers...)
	p.mu.Unlock()
	for _, w := range ws {
		w.conn.CloseWrite()
	}
	for _, w := range ws {
		<-w.readerDone // all frames consumed (a child's Wait requires it)
		w.conn.Wait()
	}
}

// MaxRange caps the claimable range size: one assignment never walls off
// more than this many trials from rebalancing and reassignment.
const MaxRange = 256

// rangeSpan picks the claimable range size for total trials over n workers:
// roughly four claims per worker amortize the assignment round-trips while
// keeping reassignment granularity, mirroring sched's adaptive chunk.
func rangeSpan(total, n int) int {
	k := total / (n * 4)
	if k < 1 {
		return 1
	}
	if k > MaxRange {
		return MaxRange
	}
	return k
}

// partition splits [lo, hi) into consecutive spans.
func partition(cid, lo, hi, span int) []rangeReq {
	var out []rangeReq
	for at := lo; at < hi; at += span {
		end := at + span
		if end > hi {
			end = hi
		}
		out = append(out, rangeReq{CID: cid, Lo: at, Hi: end})
	}
	return out
}

// insertPending reinserts a range keeping pending sorted by Lo, so claimed
// ranges stay the lowest outstanding and the delivered prefix contiguous.
func insertPending(run *runState, r rangeReq) {
	i := sort.Search(len(run.pending), func(i int) bool { return run.pending[i].Lo >= r.Lo })
	run.pending = append(run.pending, rangeReq{})
	copy(run.pending[i+1:], run.pending[i:])
	run.pending[i] = r
}

// Run fans the campaign out over the pool's workers and blocks until it
// settles, returning the merged result. The campaign must target a registry
// application (workers re-resolve it by name) and a registered tool. See
// the package comment for the determinism, cache-sharing, concurrency,
// cancellation and resilience contracts; they are asserted by the
// equivalence matrix and the chaos suite. One edge diverges from in-process
// runs: Result.Profile comes from the workers, so a partial result whose
// every contributing worker died before finishing its first range can carry
// a nil Profile.
//
// Run may be called from any number of goroutines concurrently: each
// campaign is an independent tenant, range assignment round-robins across
// the active tenants, and every tenant's merged result is bit-identical to
// running it alone on the pool (trial outcomes are pure functions of their
// seeds; the pool only decides where and when they run).
//
// With campaign.WithJournal configured, journal-recorded trials are replayed
// through the merger before any range is assigned, and only the missing
// index runs are partitioned — a killed-then-restarted coordinator
// re-executes exactly the trials it lost.
func (p *Pool) Run(ctx context.Context, c *campaign.Campaign) (*campaign.Result, error) {
	p.runMu.RLock()
	defer p.runMu.RUnlock()

	spec := c.Spec()
	if _, err := workloads.ByName(spec.App); err != nil {
		return nil, fmt.Errorf("shard: %w (sharded campaigns need workload-registry apps)", err)
	}
	if _, err := campaign.ToolByName(spec.Tool); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	lo, hi := c.TrialRange()
	if lo < 0 || lo > hi {
		return nil, fmt.Errorf("shard: %s/%s: invalid trial range [%d, %d)", spec.App, spec.Tool, lo, hi)
	}
	// Promptly honor an already-cancelled context before assigning any work,
	// matching the in-process runner's pre-trial ctx check.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign: %s/%s: %w", spec.App, spec.Tool, err)
	}

	// Journal replay happens inside NewMerger (outside the pool lock: the
	// collector invokes the campaign observer); Missing is then the work
	// left — the full range for a fresh campaign.
	merger := c.NewMerger()
	missing := merger.Missing()
	remaining := 0
	for _, r := range missing {
		remaining += r[1] - r[0]
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("shard: Run on closed Pool")
	}
	live := 0
	for _, w := range p.workers {
		if !w.dead {
			live++
		}
	}
	if live == 0 {
		p.mu.Unlock()
		return nil, errors.New("shard: no live workers")
	}
	if spec.Workers <= 0 {
		// Split this machine's parallelism across the worker processes
		// instead of oversubscribing it n times. (Remote nodes size
		// themselves: their GOMAXPROCS is theirs, not ours — but a spec
		// worker cap is per range, and one session runs one range at a
		// time, so the same split keeps a shared node from oversubscribing
		// across sessions too.)
		if spec.Workers = runtime.GOMAXPROCS(0) / live; spec.Workers < 1 {
			spec.Workers = 1
		}
	}
	cid := p.nextCID
	p.nextCID++
	run := &runState{
		cid:      cid,
		ctx:      ctx,
		spec:     spec,
		merger:   merger,
		finished: make(chan struct{}),
	}
	span := rangeSpan(remaining, live)
	for _, r := range missing {
		run.pending = append(run.pending, partition(cid, r[0], r[1], span)...)
	}
	run.total = len(run.pending)
	p.runs[cid] = run
	p.admitLocked(cid)
	p.assignLocked()
	p.settleLocked(run) // zero-trial (or fully replayed) campaigns settle immediately
	p.mu.Unlock()

	stopWatch := make(chan struct{})
	go p.monitor(run, stopWatch)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				p.mu.Lock()
				if p.runs[run.cid] == run && !run.settled {
					// Stop assigning; claimed ranges drain, the delivered
					// prefix stays contiguous.
					run.cancelled = true
					p.settleLocked(run)
				}
				p.mu.Unlock()
			case <-stopWatch:
			}
		}()
	}
	<-run.finished
	close(stopWatch)

	if run.err != nil {
		return nil, fmt.Errorf("shard: %s/%s: %w", spec.App, spec.Tool, run.err)
	}
	return run.merger.Finish(ctx)
}

// admitLocked appends a fresh cid to the fair-share scan order, compacting
// out settled campaigns in passing. Caller holds p.mu.
func (p *Pool) admitLocked(cid int) {
	order := p.runOrder[:0]
	for _, id := range p.runOrder {
		if p.runs[id] != nil {
			order = append(order, id)
		}
	}
	p.runOrder = append(order, cid)
	if p.rrNext >= len(p.runOrder) {
		p.rrNext = 0
	}
}

// rangeDeadline is the silent-worker deadline for a range of the run: every
// frame restarts the clock and a worker sends one per trial, so it covers
// one trial — the stall floor (generous enough to cover a cold
// build+profile inside the first range), raised to the worst-case trial
// budget at a pessimistic VM throughput floor when that is longer. The
// chaos tests fix it absolutely (export_test.go).
func (p *Pool) rangeDeadline(run *runState) time.Duration {
	if p.stallFixed {
		return p.stall
	}
	return max(p.stall, time.Duration(float64(run.budget)/slowInstrPerSec*float64(time.Second)))
}

// monitor is the per-run hung-worker detector: workers holding one of this
// run's ranges must send a frame within the range deadline, or they are
// condemned and terminated — politely first (SIGTERM, or the conn close that
// is TCP's equivalent: a live-but-slow worker drains its prefix and exits),
// then killed after the grace period (a truly wedged worker ignores the
// polite stop: its trial loop never reaches the context check). Death then
// feeds the ordinary reassignment path.
func (p *Pool) monitor(run *runState, stop <-chan struct{}) {
	tick := p.stall / 8
	if tick < 20*time.Millisecond {
		tick = 20 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := time.Now()
		var victims []*proc
		p.mu.Lock()
		if p.runs[run.cid] != run || run.settled {
			p.mu.Unlock()
			return
		}
		for _, w := range p.workers {
			if w.dead || w.condemned || w.cur == nil || w.cur.CID != run.cid {
				continue
			}
			if now.Sub(w.lastAdvance) > p.rangeDeadline(run) {
				w.condemned = true
				victims = append(victims, w)
			}
		}
		p.mu.Unlock()
		for _, w := range victims {
			p.terminate(w)
		}
	}
}

// terminate escalates on a condemned worker: a polite stop, then a kill when
// it doesn't exit within the grace period. Reassignment happens in
// workerGone when the reader sees the connection close.
func (p *Pool) terminate(w *proc) {
	fmt.Fprintf(os.Stderr, "shard: worker %d silent past its progress deadline; terminating\n", w.index)
	w.conn.Terminate()
	go func() {
		select {
		case <-w.readerDone:
		case <-time.After(p.grace):
			fmt.Fprintf(os.Stderr, "shard: worker %d ignored termination; killing\n", w.index)
			w.conn.Kill()
		}
	}()
}

// nextAssignLocked picks the next campaign to serve, round-robin over the
// admission order — the per-tenant fair share: each idle worker goes to the
// next tenant with runnable work, so concurrent campaigns progress
// proportionally instead of oldest-first. Returns nil when no campaign has
// assignable ranges. Caller holds p.mu.
func (p *Pool) nextAssignLocked() *runState {
	n := len(p.runOrder)
	for k := 0; k < n; k++ {
		at := (p.rrNext + k) % n
		run := p.runs[p.runOrder[at]]
		if run == nil || run.settled || run.cancelled || run.err != nil || len(run.pending) == 0 {
			continue
		}
		// A cancelled context stops the hand-out even before the watcher
		// goroutine fires — mirroring sched's claim() guard — so prompt
		// cancellation never races a slow assignment loop.
		if run.ctx.Err() != nil {
			run.cancelled = true
			p.settleLocked(run)
			continue
		}
		p.rrNext = (at + 1) % n
		return run
	}
	return nil
}

// assignLocked hands pending ranges to idle live workers, introducing a
// campaign spec on a worker's first contact and round-robining across the
// active campaigns (see nextAssignLocked). Caller holds p.mu. A worker holds
// at most one outstanding range, so these small control messages can never
// back up the pipe (the worker is parked in Decode when we write). A send
// failure is a broken connection — the worker is marked dead and the range
// stays pending; reassignment to the next idle worker is the retry.
func (p *Pool) assignLocked() {
	for _, w := range p.workers {
		if w.dead || w.condemned || w.cur != nil {
			continue
		}
		run := p.nextAssignLocked()
		if run == nil {
			return
		}
		r := run.pending[0]
		if !w.knows[run.cid] {
			if err := w.conn.Send(&req{Spec: &specIntro{CID: run.cid, Spec: run.spec}}); err != nil {
				w.dead = true // reader EOF will reap it; range stays pending
				continue
			}
			w.knows[run.cid] = true
		}
		if err := w.conn.Send(&req{Range: &r}); err != nil {
			w.dead = true
			continue
		}
		run.pending = run.pending[1:]
		cur := r
		w.cur = &cur
		w.lastAdvance = time.Now() // fresh deadline clock for the new range
	}
}

// settleLocked closes a run when nothing more will arrive: every range
// acked, or assignment stopped (cancellation/error) and every outstanding
// range drained or died. Caller holds p.mu.
func (p *Pool) settleLocked(run *runState) {
	if run == nil || run.settled {
		return
	}
	outstanding := false
	for _, w := range p.workers {
		if !w.dead && w.cur != nil && w.cur.CID == run.cid {
			outstanding = true
		}
	}
	if run.done == run.total || ((run.cancelled || run.err != nil) && !outstanding) {
		run.settled = true
		delete(p.runs, run.cid)
		close(run.finished)
	}
}

// reader is the per-worker decode loop, alive for the connection's lifetime:
// it merges trial frames, acknowledges ranges (freeing the worker for the
// next assignment), and on worker death requeues the outstanding range.
func (p *Pool) reader(w *proc) {
	defer close(w.readerDone)
	for {
		var f frame
		if err := w.conn.Recv(&f); err != nil {
			p.workerGone(w)
			return
		}
		p.dispatch(w, &f)
	}
}

// dispatch handles one worker frame. Every frame refreshes the worker's
// progress deadline and updates assignment state in one section under the
// pool lock; trial and profile frames then go to their campaign's merger
// outside it (thread-safe; ordering is the collector's reorder buffer's job),
// routed by campaign id.
func (p *Pool) dispatch(w *proc, f *frame) {
	p.mu.Lock()
	w.lastAdvance = time.Now()
	run := p.runs[f.CID]
	switch f.Kind {
	case frameProfile:
		if run != nil && f.Profile != nil && run.budget == 0 {
			run.budget = f.Profile.Budget // arms the cost-model deadline
		}
	case frameRangeDone:
		w.last = f.Counters
		if run != nil && w.cur != nil && w.cur.CID == f.CID && w.cur.Lo == f.Lo && w.cur.Hi == f.Hi {
			w.cur = nil
			run.done++
			p.assignLocked()
			p.settleLocked(run)
		}
	case frameErr:
		if run != nil {
			if run.err == nil {
				run.err = errors.New(f.Err)
			}
			if w.cur != nil && w.cur.CID == f.CID {
				w.cur = nil
			}
			p.assignLocked() // the freed worker can serve other tenants
			p.settleLocked(run)
		}
	case frameExit:
		w.last = f.Counters
	}
	p.mu.Unlock()

	switch {
	case run == nil:
	case f.Kind == frameTrial:
		run.merger.Add(f.Index, f.TR)
		if run.merger.Stopped() {
			// Sequential precision stop (campaign.WithPrecision): drop the
			// unassigned ranges and let claimed ones drain — the merger's
			// collector discards frames past the stop index, so draining only
			// costs wall-clock, never determinism. Not a cancellation: Finish
			// returns the truncated result cleanly.
			p.mu.Lock()
			if p.runs[f.CID] == run && !run.settled && !run.cancelled && run.err == nil {
				run.cancelled = true
				run.pending = nil
				p.settleLocked(run)
			}
			p.mu.Unlock()
		}
	case f.Kind == frameProfile && f.Profile != nil:
		run.merger.SetProfile(f.Profile)
	}
}

// workerGone reaps a dead worker: its outstanding range re-enters its
// campaign's pending queue (the merger drops whatever duplicate prefix the
// dead worker already shipped) with its retry count bumped — splitting into
// single-trial ranges once it has killed SplitAfter workers, and giving up on
// a single trial that exhausts the budget by recording a fault.HarnessFault
// outcome. A replacement worker is dialed under the pool's bounded respawn
// budget. When the last worker dies with no respawn in flight every active
// campaign fails rather than hangs.
func (p *Pool) workerGone(w *proc) {
	p.mu.Lock()
	w.dead = true
	if !p.closed {
		p.deaths++ // Close retirement reaches here too; only premature exits count
	}
	orphan := w.cur
	w.cur = nil
	var run *runState
	if orphan != nil {
		run = p.runs[orphan.CID]
	}

	var giveUp *rangeReq
	if orphan != nil && run != nil && !run.cancelled && run.err == nil {
		orphan.Retries++
		switch {
		case orphan.Hi-orphan.Lo == 1 && orphan.Retries > SplitAfter+MaxTrialRetries:
			giveUp = orphan
		case orphan.Hi-orphan.Lo > 1 && orphan.Retries > SplitAfter:
			// The range keeps killing workers: isolate the poison trial by
			// re-queueing only the not-yet-shipped indexes as single-trial
			// ranges (each inherits the retry count).
			unseen := run.merger.Unseen(orphan.Lo, orphan.Hi)
			if len(unseen) == 0 {
				run.done++ // every index shipped before the death: range complete
			} else {
				run.total += len(unseen) - 1
				for _, i := range unseen {
					insertPending(run, rangeReq{CID: run.cid, Lo: i, Hi: i + 1, Retries: orphan.Retries})
				}
			}
		default:
			insertPending(run, *orphan)
		}
	}

	if !p.closed && p.respawnBudget > 0 && len(p.runs) > 0 {
		p.respawnBudget--
		p.respawning++
		go p.respawnWorker()
	}
	live := 0
	for _, other := range p.workers {
		if !other.dead {
			live++
		}
	}
	if live == 0 && p.respawning == 0 {
		p.failAllLocked(errors.New("all workers exited mid-campaign"))
	}
	p.assignLocked()
	if run != nil {
		p.settleLocked(run)
	}
	if giveUp == nil {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()

	// Deliver the synthesized outcome outside the pool lock: merger delivery
	// runs the campaign observer, which must never see pool internals locked.
	fmt.Fprintf(os.Stderr, "shard: trial %d killed %d workers; recording harness-fault\n",
		giveUp.Lo, giveUp.Retries)
	run.merger.Add(giveUp.Lo, campaign.TrialResult{Outcome: fault.HarnessFault})

	p.mu.Lock()
	if p.runs[run.cid] == run {
		run.done++
		p.assignLocked()
		p.settleLocked(run)
	}
	p.mu.Unlock()
}

// failAllLocked fails every active campaign that isn't already cancelled or
// failed (the pool has no workers left to serve any of them) and settles
// each. Caller holds p.mu.
func (p *Pool) failAllLocked(err error) {
	var active []*runState
	for _, run := range p.runs {
		active = append(active, run)
	}
	sort.Slice(active, func(i, j int) bool { return active[i].cid < active[j].cid })
	for _, run := range active {
		if run.err == nil && !run.cancelled {
			run.err = err
		}
		p.settleLocked(run)
	}
}

// respawnWorker replaces a dead worker (bounded by the pool's respawn
// budget). A replacement that arrives after Close, or fails to spawn, is
// cleaned up; a spawn failure that leaves the pool empty fails the active
// campaigns instead of hanging them.
func (p *Pool) respawnWorker() {
	w, err := p.spawnWorker()
	p.mu.Lock()
	p.respawning--
	if err == nil && !p.closed {
		p.workers = append(p.workers, w)
		p.assignLocked()
		for _, cid := range p.runOrder {
			p.settleLocked(p.runs[cid])
		}
		p.mu.Unlock()
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard: respawn failed: %v\n", err)
		live := 0
		for _, other := range p.workers {
			if !other.dead {
				live++
			}
		}
		if live == 0 && p.respawning == 0 {
			p.failAllLocked(errors.New("all workers exited mid-campaign and respawn failed"))
		}
		for _, cid := range p.runOrder {
			p.settleLocked(p.runs[cid])
		}
		p.mu.Unlock()
		return
	}
	// Closed while the respawn was in flight: retire the fresh worker.
	p.mu.Unlock()
	w.conn.CloseWrite()
	<-w.readerDone
	w.conn.Wait()
}
