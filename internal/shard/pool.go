// Package shard fans campaigns out across worker processes and machines: a
// coordinator holds one session per worker on a stream socket — a socketpair
// to this same binary re-exec'd as a local worker (the single-machine
// default, marked by the FI_SHARD_WORKER environment variable), or a TCP
// connection to a long-lived worker node (fi-campaign -shard-listen /
// NewTCPPool), served alike — partitions each campaign's trial index space
// into claimable ranges, and merges the workers' trial streams back through
// the campaign's Merger.
//
// Guarantees, in the same contract language as internal/sched:
//
//   - Determinism: the coordinator only decides where a trial runs, never
//     what it computes — trial i is always seeded TrialSeed(seed, tool, i),
//     frames are merged through the campaign's order-deterministic Merger,
//     and Counts, Cycles and the observer stream are bit-identical to an
//     in-process run for any shard count, local or remote (the equivalence
//     matrix in internal/experiments runs shards ∈ {1, 2, 4} on local
//     workers and on TCP nodes against one in-process reference). A worker
//     built from another revision would compute other trials, so it refuses
//     any campaign from a coordinator whose harness build names another one.
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
//   - Resilience: a worker that dies mid-range (crash, SIGKILL, torn frame,
//     dropped connection, dead worker node) has its claimed range reassigned
//     to a live worker — duplicate frames from the dead worker's partial
//     delivery are dropped by the merger — and a replacement worker is
//     dialed under a bounded budget. A worker that goes *silent* (alive but
//     making no progress) outlasts its session's read deadline — armed while
//     it holds a range, pushed one trial's worth ahead by every frame it
//     sends, where a healthy worker ships its batch of trials at least every
//     batchWindow plus one trial — and is stopped: its session is closed
//     (and a local worker's process killed), feeding the same reassignment
//     path. A worker that sends what it should not (an empty or unassigned
//     trial frame, an unknown frame kind, a range ack for trials it never
//     sent) fails the campaign by name and is stopped the same way. A range
//     that keeps killing workers is split into single-trial ranges to
//     isolate the poison trial, and a single trial that exhausts its retry
//     budget is recorded as a fault.HarnessFault outcome instead of looping
//     forever.
//     All of this is exercised deterministically by the chaos suite
//     (internal/chaos).
//
// Pool.Run is the only way a campaign reaches the workers: callers open a
// pool (NewPool, NewTCPPool, or OpenPool from the fi-* drivers' -shards /
// -shard-nodes) and hand it campaigns; suites pass it as
// experiments.Config.Pool.
package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
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
	// slowInstrPerSec is the pessimistic VM throughput floor used to derive
	// a per-trial progress deadline from the cost model's trial budget; the
	// real VM is orders of magnitude faster, so only a genuinely wedged
	// worker can miss the deadline.
	slowInstrPerSec = 8 << 20
)

// Pool is a set of live worker sessions campaigns fan out over. Create with
// NewPool (local re-exec'd workers) or NewTCPPool (remote worker nodes),
// run any number of campaigns through Run — concurrently if you like; the
// pool round-robins range assignment across active campaigns — and Close to
// drain and reap the workers.
type Pool struct {
	runMu sync.RWMutex // Run holds the read side for its duration; Close excludes

	dial       func(index int) (*conn, error) // one worker session (dialLocal, dialNode)
	stall      time.Duration                  // silent-worker deadline floor
	stallFixed bool                           // tests: stall is the deadline, no cost-model scale-up

	mu            sync.Mutex
	workers       []*proc
	nextIndex     int // shard index of the next spawned worker (never reused)
	nextCID       int
	runs          []*runState // active campaigns in admission order
	rr            int         // round-robin cursor into runs (fair share)
	closed        bool
	respawnBudget int // replacement spawns left (bounds a crash loop)
	respawning    int // spawns in flight (holds off the all-dead verdict)
	deaths        int
}

// proc is one worker session and its coordinator-side bookkeeping.
type proc struct {
	index      int // shard index: stderr prefix, chaos w= filter
	conn       *conn
	dead       bool
	cur        *rangeReq // outstanding assignment (nil ⇒ idle)
	last       counters  // as of the worker's latest range ack or exit
	readerDone chan struct{}
}

// runState tracks one campaign's fan-out. What is left of it is derived:
// its pending ranges, the live workers holding one of its ranges, and the
// harness-fault outcomes being delivered (see settleLocked).
type runState struct {
	cid       int
	ctx       context.Context
	spec      campaign.Spec
	merger    *campaign.Merger
	pending   []rangeReq // unclaimed ranges, ascending Lo
	givingUp  int        // harness-fault outcomes being delivered outside p.mu
	budget    int64      // cost-model instruction budget per trial (from the profile)
	cancelled bool       // stop assigning (ctx cancel or fatal error)
	err       error
	settled   bool
	finished  chan struct{}
}

// newPool fields n workers (n < 1 ⇒ 1), each a session from dial.
func newPool(n int, dial func(index int) (*conn, error)) (*Pool, error) {
	if n < 1 {
		n = 1
	}
	p := &Pool{
		dial:          dial,
		stall:         defaultStall,
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

// spawnWorker dials one worker session (with bounded retry: fork/exec and
// network dials can fail transiently under fd, pid or connection pressure)
// and starts its reader. The caller appends it to p.workers.
func (p *Pool) spawnWorker() (*proc, error) {
	p.mu.Lock()
	idx := p.nextIndex
	p.nextIndex++
	p.mu.Unlock()
	var w *proc
	err := backoff.Retry(func() error {
		if err := chaos.Err("shard.pool.spawn"); err != nil {
			return err
		}
		c, err := p.dial(idx)
		if err != nil {
			return err
		}
		w = &proc{index: idx, conn: c, readerDone: make(chan struct{})}
		go p.reader(w)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("shard: spawn worker %d: %w", idx, err)
	}
	return w, nil
}

// liveLocked counts the workers that have not died. Caller holds p.mu.
func (p *Pool) liveLocked() int {
	live := 0
	for _, w := range p.workers {
		if !w.dead {
			live++
		}
	}
	return live
}

// runLocked finds an active campaign by id; a pool runs a handful at once.
// Caller holds p.mu.
func (p *Pool) runLocked(cid int) *runState {
	for _, run := range p.runs {
		if run.cid == cid {
			return run
		}
	}
	return nil
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
// kill-a-worker reassignment tests. Sessions on remote nodes, whose
// processes the pool does not own, contribute no entry.
func (p *Pool) Pids() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	pids := make([]int, 0, len(p.workers))
	for _, w := range p.workers {
		if w.conn.cmd != nil {
			pids = append(pids, w.conn.cmd.Process.Pid)
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

// Close drains the pool: every session is half-closed and read to EOF, so
// the workers' final counters arrive, then local worker processes are killed
// and reaped. Waits for every active Run to settle first.
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
		w.conn.closeWrite()
	}
	for _, w := range ws {
		<-w.readerDone // all frames consumed
		w.conn.release()
	}
}

// MaxRange caps the claimable range size: one assignment never walls off
// more than this many trials from rebalancing and reassignment.
const MaxRange = 256

// rangeSpan picks the claimable range size for total trials over n workers:
// roughly four claims per worker amortize the assignment round-trips while
// keeping reassignment granularity, mirroring sched's adaptive chunk.
func rangeSpan(total, n int) int {
	return min(max(total/(n*4), 1), MaxRange)
}

// partition splits [lo, hi) into consecutive spans.
func partition(cid, lo, hi, span int) []rangeReq {
	var out []rangeReq
	for at := lo; at < hi; at += span {
		out = append(out, rangeReq{CID: cid, Lo: at, Hi: min(at+span, hi)})
	}
	return out
}

// insertPending reinserts a range keeping pending sorted by Lo, so claimed
// ranges stay the lowest outstanding and the delivered prefix contiguous.
func insertPending(run *runState, r rangeReq) {
	i := sort.Search(len(run.pending), func(i int) bool { return run.pending[i].Lo >= r.Lo })
	run.pending = slices.Insert(run.pending, i, r)
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
	if err := spec.CheckRange(); err != nil {
		return nil, fmt.Errorf("shard: %s/%s: %w", spec.App, spec.Tool, err)
	}
	// Promptly honor an already-cancelled context before assigning any work,
	// matching the in-process runner's pre-trial ctx check.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign: %s/%s: %w", spec.App, spec.Tool, err)
	}

	// Journal replay happens inside NewMerger (outside the pool lock: the
	// Merger invokes the campaign observer); Missing is then the work left —
	// the full range for a fresh campaign.
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
	live := p.liveLocked()
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
		spec.Workers = max(1, runtime.GOMAXPROCS(0)/live)
	}
	run := &runState{
		cid:      p.nextCID,
		ctx:      ctx,
		spec:     spec,
		merger:   merger,
		finished: make(chan struct{}),
	}
	p.nextCID++
	span := rangeSpan(remaining, live)
	for _, r := range missing {
		run.pending = append(run.pending, partition(run.cid, r[0], r[1], span)...)
	}
	p.runs = append(p.runs, run)
	p.assignLocked()
	p.settleLocked(run) // zero-trial (or fully replayed) campaigns settle immediately
	p.mu.Unlock()

	// Stop assigning on cancel; claimed ranges drain, the delivered prefix
	// stays contiguous.
	defer context.AfterFunc(ctx, func() {
		p.mu.Lock()
		if !run.settled {
			run.cancelled = true
			p.settleLocked(run)
		}
		p.mu.Unlock()
	})()
	<-run.finished

	if run.err != nil {
		return nil, fmt.Errorf("shard: %s/%s: %w", spec.App, spec.Tool, run.err)
	}
	return run.merger.Finish(ctx)
}

// rangeDeadline is the silent-worker deadline for a range of the run: every
// frame pushes it ahead and a healthy worker sends one at least every
// batchWindow plus one trial, so it covers one trial — the stall floor
// (generous enough to cover a cold build+profile inside the first range),
// raised to the worst-case trial budget at a pessimistic VM throughput floor
// when that is longer. The chaos tests fix it absolutely (export_test.go).
func (p *Pool) rangeDeadline(run *runState) time.Duration {
	if p.stallFixed {
		return p.stall
	}
	return max(p.stall, time.Duration(float64(run.budget)/slowInstrPerSec*float64(time.Second)))
}

// armLocked points a worker's session read deadline one rangeDeadline past
// now while it holds a range, and clears it while it idles. A worker silent
// past it is taken for hung: its reader stops it. Caller holds p.mu.
func (p *Pool) armLocked(w *proc) {
	var at time.Time
	if w.cur != nil {
		at = time.Now().Add(p.rangeDeadline(p.runLocked(w.cur.CID)))
	}
	w.conn.nc.SetReadDeadline(at)
}

// nextAssignLocked picks the next campaign to serve, round-robin over the
// admission order — the per-tenant fair share: each idle worker goes to the
// next tenant with runnable work, so concurrent campaigns progress
// proportionally instead of oldest-first. Returns nil when no campaign has
// assignable ranges. Caller holds p.mu.
func (p *Pool) nextAssignLocked() *runState {
	for k := 0; k < len(p.runs); k++ {
		at := (p.rr + k) % len(p.runs)
		run := p.runs[at]
		if run.cancelled || run.err != nil || len(run.pending) == 0 {
			continue
		}
		// A cancelled context stops the hand-out even before the AfterFunc
		// fires — mirroring sched's claim() guard — so prompt cancellation
		// never races a slow assignment loop.
		if run.ctx.Err() != nil {
			run.cancelled = true
			continue // the AfterFunc Run registered settles it
		}
		p.rr = at + 1
		return run
	}
	return nil
}

// assignLocked hands pending ranges to idle live workers, round-robining
// across the active campaigns (see nextAssignLocked), and arms each assigned
// worker's deadline. Caller holds p.mu. A worker holds at most one
// outstanding range, so these small control messages can never back up the
// socket (the worker is parked in Decode when we write). A send failure is a
// broken connection — the worker is marked dead and the range stays pending;
// reassignment to the next idle worker is the retry.
func (p *Pool) assignLocked() {
	for _, w := range p.workers {
		if w.dead || w.cur != nil {
			continue
		}
		run := p.nextAssignLocked()
		if run == nil {
			return
		}
		r := run.pending[0]
		if err := w.conn.send(&req{Wire: wireVersion, Index: w.index, CID: r.CID, Spec: run.spec,
			Build: harnessBuild(), Lo: r.Lo, Hi: r.Hi}); err != nil {
			w.dead = true // reader EOF will reap it; range stays pending
			continue
		}
		run.pending = run.pending[1:]
		w.cur = &r
		p.armLocked(w)
	}
}

// settleLocked closes a run when nothing more will arrive: none of its
// ranges is pending (or assignment stopped on cancellation or error), no
// live worker holds one, and no harness-fault outcome is being delivered.
// Settling removes the run from p.runs. Caller holds p.mu.
func (p *Pool) settleLocked(run *runState) {
	if run.settled || run.givingUp > 0 {
		return
	}
	if len(run.pending) > 0 && !run.cancelled && run.err == nil {
		return
	}
	for _, w := range p.workers {
		if !w.dead && w.cur != nil && w.cur.CID == run.cid {
			return
		}
	}
	run.settled = true
	i := slices.Index(p.runs, run)
	p.runs = slices.Delete(p.runs, i, i+1)
	if i < p.rr {
		p.rr--
	}
	close(run.finished)
}

// settleAllLocked settles every run that has nothing left to wait for.
// Caller holds p.mu.
func (p *Pool) settleAllLocked() {
	for i := len(p.runs) - 1; i >= 0; i-- {
		p.settleLocked(p.runs[i])
	}
}

// reader is the per-worker decode loop, alive for the session's lifetime:
// it merges trial frames, acknowledges ranges (freeing the worker for the
// next assignment), and on worker death requeues the outstanding range. A
// read that outlasts the session's deadline (armLocked) is a hung worker,
// and a frame the worker should never have sent a broken one: the reader
// stops it, then reaps it like any death.
func (p *Pool) reader(w *proc) {
	defer close(w.readerDone)
	for {
		var f frame
		if err := w.conn.recv(&f); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "shard: worker %d silent past its progress deadline; stopping it\n", w.index)
				w.conn.stop()
			}
			p.workerGone(w)
			return
		}
		if err := p.dispatch(w, &f); err != nil {
			fmt.Fprintf(os.Stderr, "shard: %v; stopping it\n", err)
			w.conn.stop()
			p.workerGone(w)
			return
		}
	}
}

// dispatch handles one worker frame. Every frame updates assignment state
// and re-arms the worker's deadline in one section under the pool lock — a
// range ack also hands its profile to the merger there, before the ack can
// settle the run; a trial frame then goes to its campaign's merger outside
// it, in one call (thread-safe; ordering is the merger's reorder buffer's
// job), routed by campaign id.
//
// It checks what the worker claims: an empty trial frame, trials outside
// the worker's assignment, a frame of unknown kind, or a range ack for
// trials that never arrived fail the campaign with an error naming the
// worker — the one whose range the worker holds, else the frame's — and
// dispatch returns that error for the reader to stop the worker.
func (p *Pool) dispatch(w *proc, f *frame) error {
	p.mu.Lock()
	run := p.runLocked(f.CID)
	var bad error
	switch f.Kind {
	case frameTrials:
		switch cur := w.cur; {
		case len(f.TRs) == 0:
			bad = fmt.Errorf("worker %d sent an empty trial frame", w.index)
		case cur == nil || cur.CID != f.CID || f.Index < cur.Lo || len(f.TRs) > cur.Hi-f.Index:
			bad = fmt.Errorf("worker %d sent trials [%d, %d) of campaign %d, outside its assignment",
				w.index, f.Index, f.Index+len(f.TRs), f.CID)
		}
	case frameRangeDone:
		w.last = f.Counters
		if run != nil && f.Profile != nil {
			run.budget = f.Profile.Budget // arms the cost-model deadline
			run.merger.SetProfile(f.Profile)
		}
		if run != nil && w.cur != nil && w.cur.CID == f.CID && w.cur.Lo == f.Lo && w.cur.Hi == f.Hi {
			if n := len(run.merger.Unseen(f.Lo, f.Hi)); n > 0 {
				bad = fmt.Errorf("worker %d acknowledged trials [%d, %d) with %d of them never sent",
					w.index, f.Lo, f.Hi, n)
				break
			}
			w.cur = nil
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
	default:
		bad = fmt.Errorf("worker %d sent a frame of unknown kind %d", w.index, f.Kind)
	}
	if bad != nil {
		if w.cur != nil {
			if held := p.runLocked(w.cur.CID); held != nil {
				run = held
			}
		}
		if run != nil && run.err == nil {
			run.err = bad // workerGone settles it
		}
		p.mu.Unlock()
		return bad
	}
	p.armLocked(w)
	p.mu.Unlock()

	if run == nil || f.Kind != frameTrials {
		return nil
	}
	run.merger.AddBatch(f.Index, f.TRs)
	if run.merger.Stopped() {
		// Sequential precision stop (campaign.WithPrecision): drop the
		// unassigned ranges and let claimed ones drain — the merger discards
		// frames past the stop index, so draining only costs wall-clock,
		// never determinism. Not a cancellation: Finish returns the
		// truncated result cleanly.
		p.mu.Lock()
		if !run.settled && !run.cancelled && run.err == nil {
			run.cancelled = true
			run.pending = nil
			p.settleLocked(run)
		}
		p.mu.Unlock()
	}
	return nil
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
		run = p.runLocked(orphan.CID)
	}

	var giveUp *rangeReq
	if run != nil && !run.cancelled && run.err == nil {
		orphan.Retries++
		switch {
		case orphan.Hi-orphan.Lo == 1 && orphan.Retries > SplitAfter+MaxTrialRetries:
			giveUp = orphan
			run.givingUp++
		case orphan.Hi-orphan.Lo > 1 && orphan.Retries > SplitAfter:
			// The range keeps killing workers: isolate the poison trial by
			// re-queueing only the not-yet-shipped indexes as single-trial
			// ranges (each inherits the retry count).
			for _, i := range run.merger.Unseen(orphan.Lo, orphan.Hi) {
				insertPending(run, rangeReq{CID: run.cid, Lo: i, Hi: i + 1, Retries: orphan.Retries})
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
	if p.liveLocked() == 0 && p.respawning == 0 {
		p.failAllLocked(errors.New("all workers exited mid-campaign"))
	}
	p.assignLocked()
	p.settleAllLocked()
	p.mu.Unlock()
	if giveUp == nil {
		return
	}

	// Deliver the synthesized outcome outside the pool lock: merger delivery
	// runs the campaign observer, which must never see pool internals locked.
	// The run cannot settle until it is delivered.
	fmt.Fprintf(os.Stderr, "shard: trial %d killed %d workers; recording harness-fault\n",
		giveUp.Lo, giveUp.Retries)
	run.merger.Add(giveUp.Lo, campaign.TrialResult{Outcome: fault.HarnessFault})

	p.mu.Lock()
	run.givingUp--
	p.assignLocked()
	p.settleLocked(run)
	p.mu.Unlock()
}

// failAllLocked fails every active campaign that isn't already cancelled or
// failed (the pool has no workers left to serve any of them). The caller
// settles them. Caller holds p.mu.
func (p *Pool) failAllLocked(err error) {
	for _, run := range p.runs {
		if run.err == nil && !run.cancelled {
			run.err = err
		}
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
	if err == nil && p.closed {
		// Closed while the respawn was in flight: retire the fresh worker.
		p.mu.Unlock()
		w.conn.closeWrite()
		<-w.readerDone
		w.conn.release()
		return
	}
	if err == nil {
		p.workers = append(p.workers, w)
		p.assignLocked()
	} else {
		fmt.Fprintf(os.Stderr, "shard: respawn failed: %v\n", err)
		if p.liveLocked() == 0 && p.respawning == 0 {
			p.failAllLocked(errors.New("all workers exited mid-campaign and respawn failed"))
		}
	}
	p.settleAllLocked()
	p.mu.Unlock()
}
