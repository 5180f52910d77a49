// Package sched implements the process-wide trial executor: one
// work-stealing worker pool that treats every unit of work of every campaign
// — a build+profile, a single fault-injection trial — as an iteration to
// claim. Campaigns submit batches (jobs) and wait on handles; workers drain
// their current job for locality and steal iterations from the oldest
// runnable job when it runs dry, so cores stay saturated across a whole
// suite even when an individual campaign has fewer runnable trials than
// there are workers, and builds of later campaigns overlap the trial tail of
// earlier ones.
//
// Determinism is preserved by construction: the executor decides only
// *where and when* an iteration runs, never *what* it computes — iteration i
// of a batch always receives index i, and campaign results are keyed by
// per-trial seeds, so a suite executed serially, concurrently, or on one
// worker produces bit-identical results (the campaign determinism suite
// asserts exactly that).
package sched

import (
	"context"
	"runtime"
	"sync"
)

// Executor is a fixed-size worker pool over claimable iteration batches.
// Create with New, share freely across campaigns and goroutines, and Close
// when done.
type Executor struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*job // jobs with unclaimed iterations, submission order
	rr      int    // round-robin steal cursor into queue (fair sharing)
	closed  bool
	wg      sync.WaitGroup
	workers int
}

// job is one submitted batch: n iterations of body, claimed chunk indexes at
// a time under the executor lock.
type job struct {
	e    *Executor
	ctx  context.Context
	body func(int)

	n         int // total iterations
	chunk     int // indexes handed out per claim (>= 1)
	next      int // next unclaimed index
	inflight  int // claimed but not yet finished
	ran       int // iterations whose body has returned
	cancelled bool
	completed bool
	done      chan struct{}
}

// Handle tracks a submitted batch.
type Handle struct{ j *job }

// New creates an executor with the given number of workers (<= 0 means
// GOMAXPROCS).
func New(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Executor{workers: workers}
	e.cond = sync.NewCond(&e.mu)
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Workers reports the pool size.
func (e *Executor) Workers() int { return e.workers }

// Submit enqueues n iterations of body with an adaptive claim-chunk size
// (see SubmitChunk). Iteration i receives index i; the executor guarantees
// each index is claimed exactly once, in increasing order, but makes no
// promise about which worker runs it or how iterations interleave with
// other jobs. If ctx is cancelled, unclaimed iterations are abandoned (the
// claimed prefix — every index of every handed-out chunk — still completes)
// — Handle.Wait reports whether the batch ran in full.
//
// Job bodies must not call Handle.Wait on jobs submitted to the same
// executor: a worker blocked in Wait is a worker lost, and with enough of
// them the pool deadlocks. Campaigns submit and wait from their own
// goroutines, never from inside a body.
func (e *Executor) Submit(ctx context.Context, n int, body func(i int)) *Handle {
	return e.SubmitChunk(ctx, n, 0, body)
}

// SubmitChunk is Submit with an explicit claim-chunk size: workers claim up
// to chunk consecutive indexes per lock acquisition and run them back to
// back, trading lock traffic for steal granularity — very short trials stop
// paying one executor lock round-trip each. chunk <= 0 selects the adaptive
// size (1 for small batches, growing with n, capped at MaxChunk). Chunking
// never changes what runs: indexes are still handed out exactly once in
// increasing order, so any result keyed by index is bit-identical across
// chunk sizes. Cancellation abandons unclaimed indexes only; a claimed chunk
// runs to its end, so the completed set is always a prefix of claimed chunks.
func (e *Executor) SubmitChunk(ctx context.Context, n, chunk int, body func(i int)) *Handle {
	if chunk <= 0 {
		chunk = adaptiveChunk(n, e.workers)
	}
	j := &job{e: e, ctx: ctx, body: body, n: n, chunk: chunk, done: make(chan struct{})}
	if n <= 0 {
		j.completed = true
		close(j.done)
		return &Handle{j}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		panic("sched: Submit on closed Executor")
	}
	e.queue = append(e.queue, j)
	e.mu.Unlock()
	e.cond.Broadcast()
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				j.cancel()
			case <-j.done:
			}
		}()
	}
	return &Handle{j}
}

// Wait blocks until the batch settles: every iteration ran, or the context
// was cancelled and the in-flight iterations drained. It reports whether all
// n iterations completed.
//
// The verdict is structural — it counts the iterations whose bodies actually
// returned — never the cancellation flag. A context cancellation that races
// the final iteration's completion therefore cannot make a fully-run batch
// report as cancelled (the flag only gates further claims).
func (h *Handle) Wait() bool {
	<-h.j.done
	e := h.j.e
	e.mu.Lock()
	defer e.mu.Unlock()
	return h.j.ran >= h.j.n
}

// MaxChunk bounds the adaptive claim-chunk size: one claim never walls off
// more than this many iterations from stealing workers.
const MaxChunk = 64

// adaptiveChunk picks the per-claim chunk for an n-iteration batch: small
// batches stay at single-index claims (maximum steal granularity near the
// tail), large batches amortize the executor lock over roughly
// workers×16 claims per worker, capped at MaxChunk.
func adaptiveChunk(n, workers int) int {
	k := n / (workers * 16)
	if k < 1 {
		return 1
	}
	if k > MaxChunk {
		return MaxChunk
	}
	return k
}

// claim hands out the next unclaimed chunk [start, start+cnt). Caller holds
// e.mu.
func (j *job) claim() (start, cnt int, ok bool) {
	if j.cancelled || j.next >= j.n {
		return 0, 0, false
	}
	// A cancelled context stops the hand-out even before the watcher
	// goroutine fires, so prompt cancellation never races a slow scheduler.
	if j.ctx != nil && j.ctx.Err() != nil {
		j.cancelled = true
		j.settleLocked()
		return 0, 0, false
	}
	start = j.next
	cnt = j.chunk
	if cnt > j.n-start {
		cnt = j.n - start
	}
	j.next += cnt
	j.inflight += cnt
	return start, cnt, true
}

// settleLocked closes done if nothing is running and nothing more will.
// Caller holds e.mu.
func (j *job) settleLocked() {
	if j.inflight == 0 && (j.cancelled || j.next >= j.n) && !j.completed {
		j.completed = true
		close(j.done)
	}
}

// cancel abandons the job's unclaimed iterations. It is a no-op once every
// index is claimed — and in particular once every index is claimed and
// finished — so a cancellation racing the final iteration's completion never
// marks a fully-run batch cancelled (Wait's verdict is additionally
// structural, see Handle.Wait).
func (j *job) cancel() {
	j.e.mu.Lock()
	defer j.e.mu.Unlock()
	if !j.completed && j.next < j.n {
		j.cancelled = true
		j.settleLocked()
	}
}

// finishIters retires a claimed chunk of cnt iterations.
func (e *Executor) finishIters(j *job, cnt int) {
	e.mu.Lock()
	j.inflight -= cnt
	j.ran += cnt
	j.settleLocked()
	e.mu.Unlock()
}

// worker is the steal loop: drain the current job while it has unclaimed
// iterations (locality — a campaign worker keeps its pooled machine warm),
// otherwise steal round-robin across the queued jobs — the per-tenant fair
// share: each freed worker goes to the next job with unclaimed work, so
// concurrent campaigns progress proportionally instead of oldest-first —
// compacting exhausted jobs out of the queue in passing; sleep only when no
// job anywhere has work. Each claim hands the worker a chunk of consecutive
// indexes, run back to back under one lock round-trip. Fairness never moves
// an iteration between jobs, so results stay bit-identical to FIFO stealing
// — only the interleaving of (independent, seed-pure) trials changes.
func (e *Executor) worker() {
	defer e.wg.Done()
	var cur *job
	for {
		var j *job
		var start, cnt int
		e.mu.Lock()
		for {
			if cur != nil {
				if s, c, ok := cur.claim(); ok {
					j, start, cnt = cur, s, c
					break
				}
				cur = nil
			}
			for j == nil && len(e.queue) > 0 {
				if e.rr >= len(e.queue) {
					e.rr = 0
				}
				if s, c, ok := e.queue[e.rr].claim(); ok {
					j, start, cnt = e.queue[e.rr], s, c
					e.rr++
				} else {
					e.queue = append(e.queue[:e.rr], e.queue[e.rr+1:]...)
				}
			}
			if j != nil {
				break
			}
			if e.closed {
				e.mu.Unlock()
				return
			}
			e.cond.Wait()
		}
		e.mu.Unlock()
		cur = j
		for k := 0; k < cnt; k++ {
			j.body(start + k)
		}
		e.finishIters(j, cnt)
	}
}

// Close drains the pool: workers finish the iterations already claimable and
// exit. Submitting after Close panics.
func (e *Executor) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cond.Broadcast()
	e.wg.Wait()
}
