package sched

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestCancelAfterFullClaimIsNoOp pins the cancellation-vs-completion seam
// deterministically: once every index of a batch is claimed (and a fortiori
// once every index is claimed and finished), cancel must be a no-op — Wait
// has to report the batch as fully run. Pre-fix, the context callback's
// j.cancel() marked the job cancelled whenever it fired before done closed,
// so a cancellation racing the final iteration's completion made Wait return
// false even though all n indexes ran.
func TestCancelAfterFullClaimIsNoOp(t *testing.T) {
	const n = 2
	e := New(n)
	defer e.Close()

	block := make(chan struct{})
	started := make(chan struct{}, n)
	h := e.Submit(context.Background(), n, func(int) {
		started <- struct{}{}
		<-block
	})
	// Both bodies running ⇒ every index is claimed, none finished.
	<-started
	<-started
	h.j.cancel() // the context callback's exact call, landed in the race window
	close(block)
	if !h.Wait() {
		t.Fatalf("Wait reported a fully-claimed, fully-run batch as cancelled")
	}
	e.mu.Lock()
	ran := h.j.ran
	e.mu.Unlock()
	if ran != n {
		t.Fatalf("ran = %d, want %d", ran, n)
	}
}

// TestCancelAfterCompletionIsNoOp: a cancel landing after the batch fully
// completed (the context callback losing the race) must not flip the verdict.
func TestCancelAfterCompletionIsNoOp(t *testing.T) {
	e := New(2)
	defer e.Close()
	h := e.Submit(context.Background(), 4, func(int) {})
	if !h.Wait() {
		t.Fatal("batch did not complete")
	}
	h.j.cancel()
	if !h.Wait() {
		t.Fatal("late cancel flipped a completed batch to cancelled")
	}
}

// TestWaitCompletionCancelStress hammers the real callback path: the context
// is cancelled by the final iteration itself, so its AfterFunc fires
// concurrently with the batch settling. Whenever all n iterations ran, Wait
// must say so.
func TestWaitCompletionCancelStress(t *testing.T) {
	e := New(4)
	defer e.Close()
	for round := 0; round < 300; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 8
		var ran atomic.Int32
		h := e.Submit(ctx, n, func(int) {
			if int(ran.Add(1)) == n {
				cancel()
				// Give the callback a beat to land inside the race window
				// while this final iteration is still in flight.
				time.Sleep(100 * time.Microsecond)
			}
		})
		ok := h.Wait()
		if int(ran.Load()) == n && !ok {
			t.Fatalf("round %d: all %d iterations ran but Wait reported cancellation", round, n)
		}
		if int(ran.Load()) < n && ok {
			t.Fatalf("round %d: only %d/%d iterations ran but Wait reported full completion", round, ran.Load(), n)
		}
		cancel()
	}
}

// TestSettledJobUnregistersCancel: a job stops its context's AfterFunc when it
// settles, so jobs on a long-lived context (a daemon's) leave nothing
// registered behind them — stop, already called, reports false after Wait.
func TestSettledJobUnregistersCancel(t *testing.T) {
	e := New(2)
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := e.Submit(ctx, 8, func(int) {})
	if !h.Wait() {
		t.Fatal("batch did not complete")
	}
	if h.j.stop() {
		t.Fatal("a settled job's cancel callback was still registered on its context")
	}
}
