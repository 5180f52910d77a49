package sched_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// TestEveryIndexExactlyOnce: a batch's indexes are each claimed exactly once
// regardless of worker count.
func TestEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		e := sched.New(workers)
		const n = 1000
		var hits [n]atomic.Int32
		h := e.Submit(context.Background(), n, func(i int) { hits[i].Add(1) })
		if !h.Wait() {
			t.Fatalf("workers=%d: batch did not complete", workers)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
		e.Close()
	}
}

// TestCrossJobStealing: two jobs submitted together both make progress — a
// long-running first job does not starve the second (workers steal).
func TestCrossJobStealing(t *testing.T) {
	e := sched.New(4)
	defer e.Close()
	var firstDone, secondDone atomic.Int32
	release := make(chan struct{})
	// First job parks two iterations until released.
	h1 := e.Submit(context.Background(), 2, func(i int) {
		<-release
		firstDone.Add(1)
	})
	h2 := e.Submit(context.Background(), 8, func(i int) { secondDone.Add(1) })
	// The second job must finish even while the first is blocked.
	done := make(chan struct{})
	go func() { h2.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("second job starved behind a blocked first job")
	}
	close(release)
	h1.Wait()
	if firstDone.Load() != 2 || secondDone.Load() != 8 {
		t.Fatalf("first=%d second=%d", firstDone.Load(), secondDone.Load())
	}
}

// TestCancellationAbandonsUnclaimed: cancelling mid-batch stops hand-out;
// Wait reports the batch incomplete and only claimed iterations ran.
func TestCancellationAbandonsUnclaimed(t *testing.T) {
	e := sched.New(2)
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	const n = 10_000
	h := e.Submit(ctx, n, func(i int) {
		if ran.Add(1) == 5 {
			cancel()
		}
	})
	if h.Wait() {
		t.Fatal("cancelled batch reported complete")
	}
	got := int(ran.Load())
	if got >= n {
		t.Fatalf("cancellation did not abandon any iterations (ran %d)", got)
	}
	if got < 5 {
		t.Fatalf("claimed prefix lost: ran only %d", got)
	}
}

// TestCancelBeforeClaim: a context cancelled before any worker claims leaves
// the batch empty but settled.
func TestCancelBeforeClaim(t *testing.T) {
	e := sched.New(1)
	defer e.Close()
	gate := make(chan struct{})
	// Occupy the single worker.
	busy := e.Submit(context.Background(), 1, func(int) { <-gate })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	h := e.Submit(ctx, 100, func(int) { ran.Add(1) })
	if h.Wait() {
		t.Fatal("pre-cancelled batch reported complete")
	}
	close(gate)
	busy.Wait()
	if ran.Load() != 0 {
		t.Fatalf("pre-cancelled batch ran %d iterations", ran.Load())
	}
}

// TestEmptyBatch settles immediately.
func TestEmptyBatch(t *testing.T) {
	e := sched.New(2)
	defer e.Close()
	if !e.Submit(context.Background(), 0, func(int) { t.Error("body ran") }).Wait() {
		t.Fatal("empty batch incomplete")
	}
}

// TestManyConcurrentSubmitters: batches submitted from many goroutines (the
// suite-runner shape) all complete, with per-batch index integrity.
func TestManyConcurrentSubmitters(t *testing.T) {
	e := sched.New(4)
	defer e.Close()
	var wg sync.WaitGroup
	for b := 0; b < 20; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			n := 50 + b
			seen := make([]atomic.Int32, n)
			if !e.Submit(context.Background(), n, func(i int) { seen[i].Add(1) }).Wait() {
				t.Errorf("batch %d incomplete", b)
				return
			}
			for i := range seen {
				if seen[i].Load() != 1 {
					t.Errorf("batch %d index %d ran %d times", b, i, seen[i].Load())
					return
				}
			}
		}(b)
	}
	wg.Wait()
}

// TestChunkedEveryIndexExactlyOnce: explicit chunk sizes hand out each index
// exactly once, in increasing claim order, across worker counts — chunking
// changes lock traffic, never coverage.
func TestChunkedEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		for _, chunk := range []int{1, 4, 64, 1000} {
			e := sched.New(workers)
			const n = 997 // prime: the tail chunk is always ragged
			var hits [n]atomic.Int32
			h := e.SubmitChunk(context.Background(), n, chunk, func(i int) { hits[i].Add(1) })
			if !h.Wait() {
				t.Fatalf("workers=%d chunk=%d: batch did not complete", workers, chunk)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d chunk=%d: index %d ran %d times", workers, chunk, i, got)
				}
			}
			e.Close()
		}
	}
}

// TestChunkedRunsConsecutively: the indexes of one claim run back to back on
// one worker in increasing order (locality — a campaign worker walks its
// chunk with its pooled machine warm).
func TestChunkedRunsConsecutively(t *testing.T) {
	e := sched.New(1) // single worker: the full order is one worker's order
	defer e.Close()
	const n, chunk = 64, 8
	var order []int
	h := e.SubmitChunk(context.Background(), n, chunk, func(i int) { order = append(order, i) })
	if !h.Wait() {
		t.Fatal("batch did not complete")
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("position %d ran index %d; single-worker chunked order must be 0..n-1", i, got)
		}
	}
}

// TestChunkedCancellationClaimedPrefix: cancellation abandons unclaimed
// chunks only; every index of every handed-out chunk still runs, and the
// ran set is a prefix (no holes) of 0..n.
func TestChunkedCancellationClaimedPrefix(t *testing.T) {
	for _, chunk := range []int{1, 4, 64} {
		e := sched.New(4)
		ctx, cancel := context.WithCancel(context.Background())
		const n = 100_000
		var ran [n]atomic.Int32
		var count atomic.Int32
		h := e.SubmitChunk(ctx, n, chunk, func(i int) {
			ran[i].Add(1)
			if count.Add(1) == 37 {
				cancel()
			}
		})
		if h.Wait() {
			t.Fatalf("chunk=%d: cancelled batch reported complete", chunk)
		}
		// The ran set must be exactly [0, maxRan]: claimed chunks complete,
		// nothing beyond the last claimed chunk runs, no holes inside.
		last := -1
		for i := 0; i < n; i++ {
			if ran[i].Load() > 1 {
				t.Fatalf("chunk=%d: index %d ran twice", chunk, i)
			}
			if ran[i].Load() == 1 {
				if i != last+1 {
					t.Fatalf("chunk=%d: hole in claimed prefix before %d", chunk, i)
				}
				last = i
			}
		}
		if last+1 >= n {
			t.Fatalf("chunk=%d: cancellation abandoned nothing", chunk)
		}
		if last+1 < 37 {
			t.Fatalf("chunk=%d: claimed prefix lost (ran %d)", chunk, last+1)
		}
		e.Close()
	}
}

// TestAdaptiveChunkBounds: Submit's adaptive chunking stays within
// [1, MaxChunk] and never walls off more than the batch.
func TestAdaptiveChunkBounds(t *testing.T) {
	e := sched.New(4)
	defer e.Close()
	for _, n := range []int{1, 3, 64, 1068, 1 << 20} {
		var hits atomic.Int64
		if !e.Submit(context.Background(), n, func(int) { hits.Add(1) }).Wait() {
			t.Fatalf("n=%d: batch did not complete", n)
		}
		if int(hits.Load()) != n {
			t.Fatalf("n=%d: ran %d iterations", n, hits.Load())
		}
	}
}
