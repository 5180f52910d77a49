package campaign_test

// Regression test for the scheduled runner's unclaimed-build seam: when the
// build+profile unit settles without being claimed AND the context reports a
// nil Err, Run must return the concrete campaign.ErrBuildUnclaimed sentinel
// instead of wrapping nil (pre-fix the message rendered "%!w(<nil>)" and
// errors.Is matched nothing).

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/sched"
)

// doneNilErrCtx misbehaves in exactly the way that exposed the seam: its
// Done channel is closed (so Submit abandons the job unqueued) while Err
// still reports nil (so the runner has no ctx error to wrap).
type doneNilErrCtx struct{ done chan struct{} }

func (c doneNilErrCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c doneNilErrCtx) Done() <-chan struct{}       { return c.done }
func (c doneNilErrCtx) Err() error                  { return nil }
func (c doneNilErrCtx) Value(any) any               { return nil }

func TestScheduledUnclaimedBuildSentinel(t *testing.T) {
	// One worker, pinned down by a blocker job, so the campaign's build unit
	// can never be claimed before Submit abandons it.
	ex := sched.New(1)
	defer ex.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	busy := ex.Submit(context.Background(), 1, func(int) {
		close(started)
		<-block
	})
	<-started

	ctx := doneNilErrCtx{done: make(chan struct{})}
	close(ctx.done)
	_, err := campaign.New(testApp, campaign.REFINE,
		campaign.WithTrials(4),
		campaign.WithCache(nil),
		campaign.WithExecutor(ex),
	).Run(ctx)
	close(block)
	busy.Wait()

	if err == nil {
		t.Fatal("Run must fail when the build unit goes unclaimed")
	}
	if !errors.Is(err, campaign.ErrBuildUnclaimed) {
		t.Fatalf("errors.Is(err, ErrBuildUnclaimed) = false; err = %v", err)
	}
	if strings.Contains(err.Error(), "%!w") {
		t.Fatalf("error wraps a nil cause: %v", err)
	}
}

// TestScheduledUnclaimedBuildCancelled pins the common path: with a real
// cancelled context the wrapped cause stays ctx.Err(), not the sentinel.
func TestScheduledUnclaimedBuildCancelled(t *testing.T) {
	ex := sched.New(1)
	defer ex.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	busy := ex.Submit(context.Background(), 1, func(int) {
		close(started)
		<-block
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := campaign.New(testApp, campaign.REFINE,
		campaign.WithTrials(4),
		campaign.WithCache(nil),
		campaign.WithExecutor(ex),
	).Run(ctx)
	close(block)
	busy.Wait()

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false; err = %v", err)
	}
}
