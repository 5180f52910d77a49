package shard

import (
	"testing"
	"time"
)

// TestRangeDeadlineCoversOneTrial: every frame restarts a worker's silence
// clock, so the deadline is one trial's worst case, never a range's. REFINE
// on LU has a trial budget of 52.6 M instructions: 6.3 s at the 8 M instr/s
// floor, under the 30 s stall floor — which a deadline scaled by a
// paper-scale range of 133 trials would have stretched to ≈ 834 s.
func TestRangeDeadlineCoversOneTrial(t *testing.T) {
	p := &Pool{stall: defaultStall}
	for _, c := range []struct {
		budget int64
		want   time.Duration
	}{
		{0, defaultStall},          // no profile yet: a cold build+profile
		{52_600_000, defaultStall}, // REFINE/LU
		{slowInstrPerSec * 90, 90 * time.Second},
	} {
		if got := p.rangeDeadline(&runState{budget: c.budget}); got != c.want {
			t.Errorf("budget %d: deadline %v, want %v", c.budget, got, c.want)
		}
	}
	fixed := &Pool{stall: 1200 * time.Millisecond, stallFixed: true}
	if got := fixed.rangeDeadline(&runState{budget: slowInstrPerSec * 90}); got != fixed.stall {
		t.Errorf("fixed stall: deadline %v, want %v", got, fixed.stall)
	}
}
