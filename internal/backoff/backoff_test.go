package backoff

import (
	"errors"
	"testing"
	"time"
)

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Retry(func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want success on attempt 3", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	if err := Retry(func() error { calls++; return boom }); !errors.Is(err, boom) {
		t.Fatalf("want the last attempt's error, got %v", err)
	}
	if calls != attempts {
		t.Fatalf("ran %d attempts, want exactly %d", calls, attempts)
	}
}

func TestRetryPermanentStopsImmediately(t *testing.T) {
	calls := 0
	boom := errors.New("fatal")
	err := Retry(func() error { calls++; return Permanent(boom) })
	if calls != 1 {
		t.Fatalf("permanent error retried %d times", calls)
	}
	// Permanent is unwrapped on return: callers match the original error.
	if !errors.Is(err, boom) || err.Error() != "fatal" {
		t.Fatalf("got %v, want the unwrapped original", err)
	}
}

func TestPermanentNilIsNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
}

// jittered reports whether d is nominal scaled by a factor in the jitter
// band (with a rounding margin).
func jittered(d, nominal time.Duration) bool {
	return d >= time.Duration(float64(nominal)*(1-jitter-0.01)) &&
		d <= time.Duration(float64(nominal)*(1+jitter+0.01))
}

func TestDelayBoundsAndJitter(t *testing.T) {
	for retry := 0; retry < 8; retry++ {
		// Exponential, jittered by at most ±25%.
		if d, nominal := delay(retry), base<<uint(retry); !jittered(d, nominal) {
			t.Fatalf("delay(%d) = %v, want %v ±%.0f%%", retry, d, nominal, 100*jitter)
		}
	}
}

func TestDelayOverflowFallsBackToBase(t *testing.T) {
	if d := delay(62); !jittered(d, base) { // base << 62 overflows to 0
		t.Fatalf("overflowed delay = %v, want base ±%.0f%%", d, 100*jitter)
	}
}

// TestDelayIsDeterministic pins the hash-based jitter: delays are a pure
// function of (shard salt, retry number) — calling delay twice for the same
// retry yields the identical duration, and distinct retries actually spread
// (the jitter is not a constant). A time-seeded source would fail the first
// property across processes; a broken hash would fail the second.
func TestDelayIsDeterministic(t *testing.T) {
	for retry := 0; retry < 8; retry++ {
		d1 := delay(retry)
		d2 := delay(retry)
		if d1 != d2 {
			t.Fatalf("delay(%d) not deterministic: %v then %v", retry, d1, d2)
		}
	}
	// Spread check on the jitter fractions themselves.
	fracs := map[float64]bool{}
	for retry := 0; retry < 16; retry++ {
		f := jitterFrac(retry)
		if f < 0 || f >= 1 {
			t.Fatalf("jitterFrac(%d) = %v outside [0,1)", retry, f)
		}
		fracs[f] = true
	}
	if len(fracs) < 8 {
		t.Fatalf("jitter fractions collapse: only %d distinct of 16", len(fracs))
	}
}
