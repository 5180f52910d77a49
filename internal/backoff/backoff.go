// Package backoff provides bounded retry with exponential backoff and
// jitter for the harness's own fallible operations: worker spawn, disk-cache
// I/O, journal writes. The budgets are deliberately small and explicit — a
// deterministically failing operation must surface as an error (or a
// HarnessFault outcome, at the campaign layer) after a handful of attempts,
// never loop forever. Jitter only perturbs *timing*, never results, so the
// determinism invariant (bit-identical tables for a fixed seed) is
// unaffected.
package backoff

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"time"
)

// The one policy, for transient local failures: 4 tries, first included,
// over roughly 10+20+40 ms — each retry doubles the delay, and jitter scales
// it by a factor in [1-jitter, 1+jitter) derived from a per-shard hash,
// de-synchronizing retry storms across workers while staying reproducible.
const (
	attempts = 4
	base     = 10 * time.Millisecond
	jitter   = 0.25
)

// jitterSalt de-synchronizes retry storms across worker processes without
// wall-clock or math/rand seeding: each shard hashes its FI_SHARD_INDEX (set
// by the sharded-campaign driver; empty in single-process runs) into a
// distinct, reproducible phase. Delays are therefore a pure function of
// (shard, retry number) — rerunning a shard replays the identical backoff
// schedule, which keeps harness timing out of the determinism audit entirely.
var jitterSalt = func() uint64 {
	h := fnv.New64a()
	h.Write([]byte("fi-backoff|"))
	h.Write([]byte(os.Getenv("FI_SHARD_INDEX")))
	return h.Sum64()
}()

// jitterFrac maps (jitterSalt, retry) to a uniform value in [0, 1).
func jitterFrac(retry int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], jitterSalt)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(retry))
	h.Write(buf[:])
	// Keep the top 53 bits: the largest float64-exact integer range.
	return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
}

// delay returns the backoff delay before retry number retry (0-based).
func delay(retry int) time.Duration {
	d := base << uint(retry)
	if d <= 0 { // overflow
		d = base
	}
	return time.Duration(float64(d) * (1 + jitter*(2*jitterFrac(retry)-1)))
}

// permanent wraps an error that must not be retried.
type permanent struct{ err error }

func (p permanent) Error() string { return p.err.Error() }
func (p permanent) Unwrap() error { return p.err }

// Permanent marks an error as non-retryable: Retry returns it (unwrapped)
// immediately instead of burning the remaining attempts.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanent{err}
}

// Retry runs op up to 4 times, sleeping the backoff between tries, until it
// succeeds or returns a Permanent error. The returned error is the last
// attempt's (wrapped Permanent errors are unwrapped).
func Retry(op func() error) error {
	var err error
	for i := 0; i < attempts; i++ {
		if err = op(); err == nil {
			return nil
		}
		var perm permanent
		if errors.As(err, &perm) {
			return perm.err
		}
		if i < attempts-1 {
			time.Sleep(delay(i))
		}
	}
	return err
}
