package campaign

// Crash-safe resume: a Journal persists every delivered (campaign key, trial
// index, TrialResult) triple to gob segment files as the campaign runs, so a
// coordinator that dies mid-campaign — power cut, OOM kill, operator ^C —
// loses no completed work. A restarted run with the same journal adds the
// recorded trials to the campaign's Merger before any trial runs and
// executes only the missing indices; because trial i is a pure function of
// TrialSeed(seed, tool, i), the resumed result is bit-identical to an
// uninterrupted run.
//
// Durability model: each process appends to its own fresh segment
// (seg-NNNNNN.fij, O_CREATE|O_EXCL), never to a possibly-torn tail left by a
// crashed predecessor. A batch of entries — one trial from Append, or the
// new trials of one shard frame from the campaign's Merger — is gob-encoded
// into a buffer and written with one write, before any of its trials is
// delivered. Reads tolerate a torn tail per segment — entries decode until
// the first gob error, which is exactly the prefix the dying process managed
// to flush, so a crash loses at most the tail of the batch being written.
// Segments rotate at a size cap so a very long campaign never grows one
// unbounded file, and rotation closes the old segment with an fsync.

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/backoff"
	"repro/internal/chaos"
)

// journalEntry is one persisted frame: a completed trial of a keyed campaign.
type journalEntry struct {
	Key   string
	Index int
	TR    TrialResult
}

const (
	journalExt    = ".fij"
	journalSegMax = 4 << 20 // rotate segments at ~4 MiB
)

// Journal is the crash-safe trial log behind WithJournal. One Journal may
// record many campaigns (the suite drivers share one journal dir across all
// app×tool cells); entries are namespaced by Spec.Key. Safe for concurrent
// use.
type Journal struct {
	dir string

	mu  sync.Mutex
	f   *os.File
	n   int64        // bytes written to f, so rotation needs no Stat
	buf bytes.Buffer // one batch's encoding, written to f in one write
	enc *gob.Encoder // into buf: its type descriptors go once per segment
	seq int          // last segment sequence number seen or created

	entries map[string]map[int]TrialResult // restored at open

	loaded   uint64 // entries restored from existing segments
	torn     int    // segments whose tail was torn (tolerated)
	segments int    // segments found at open
	appended atomic.Uint64
	replayed atomic.Uint64
	errors   atomic.Uint64
}

// JournalStats reports the journal's counters.
type JournalStats struct {
	Dir      string
	Segments int    // segment files found at open
	Loaded   uint64 // entries restored at open
	Torn     int    // segments with a torn (crash-truncated) tail, tolerated
	Appended uint64 // entries written by this process
	Replayed uint64 // restored entries handed back through Recorded
	Errors   uint64 // append failures after retries (entries lost, run unaffected)
}

// OpenJournal opens (creating if needed) the journal directory, restores
// every entry from existing segments — tolerating torn tails left by crashed
// writers — and prepares to append to a fresh segment. An unusable path
// (not a directory, not writable) fails here, not at the first append.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: journal dir: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".fij-probe-*")
	if err != nil {
		return nil, fmt.Errorf("campaign: journal dir %s not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())

	j := &Journal{dir: dir, entries: map[string]map[int]TrialResult{}}

	names, err := filepath.Glob(filepath.Join(dir, "seg-*"+journalExt))
	if err != nil {
		return nil, fmt.Errorf("campaign: journal scan: %w", err)
	}
	sort.Strings(names)
	for _, name := range names {
		j.segments++
		var seq int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d"+journalExt, &seq); err == nil && seq > j.seq {
			j.seq = seq
		}
		j.loadSegment(name)
	}
	return j, nil
}

// loadSegment restores one segment's entries, stopping at the first decode
// error: a torn tail is the flushed prefix of a crashed writer and is
// expected, not fatal.
func (j *Journal) loadSegment(path string) {
	f, err := os.Open(path)
	if err != nil {
		j.torn++
		return
	}
	defer f.Close()
	dec := gob.NewDecoder(f)
	for {
		var e journalEntry
		if err := dec.Decode(&e); err != nil {
			if !errors.Is(err, io.EOF) {
				j.torn++
			}
			return
		}
		m := j.entries[e.Key]
		if m == nil {
			m = map[int]TrialResult{}
			j.entries[e.Key] = m
		}
		m[e.Index] = e.TR
		j.loaded++
	}
}

// ensureSegLocked opens the append segment if none is open, claiming the next
// free sequence number with O_EXCL so concurrent coordinator processes
// sharing one journal dir never interleave writes in one file.
func (j *Journal) ensureSegLocked() error {
	if j.f != nil {
		return nil
	}
	for {
		j.seq++
		path := filepath.Join(j.dir, fmt.Sprintf("seg-%06d%s", j.seq, journalExt))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			j.f, j.n = f, 0
			j.enc = gob.NewEncoder(&j.buf)
			return nil
		}
		if !os.IsExist(err) {
			return err
		}
	}
}

// closeSegLocked retires the append segment (fsync, close). Also the repair
// path after a failed encode: a gob stream is stateful, so a torn write
// poisons the encoder — the next append starts a fresh segment with a fresh
// encoder that re-emits its type descriptors.
func (j *Journal) closeSegLocked() {
	if j.f == nil {
		return
	}
	j.f.Sync()
	j.f.Close()
	j.f, j.enc = nil, nil
}

// Append journals one completed trial. Failures are retried with bounded
// backoff; a persistent failure is counted (Stats().Errors) and returned, but
// callers treat the journal as best-effort — a lost entry only means that
// trial re-executes on resume, it never corrupts the run.
func (j *Journal) Append(key string, index int, tr TrialResult) error {
	return j.write([]journalEntry{{Key: key, Index: index, TR: tr}})
}

// write journals a batch of entries in one write, under Append's retry and
// error contract: a failed write retires the segment, whose torn tail the
// loader tolerates, and the retry writes the whole batch to a fresh one.
func (j *Journal) write(es []journalEntry) error {
	chaos.Point("campaign.journal.append")
	j.mu.Lock()
	defer j.mu.Unlock()
	err := backoff.Retry(func() error {
		if err := chaos.Err("campaign.journal.write"); err != nil {
			return err
		}
		if j.f != nil && j.n >= journalSegMax {
			j.closeSegLocked()
		}
		if err := j.ensureSegLocked(); err != nil {
			return err
		}
		j.buf.Reset()
		for _, e := range es {
			if err := j.enc.Encode(e); err != nil {
				j.closeSegLocked()
				return err
			}
		}
		n, err := j.f.Write(j.buf.Bytes())
		j.n += int64(n)
		if err != nil {
			j.closeSegLocked()
		}
		return err
	})
	if err != nil {
		j.errors.Add(uint64(len(es)))
		return fmt.Errorf("campaign: journal append: %w", err)
	}
	j.appended.Add(uint64(len(es)))
	return nil
}

// Recorded returns the journaled results for the keyed campaign restricted to
// trial range [lo, hi), or nil if none. The returned map is a copy — safe for
// concurrent read-only use by trial workers. Each returned entry counts
// toward Stats().Replayed.
func (j *Journal) Recorded(key string, lo, hi int) map[int]TrialResult {
	j.mu.Lock()
	m := j.entries[key]
	out := make(map[int]TrialResult, len(m))
	for i, tr := range m {
		if i >= lo && i < hi {
			out[i] = tr
		}
	}
	j.mu.Unlock()
	if len(out) == 0 {
		return nil
	}
	j.replayed.Add(uint64(len(out)))
	return out
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Stats returns the journal's counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	loaded, torn, segs := j.loaded, j.torn, j.segments
	j.mu.Unlock()
	return JournalStats{
		Dir:      j.dir,
		Segments: segs,
		Loaded:   loaded,
		Torn:     torn,
		Appended: j.appended.Load(),
		Replayed: j.replayed.Load(),
		Errors:   j.errors.Load(),
	}
}

// Close retires the append segment. The Journal must not be appended to
// afterwards; Recorded/Stats stay usable.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closeSegLocked()
	return nil
}

// Key derives the campaign identity entries are journaled under: every field
// that determines trial outcomes (app, tool, trial range, seed, build
// options, cost model) plus the harness build fingerprint — so a journal
// written by a different harness build, or for a differently configured
// campaign, can never satisfy a resume. Execution-only knobs (CacheDir,
// Workers, shard count) are deliberately excluded: results are independent of
// them by the determinism invariant, so a run may resume under a different
// parallelism layout.
func (s Spec) Key() string {
	return s.keyWith(harnessFingerprint())
}

// keyWith is Key with the harness fingerprint injected, so the golden-key
// regression test can pin the exact hash under a fixed fingerprint. The
// format string is wire format: any change to it (or to the String methods
// of the fields it prints) silently orphans every journal and cache entry
// ever written, which is why the test pins the output rather than the code.
func (s Spec) keyWith(fp string) string {
	h := sha256.New()
	fmt.Fprintf(h, "fij1|%s|%s|%d|%d|%d|%d|%q|%d|%+v|%s",
		s.App, s.Tool, s.Trials, s.Lo, s.Seed, s.Build.Opt.Resolve(),
		strings.Join(s.Build.FI.Funcs, "\x00"), uint8(s.Build.FI.Classes),
		s.Costs, fp)
	return hex.EncodeToString(h.Sum(nil))[:32]
}
