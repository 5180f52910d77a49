package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/opt"
	"repro/internal/pinfi"
	"repro/internal/vm"
)

// Cache memoizes the per-campaign fixed costs: compiling an application
// under a tool's pipeline and golden-running it for the profile (dynamic
// target population, golden output, timeout budget). A suite over T tools
// and repeated campaigns — benchmark iterations, ablations, fi-campaign
// regenerating several tables from the same binaries — pays the build and
// profile once per (app, Injector.Level, options, cost-model) key: the seven
// registered tools are three builds per app. Both artifacts are immutable
// after construction (machines only read the Image; Profile is never written
// after RunProfile), so cached entries are safe to share across goroutines,
// campaigns and the tools of a level. That includes
// opcode corruption: the registered OPCODE injectors (internal/opcodefi)
// mutate only private per-trial image clones, never the cached build's
// Image, and hand a pooled machine back on the shared one.
//
// Keys include the application name and memory size but not the Build
// function itself (Go functions are not comparable): two distinct App values
// that share a name but build different IR would collide. The workload
// registry guarantees unique names; callers with synthetic apps of the same
// name must use distinct names or a private Cache.
type Cache struct {
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry

	// dir, when non-empty, backs the cache with a disk persistence layer:
	// entries are stored content-addressed (cache key + IR fingerprint +
	// harness build fingerprint) as gob files, so a later process — a
	// second CLI invocation, a fresh benchmark run — skips the build and
	// golden profile entirely. See NewDiskCache.
	dir string

	// fp memoizes the per-app fingerprints (whole-program hash plus the
	// per-function canonical fingerprints backing the compositional section
	// cache): a warm suite touches each app once per level×options key, and
	// the frontend+print run only needs to happen once per app. Keying by
	// name+memSize matches the in-memory layer's documented contract (one
	// Build per name within a cache).
	fp map[fpKey]*appFingerprints

	memHits     atomic.Uint64
	diskHits    atomic.Uint64
	builds      atomic.Uint64
	diskErrors  atomic.Uint64
	quarantined atomic.Uint64

	// Compositional section-cache counters (see sections.go and the
	// drivers' "# compose:" line).
	secTotal         atomic.Uint64
	secReused        atomic.Uint64
	secReinjected    atomic.Uint64
	trialsReused     atomic.Uint64
	trialsReinjected atomic.Uint64

	phases phaseCounters // throughput of its builds' golden passes and trials (phasestats.go)
}

// CacheStats are the cache's hit/build counters, for the CLI drivers' cache
// report and the warm-start tests: a warm disk cache shows Builds == 0 with
// DiskHits covering every campaign configuration.
type CacheStats struct {
	// MemHits counts lookups resolved by an in-memory entry (including
	// callers that waited on a concurrent first build).
	MemHits uint64
	// DiskHits counts entries restored from the disk layer.
	DiskHits uint64
	// Builds counts full build+profile executions.
	Builds uint64
	// DiskErrors counts transient disk failures that survived the retry
	// budget — unreadable files, failed writes (the cache falls back to
	// building; it never fails a campaign).
	DiskErrors uint64
	// Quarantined counts corrupt disk entries (checksum mismatch, torn or
	// truncated gob) renamed aside to <name>.quarantine: the entry is
	// rebuilt exactly once instead of being re-decoded — and re-failing —
	// on every warm run.
	Quarantined uint64
}

// Add accumulates o into s: the cross-process total of a shard fleet's
// caches.
func (s *CacheStats) Add(o CacheStats) {
	s.MemHits += o.MemHits
	s.DiskHits += o.DiskHits
	s.Builds += o.Builds
	s.DiskErrors += o.DiskErrors
	s.Quarantined += o.Quarantined
}

type cacheKey struct {
	app     string
	memSize int64
	level   string // Injector.Level: the build half, shared by its tools
	opt     opt.Level
	funcs   string // canonical -fi-funcs encoding
	classes uint8  // fault.ClassSet
	costs   pinfi.CostModel
}

// newCacheKey canonicalizes the identity of a build+profile artifact; the
// disk layer's content addresses (entryPath, sectionPath) fold the same
// fields in; sectionPath adds the tool's name, which identifies results.
func newCacheKey(app App, tool Tool, o BuildOptions, costs pinfi.CostModel) cacheKey {
	return cacheKey{
		app:     app.Name,
		memSize: app.MemSize,
		level:   tool.Level(),
		opt:     o.Opt.Resolve(), // "unset" and "explicitly O2" share an entry
		funcs:   strings.Join(o.FI.Funcs, "\x00"),
		classes: uint8(o.FI.Classes),
		costs:   costs,
	}
}

type cacheEntry struct {
	once sync.Once
	bin  *Binary
	prof *Profile
	err  error
}

// NewCache returns an empty in-memory build/profile cache.
func NewCache() *Cache {
	return &Cache{m: make(map[cacheKey]*cacheEntry), phases: phaseCounters{byTool: make(map[string]*trialCounters)}}
}

// NewDiskCache returns a cache backed by a disk persistence layer under dir
// (created if missing). Entries are content-addressed by the in-memory cache
// key plus a fingerprint of the application's IR, so a stale file can never
// satisfy a lookup for changed source: any change to the workload's IR, the
// tool, the build options or the cost model lands on a different file name.
// Disk entries hold the assembled image and the golden profile; predecoded
// execution state is rebuilt lazily on first use, exactly as for a fresh
// build.
func NewDiskCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: cache dir: %w", err)
	}
	// Probe writability now, so an unwritable directory fails the caller
	// fast with one clear error instead of silently degrading every store
	// into a DiskErrors tick.
	probe, err := os.CreateTemp(dir, ".fic-probe-*")
	if err != nil {
		return nil, fmt.Errorf("campaign: cache dir %s not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	c := NewCache()
	c.dir = dir
	return c, nil
}

// Dir returns the disk layer's directory ("" for a memory-only cache).
func (c *Cache) Dir() string { return c.dir }

// Stats returns the cache's counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		MemHits:     c.memHits.Load(),
		DiskHits:    c.diskHits.Load(),
		Builds:      c.builds.Load(),
		DiskErrors:  c.diskErrors.Load(),
		Quarantined: c.quarantined.Load(),
	}
}

// defaultCache backs campaign.Run (and through it experiments.RunSuite and
// cmd/fi-campaign) for the lifetime of the process.
var defaultCache = NewCache()

// DefaultCache returns the process-wide build/profile cache.
func DefaultCache() *Cache { return defaultCache }

// BuildAndProfile returns the compiled binary and its profile for the key,
// building and golden-running at most once per key even under concurrent
// callers. The Binary's Tool is the caller's; its build and the profile are
// the key's one copy. Golden passes on the build and trials on the Binary
// count into the cache's Phases. Errors are cached too: a broken build fails
// every campaign the same way instead of rebuilding.
func (c *Cache) BuildAndProfile(app App, tool Tool, o BuildOptions, costs pinfi.CostModel) (*Binary, *Profile, error) {
	k := newCacheKey(app, tool, o, costs)
	c.mu.Lock()
	e := c.m[k]
	if e == nil {
		e = &cacheEntry{}
		c.m[k] = e
	} else {
		c.memHits.Add(1)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		var path string
		if c.dir != "" {
			path = c.entryPath(app, k)
			if bin, prof, ok := c.loadDiskEntry(path, app, tool); ok {
				c.diskHits.Add(1)
				e.bin, e.prof = bin, prof
				return
			}
		}
		c.builds.Add(1)
		e.bin, e.err = BuildBinary(app, tool, o)
		if e.err == nil {
			e.bin.phases = &c.phases
			e.prof, e.err = e.bin.RunProfile(costs)
		}
		if e.err == nil && path != "" {
			c.storeDiskEntry(path, e.bin, e.prof)
		}
	})
	if e.bin == nil {
		return nil, nil, e.err
	}
	h := *e.bin
	h.Tool, h.trials = tool, c.phases.tool(tool.Name())
	return &h, e.prof, e.err
}

// disk persistence ------------------------------------------------------------

// diskFormatVersion is folded into the content address, so an incompatible
// encoding change silently misses instead of mis-decoding — and stored inside
// the payload, so an entry that somehow lands on the current path with an
// older body (a copied cache dir, a hand-rolled tool writing old encodings)
// is quarantined rather than half-trusted. Version 2 added the leading
// SHA-256 self-checksum; version 3 added the in-payload version stamp and
// the persisted fire-point index; version 4 added the compositional
// section-entry layer (.fis files, see sections.go) and re-keyed the build
// entries alongside it, so every pre-compositional entry misses (or
// quarantines via the in-payload stamp) and rebuilds through the PR 6 path;
// version 5 addresses a build entry by level, not tool (same payload);
// version 6 drops the stored class and output registers from every
// instruction, which now derive from the opcode table, and re-keys the
// entries built under a class filter, whose fire points counted LEAQ as mem.
const diskFormatVersion = 6

// checksumLen prefixes every disk entry: SHA-256 over the gob payload,
// verified on load so torn writes and bit-rot are detected (and
// quarantined) instead of being re-decoded — or worse, half-decoded into a
// plausible artifact — on every warm run.
const checksumLen = sha256.Size

type fpKey struct {
	app     string
	memSize int64
}

// harnessFingerprint hashes the running executable once per process and
// folds it into every content address: the compiler, optimizer and injector
// implementations all live in this binary, so any change to them — a new
// LICM ordering, a different instrumentation pass — lands warm lookups on
// different file names instead of silently serving artifacts built by older
// code. If the executable cannot be read the fingerprint degrades to "",
// which only widens sharing for same-key lookups, matching the pre-hash
// behavior.
var harnessFingerprint = sync.OnceValue(func() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := os.Open(exe)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
})

// irFingerprint returns the memoized SHA-256 of the app's freshly built IR
// text (the whole-program identity; fingerprints also carries the
// per-function section identities).
func (c *Cache) irFingerprint(app App) string {
	return c.fingerprints(app).program
}

// diskEntry is the persisted artifact pair: the assembled image with its
// instrumentation-site count and FI config, plus the golden-run profile.
// App.Build (a function) and the Tool (an interface) are deliberately not
// stored — they are reattached from the live lookup, and their identities are
// already part of the content address.
type diskEntry struct {
	// Version stamps the payload with diskFormatVersion; loadDiskEntry
	// quarantines a mismatch (see the constant's doc for why the content
	// address alone is not enough).
	Version int
	Img     *vm.Image
	Sites   int
	Cfg     fault.Config
	Prof    *Profile
	// Fire is the binary's fire-point index (nil for tools that never use
	// one), recorded by the same golden pass as Prof.
	Fire *pinfi.FirePoints
}

// entryPath derives the content address of a cache key: the key's fields, a
// fingerprint of the application's freshly built IR, and the harness build
// fingerprint. Hashing the IR — not just the app name — means a workload
// whose builder changes across binary versions can never be satisfied by a
// stale artifact; hashing the harness means neither can a compiler or
// injector change.
func (c *Cache) entryPath(app App, k cacheKey) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|%s|%d|%s|%d|%q|%d|%+v|%s|", diskFormatVersion,
		k.app, k.memSize, k.level, k.opt, k.funcs, k.classes, k.costs,
		harnessFingerprint())
	h.Write([]byte(c.irFingerprint(app)))
	return filepath.Join(c.dir, hex.EncodeToString(h.Sum(nil))[:40]+".fic")
}

// loadDiskEntry restores a persisted artifact pair, reattaching the live app
// and tool. A missing file is a plain miss. A transient read failure is
// retried with bounded backoff, then counted as a disk error and treated as
// a miss. A corrupt entry — checksum mismatch, truncation, undecodable gob —
// is quarantined: renamed to <name>.quarantine and counted, so the artifact
// is rebuilt exactly once instead of re-failing on every warm run.
func (c *Cache) loadDiskEntry(path string, app App, tool Tool) (*Binary, *Profile, bool) {
	payload, ok := c.readPayload(path, "campaign.cache.load")
	if !ok {
		return nil, nil, false
	}
	var d diskEntry
	u, _ := tool.(FirePointUser)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&d); err != nil || d.Img == nil || d.Prof == nil || d.Version != diskFormatVersion ||
		(u != nil && u.UsesFirePoints() && (d.Fire == nil || d.Fire.N != d.Prof.Targets)) || d.Img.Validate() != nil {
		// The checksum matched, so this is a well-preserved entry this
		// binary cannot trust: an undecodable gob, a payload stamped by a
		// different format version — drift the content address should have
		// caught — a fire-point index that is missing or not the
		// profile's, which would panic in Lookup mid-campaign, or an image
		// the machine could not run (vm.Image.Validate: gob skips every
		// check the object decoder makes). Quarantine it all the same:
		// rebuilding once beats failing forever.
		c.quarantine(path)
		return nil, nil, false
	}
	return &Binary{App: app, Tool: tool, build: &build{Img: d.Img, Sites: d.Sites, Cfg: d.Cfg, firePts: d.Fire, phases: &c.phases}}, d.Prof, true
}

// quarantine renames a corrupt entry aside (best effort: removed outright if
// the rename fails) so the next lookup misses cleanly and rebuilds.
func (c *Cache) quarantine(path string) {
	c.quarantined.Add(1)
	if err := os.Rename(path, path+".quarantine"); err != nil {
		os.Remove(path)
	}
}

// storeDiskEntry persists an artifact pair atomically (temp file + rename)
// with a leading SHA-256 self-checksum, so concurrent processes sharing a
// cache dir see either nothing or a complete, verifiable entry. Transient
// write failures are retried with bounded backoff; persistent ones only
// cost the warm start, never the campaign.
func (c *Cache) storeDiskEntry(path string, bin *Binary, prof *Profile) {
	var payload bytes.Buffer
	d := diskEntry{Version: diskFormatVersion, Img: bin.Img, Sites: bin.Sites,
		Cfg: bin.Cfg, Prof: prof, Fire: bin.firePts}
	if err := gob.NewEncoder(&payload).Encode(&d); err != nil {
		c.diskErrors.Add(1)
		return
	}
	c.writePayload(path, payload.Bytes(), "campaign.cache.store", "campaign.cache.stored")
}

// readPayload reads a checksummed disk-cache file (build entry or section
// entry), verifying the leading SHA-256 self-checksum. A missing file is a
// plain miss; a transient read failure (seam names the chaos injection
// point) is retried with bounded backoff, then counted as a disk error and
// treated as a miss; a torn or bit-rotted file is quarantined. Returns the
// gob payload past the checksum.
func (c *Cache) readPayload(path, seam string) ([]byte, bool) {
	var data []byte
	err := backoff.Retry(func() error {
		if err := chaos.Err(seam); err != nil {
			return err
		}
		var err error
		data, err = os.ReadFile(path)
		if os.IsNotExist(err) {
			return backoff.Permanent(err)
		}
		return err
	})
	if err != nil {
		if !os.IsNotExist(err) {
			c.diskErrors.Add(1)
		}
		return nil, false
	}
	if len(data) < checksumLen {
		c.quarantine(path)
		return nil, false
	}
	payload := data[checksumLen:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], data[:checksumLen]) {
		c.quarantine(path)
		return nil, false
	}
	return payload, true
}

// writePayload atomically persists a checksummed payload (temp file +
// rename) with bounded retry around the chaos seam; storedSeam is the
// post-rename corruption injection point for the quarantine tests.
func (c *Cache) writePayload(path string, payload []byte, seam, storedSeam string) {
	sum := sha256.Sum256(payload)
	err := backoff.Retry(func() error {
		if err := chaos.Err(seam); err != nil {
			return err
		}
		tmp, err := os.CreateTemp(c.dir, ".fic-*")
		if err != nil {
			return err
		}
		if _, err := tmp.Write(sum[:]); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
		if _, err := tmp.Write(payload); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return err
		}
		if err := os.Rename(tmp.Name(), path); err != nil {
			os.Remove(tmp.Name())
			return err
		}
		return nil
	})
	if err != nil {
		c.diskErrors.Add(1)
		return
	}
	// Chaos seam: the bit-rot / torn-write injection point for the cache
	// quarantine tests — corrupts the just-renamed entry in place.
	chaos.Corrupt(storedSeam, path)
}

// Len reports the number of cached entries (for tests and diagnostics).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// machine pooling ------------------------------------------------------------

// idle holds the process's idle machines, one stack per address-space size
// (vm.Image.MemSize): a 4 MiB address space belongs to the process, not to
// what was built, so every build of a size draws from one stack and a machine
// last used for another image is rebound to the borrower's instead of being
// reallocated. Nothing is dropped — not at a GC, not with a discarded cache —
// so a stack holds as many machines as were ever in use at once: one per
// worker.
var idle = struct {
	sync.Mutex
	bySize map[int64][]*vm.Machine
}{bySize: map[int64][]*vm.Machine{}}

// newMachines counts the address spaces NewMachine has allocated (for the
// tests' allocation gate).
var newMachines atomic.Uint64

// AcquireMachine returns a reset machine for the binary, borrowed from the
// process's pool when one of the image's size is idle, so a worker's machine
// — and its dirty-page state — survives across trials, campaigns and builds
// instead of being reallocated per run. Release with ReleaseMachine.
func (b *Binary) AcquireMachine() *vm.Machine {
	m := b.acquireMachine()
	m.Reset()
	return m
}

// acquireMachine is AcquireMachine without the Reset, for the campaign
// runner: runTrialOn sets the start state itself, so a trial pays one Reset
// or one Restore, never both. A pooled machine comes back as its last run
// left it; one from another image is rebound first, with output bound.
func (b *Binary) acquireMachine() *vm.Machine {
	size := b.Img.MemSize
	var m *vm.Machine
	idle.Lock()
	if s := idle.bySize[size]; len(s) > 0 {
		m, idle.bySize[size] = s[len(s)-1], s[:len(s)-1]
	}
	idle.Unlock()
	switch {
	case m == nil:
		return b.NewMachine()
	case m.Img != b.Img:
		m.Rebind(b.Img)
		bindOutput(m)
	}
	return m
}

// ReleaseMachine returns a machine obtained from AcquireMachine to the pool.
func (b *Binary) ReleaseMachine(m *vm.Machine) {
	size := int64(len(m.Mem))
	idle.Lock()
	idle.bySize[size] = append(idle.bySize[size], m)
	idle.Unlock()
}

// AcquireImageClone returns a private copy of the binary's image for
// injectors that mutate the instruction stream in place (opcode
// corruption), pooled copy-on-first-acquire. The caller must return the
// clone with ReleaseImageClone in its original state — restore any
// mutation first — so a pooled clone is always pristine.
func (b *Binary) AcquireImageClone() *vm.Image {
	if v := b.imgPool.Get(); v != nil {
		return v.(*vm.Image)
	}
	return b.Img.Clone()
}

// ReleaseImageClone returns a clone obtained from AcquireImageClone.
func (b *Binary) ReleaseImageClone(img *vm.Image) {
	b.imgPool.Put(img)
}
