package campaign

// Compositional per-function campaign cache (the FastFlip direction, see
// PAPERS.md): alongside the whole-program build+profile entries (.fic,
// cache.go), the disk layer stores per-*section* trial outcomes (.fis) —
// one entry per target function plus one program-level entry for trials
// that injected nowhere attributable (no injection fired, or the PC fell
// outside every known function). Each section entry is content-addressed
// by the campaign identity (cache key, harness fingerprint, seed, trial
// range), a digest of the golden profile, the section name, and the
// section's canonical IR fingerprint (ir.FuncFingerprint). Editing one
// function therefore invalidates exactly that function's entries; a warm
// campaign restores every unchanged section's trials from disk and
// re-injects only the changed sections, then composes the restored and
// fresh trials through the ordinary order-deterministic collector — so the
// composed Counts/Cycles/observer stream is bit-identical to a monolithic
// run over the same cache state.
//
// Section reuse is in-process: only a campaign made with New composes. One
// rebuilt from a Spec (NewFromSpec: a shard worker's claimed range, a fi-serve
// run) names a registry app, so no edit can reach it, and its lookups would
// either all hit or all miss; it reads and writes no section entry. Identical
// reruns in every mode are the journal's.
//
// Soundness note: a fault injected in function A propagates through the
// whole program, so section reuse rests on FastFlip's compositional
// hypothesis — an edit's error-impact is local to the edited section. Two
// guards bound the approximation: changed sections are always re-injected
// (their fingerprint moved), and the profile digest (dynamic target
// population, golden output, timeout budget) is part of every address, so
// any edit with behavior-visible effect on the golden run invalidates all
// sections. An edit that preserves the emitted binary bit for bit (dead
// code, comments, DCE-erased mutations) composes exactly; the differential
// suite and the compose-smoke CI job assert the bit-identity.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/ir"
	"repro/internal/vm"
)

// appFingerprints is the memoized identity bundle of one application's
// freshly built IR: the whole-program hash (the .fic content-address
// component) and the per-function canonical fingerprints keying the
// section entries.
type appFingerprints struct {
	program string            // SHA-256 of the module's printed IR
	funcs   map[string]string // function name → ir.FuncFingerprint
	order   []string          // sorted function names (deterministic walks)
}

// fingerprints builds (once per app×memSize) the program hash and the
// per-function canonical fingerprints from a single frontend run.
func (c *Cache) fingerprints(app App) *appFingerprints {
	k := fpKey{app: app.Name, memSize: app.MemSize}
	c.mu.Lock()
	if fp, ok := c.fp[k]; ok {
		c.mu.Unlock()
		return fp
	}
	c.mu.Unlock()
	m := app.Build()
	sum := sha256.Sum256([]byte(m.String()))
	fp := &appFingerprints{
		program: hex.EncodeToString(sum[:]),
		funcs:   ir.ModuleFingerprints(m),
	}
	fp.order = make([]string, 0, len(fp.funcs))
	for name := range fp.funcs {
		fp.order = append(fp.order, name)
	}
	sort.Strings(fp.order)
	c.mu.Lock()
	if c.fp == nil {
		c.fp = make(map[fpKey]*appFingerprints)
	}
	if prev, ok := c.fp[k]; ok {
		fp = prev // lost a benign race; both computed identical bundles
	} else {
		c.fp[k] = fp
	}
	c.mu.Unlock()
	return fp
}

// ComposeStats are the compositional section-cache counters behind the
// drivers' "# compose:" line. Sections counts every section lookup across
// campaigns; Reused/Reinjected partition it into disk hits and misses.
// TrialsReused counts the trials restored from section entries and not from
// the journal, TrialsReinjected those restored by neither (executed), so
// journal replays + TrialsReused + TrialsReinjected = trials.
type ComposeStats struct {
	Sections         uint64
	Reused           uint64
	Reinjected       uint64
	TrialsReused     uint64
	TrialsReinjected uint64
}

// Compose returns the cache's compositional section counters.
func (c *Cache) Compose() ComposeStats {
	return ComposeStats{
		Sections:         c.secTotal.Load(),
		Reused:           c.secReused.Load(),
		Reinjected:       c.secReinjected.Load(),
		TrialsReused:     c.trialsReused.Load(),
		TrialsReinjected: c.trialsReinjected.Load(),
	}
}

// sectionEntry is one persisted section: the absolute trial indexes this
// section's injections landed on within the campaign's range, and their
// results, parallel slices in ascending index order. An empty entry is
// meaningful — it records that a complete campaign attributed no trial to
// the section, so a warm run doesn't mistake absence for a miss.
type sectionEntry struct {
	// Version stamps the payload with diskFormatVersion; mismatches
	// quarantine exactly like build entries.
	Version int
	Idx     []int32
	TRs     []TrialResult
}

// sectionOf attributes a trial to its target section: the image function
// containing the injected PC. Trials with no injection record (the fault
// never fired) or a PC outside every fingerprinted function fall into the
// "" program-level section, which is keyed by the whole-program hash.
func sectionOf(img *vm.Image, funcs map[string]string, tr TrialResult) string {
	if tr.Rec.Op == "" {
		return "" // no injection fired (Op is set by every tool's Record)
	}
	f := img.FuncOf(tr.Rec.PC)
	if f == nil {
		return ""
	}
	if _, ok := funcs[f.Name]; !ok {
		return ""
	}
	return f.Name
}

// profileDigest hashes the behavior-visible profile surface into the
// section addresses: the dynamic target population (which scales every
// trial's target draw), the golden output (which classifies SOC), and the
// timeout budget (which classifies crash-by-timeout). Any edit that moves
// one of these invalidates every section at once.
func profileDigest(p *Profile) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d|%d|", p.Targets, p.Budget, len(p.Golden))
	var b [8]byte
	for _, g := range p.Golden {
		binary.LittleEndian.PutUint64(b[:], g)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sectionPath derives a section entry's content address. Everything that
// can change a trial's result or attribution is folded in: the build
// identity (cache key + harness fingerprint), the tool whose trials these
// are, the seeded trial range, the profile digest, and the section's own
// canonical fingerprint.
func (c *Cache) sectionPath(k cacheKey, tool string, seed uint64, lo, hi int, profD, section, fp string) string {
	h := sha256.New()
	fmt.Fprintf(h, "s%d|%s|%d|%s|%s|%d|%q|%d|%+v|%s|%d|%d|%d|%s|%q|%s", diskFormatVersion,
		k.app, k.memSize, k.level, tool, k.opt, k.funcs, k.classes, k.costs,
		harnessFingerprint(), seed, lo, hi, profD, section, fp)
	return filepath.Join(c.dir, hex.EncodeToString(h.Sum(nil))[:40]+".fis")
}

// composeState carries one campaign's section partition between the load
// (before trials run) and the store (after a complete run).
type composeState struct {
	fps      *appFingerprints
	order    []string            // "" then sorted function names
	paths    map[string]string   // section → content address
	missed   map[string]bool     // sections to (re)inject and then store
	recorded map[int]TrialResult // trials restored from reused sections
}

// composeEnabled reports whether this campaign partitions its trial space
// through the section cache: made with New, a disk-backed cache and a
// non-empty range.
func (c *Campaign) composeEnabled() bool {
	return !c.fromSpec && c.cache != nil && c.cache.dir != "" && c.spec.Trials > c.spec.Lo
}

// composeLoad restores every unchanged section's trials from the section
// cache and merges them with the journal's recorded set (journal entries
// win on overlap; both restore identical values by the determinism
// invariant), then counts the trials the sections restored and those left to
// execute. Returns nil state when composition is disabled.
func (c *Campaign) composeLoad(prof *Profile, recorded map[int]TrialResult) (*composeState, map[int]TrialResult) {
	if !c.composeEnabled() {
		return nil, recorded
	}
	st := c.cache.loadSections(c, prof)
	if recorded == nil {
		recorded = make(map[int]TrialResult, len(st.recorded))
	}
	reused := 0
	replay(st.recorded, func(i int, tr TrialResult) {
		if _, ok := recorded[i]; !ok {
			recorded[i] = tr
			reused++
		}
	})
	c.cache.trialsReused.Add(uint64(reused))
	c.cache.trialsReinjected.Add(uint64(c.spec.Trials - c.spec.Lo - len(recorded)))
	return st, recorded
}

// composeStore persists the missed sections' trials after a complete run.
// Partial runs — cancellation, precision stop — store nothing: a section
// entry asserts the *complete* set of the section's trials in the range,
// and a truncated set would poison every later composition.
func (c *Campaign) composeStore(ctx context.Context, bin *Binary, st *composeState, col *collector) {
	if st == nil || col.comp == nil || len(st.missed) == 0 {
		return
	}
	if ctx.Err() != nil || col.stopped() || col.delivered() != c.spec.Trials-c.spec.Lo {
		return
	}
	c.cache.storeSections(c, bin, st, col.comp)
}

// loadSections walks the campaign's sections in deterministic order (the
// program-level "" section, then function names sorted), restoring each
// reused section's trials and marking changed or absent sections for
// re-injection.
func (c *Cache) loadSections(cmp *Campaign, prof *Profile) *composeState {
	fps := c.fingerprints(cmp.app)
	k := newCacheKey(cmp.app, cmp.tool, cmp.spec.Build, cmp.spec.Costs)
	profD := profileDigest(prof)
	st := &composeState{
		fps:      fps,
		order:    append([]string{""}, fps.order...),
		paths:    make(map[string]string, len(fps.order)+1),
		missed:   map[string]bool{},
		recorded: map[int]TrialResult{},
	}
	for _, sec := range st.order {
		fp := fps.program
		if sec != "" {
			fp = fps.funcs[sec]
		}
		path := c.sectionPath(k, cmp.tool.Name(), cmp.spec.Seed, cmp.spec.Lo, cmp.spec.Trials, profD, sec, fp)
		st.paths[sec] = path
		c.secTotal.Add(1)
		e, ok := c.loadSectionEntry(path, cmp.spec.Lo, cmp.spec.Trials)
		if !ok {
			c.secReinjected.Add(1)
			st.missed[sec] = true
			continue
		}
		c.secReused.Add(1)
		for j, idx := range e.Idx {
			st.recorded[int(idx)] = e.TRs[j]
		}
	}
	return st
}

// loadSectionEntry restores one section entry through the shared
// checksum/retry/quarantine path (chaos seam campaign.sections.load). A
// structurally invalid entry — version drift, ragged slices, an index
// outside the campaign range — quarantines like any corrupt artifact.
func (c *Cache) loadSectionEntry(path string, lo, hi int) (*sectionEntry, bool) {
	payload, ok := c.readPayload(path, "campaign.sections.load")
	if !ok {
		return nil, false
	}
	var e sectionEntry
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e); err != nil ||
		e.Version != diskFormatVersion || len(e.Idx) != len(e.TRs) {
		c.quarantine(path)
		return nil, false
	}
	for _, idx := range e.Idx {
		if int(idx) < lo || int(idx) >= hi {
			c.quarantine(path)
			return nil, false
		}
	}
	return &e, true
}

// storeSections groups a complete campaign's freshly executed trials by
// target section and persists one entry per missed section — including
// empty ones, so a later warm run can distinguish "this section had no
// trials" from "this section was never run". Reused sections are already
// on disk; their restored trials are skipped (the restored and fresh index
// sets are disjoint and together cover the range exactly).
func (c *Cache) storeSections(cmp *Campaign, bin *Binary, st *composeState, all []TrialResult) {
	groups := make(map[string]*sectionEntry, len(st.missed))
	for _, sec := range st.order {
		if st.missed[sec] {
			groups[sec] = &sectionEntry{Version: diskFormatVersion}
		}
	}
	for k, tr := range all {
		idx := cmp.spec.Lo + k
		if _, restored := st.recorded[idx]; restored {
			continue // already persisted under its original section
		}
		g, ok := groups[sectionOf(bin.Img, st.fps.funcs, tr)]
		if !ok {
			continue
		}
		g.Idx = append(g.Idx, int32(idx))
		g.TRs = append(g.TRs, tr)
	}
	for _, sec := range st.order {
		g, ok := groups[sec]
		if !ok {
			continue
		}
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(g); err != nil {
			c.diskErrors.Add(1)
			continue
		}
		c.writePayload(st.paths[sec], payload.Bytes(),
			"campaign.sections.store", "campaign.sections.stored")
	}
}
