package campaign

// Native fuzz targets for the disk stores a campaign reads: build entries
// (.fic), and the two stores restored trials come from, section entries
// (.fis) and journal segments (.fij). None may panic on what it reads. A
// build entry either loads as a build whose image the machine can run
// (vm.Image.Validate) or is quarantined; a section entry either loads whole
// and in range or is quarantined; a journal segment is at worst a torn tail.
// The seeds are encoded here from a real campaign over versionTestApp: the
// real file, a truncated copy and one of the wrong version (for a build
// entry, one whose image names a register past the file). Run one target
// with
//
//	go test -run '^$' -fuzz '^FuzzSectionEntry$' -fuzztime=10s -fuzzminimizetime=100x ./internal/campaign/
//
// (the default 60 s minimization of each new input would eat a 10 s budget).

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vx"
)

// fuzzTrials is the seed campaign's length, and the range every fuzzed
// section entry is loaded against.
const fuzzTrials = 16

// seedStores runs a small campaign into a fresh disk cache and a fresh
// journal, and returns their directories.
func seedStores(f *testing.F) (cacheDir, journalDir string) {
	cacheDir, journalDir = f.TempDir(), f.TempDir()
	cache, err := NewDiskCache(cacheDir)
	if err != nil {
		f.Fatal(err)
	}
	j, err := OpenJournal(journalDir)
	if err != nil {
		f.Fatal(err)
	}
	defer j.Close()
	if _, err := New(versionTestApp(), PINFI, WithTrials(fuzzTrials), WithCache(cache),
		WithJournal(j)).Run(context.Background()); err != nil {
		f.Fatal(err)
	}
	return cacheDir, journalDir
}

func FuzzCacheEntry(f *testing.F) {
	dir, _ := seedStores(f)
	paths, err := filepath.Glob(filepath.Join(dir, "*.fic"))
	if err != nil || len(paths) != 1 {
		f.Fatalf("the seed campaign left build entries %v (%v)", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		f.Fatal(err)
	}
	real := data[checksumLen:]
	var e diskEntry
	if err := gob.NewDecoder(bytes.NewReader(real)).Decode(&e); err != nil {
		f.Fatal(err)
	}
	reencode := func(edit func()) []byte {
		edit()
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(&e); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(reencode(func() { e.Img.Instrs[e.Img.EntryPC].AReg = vx.NumRegs }))
	f.Add(reencode(func() { e.Version = diskFormatVersion - 1 }))

	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := NewDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(c.dir, "fuzz.fic")
		c.writePayload(path, payload, "campaign.cache.store", "campaign.cache.stored")
		bin, _, ok := c.loadDiskEntry(path, versionTestApp(), PINFI)
		if !ok {
			if _, err := os.Stat(path + ".quarantine"); err != nil || c.quarantined.Load() != 1 {
				t.Fatalf("rejected entry not quarantined: %v", err)
			}
			return
		}
		if err := bin.Img.Validate(); err != nil {
			t.Fatalf("loaded a build the machine cannot run: %v", err)
		}
	})
}

func FuzzSectionEntry(f *testing.F) {
	dir, _ := seedStores(f)
	paths, err := filepath.Glob(filepath.Join(dir, "*.fis"))
	if err != nil {
		f.Fatal(err)
	}
	var real []byte // the largest stored payload, past its checksum
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		if len(data)-checksumLen > len(real) {
			real = data[checksumLen:]
		}
	}
	var e sectionEntry
	if err := gob.NewDecoder(bytes.NewReader(real)).Decode(&e); err != nil || len(e.Idx) == 0 {
		f.Fatalf("the seed campaign stored no non-empty section entry (%d files, %v)", len(paths), err)
	}
	e.Version = diskFormatVersion - 1
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&e); err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(old.Bytes())

	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := NewDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(c.dir, "fuzz.fis")
		c.writePayload(path, payload, "campaign.sections.store", "campaign.sections.stored")
		e, ok := c.loadSectionEntry(path, 0, fuzzTrials)
		if !ok {
			if _, err := os.Stat(path + ".quarantine"); err != nil {
				t.Fatalf("rejected entry not quarantined: %v", err)
			}
			return
		}
		if len(e.Idx) != len(e.TRs) {
			t.Fatalf("loaded %d indexes for %d results", len(e.Idx), len(e.TRs))
		}
		for _, idx := range e.Idx {
			if idx < 0 || idx >= fuzzTrials {
				t.Fatalf("loaded index %d outside [0, %d)", idx, fuzzTrials)
			}
		}
	})
}

func FuzzJournalSegment(f *testing.F) {
	_, dir := seedStores(f)
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*"+journalExt))
	if err != nil || len(segs) != 1 {
		f.Fatalf("the seed campaign left segments %v (%v)", segs, err)
	}
	real, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	// Another format's entries: the field names of journalEntry, other types.
	var old bytes.Buffer
	enc := gob.NewEncoder(&old)
	for i := 0; i < 3; i++ {
		if err := enc.Encode(struct {
			Key   int
			Index string
		}{i, "x"}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(old.Bytes())

	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000001"+journalExt), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir)
		if err != nil {
			t.Fatalf("a bad segment is a torn tail, not an error: %v", err)
		}
		defer j.Close()
		if st := j.Stats(); st.Segments != 1 || st.Torn > 1 {
			t.Fatalf("one segment read as %+v", st)
		}
	})
}
