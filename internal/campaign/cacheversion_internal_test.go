package campaign

// White-box disk-cache payload-validation tests. The version is enforced
// twice: folded into the content address (an old harness's entries simply
// miss for a new one) and stamped inside the gob payload. The in-payload
// checks are what this file exercises — they catch the paths the address
// cannot: a cache dir populated by a tool that reuses current file names
// around an older body, or around a body whose fire-point index is missing
// or another profile's. Such an entry must take the PR 6 quarantine path
// (renamed aside, counted, rebuilt exactly once), never be half-trusted.

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ir"
	"repro/internal/pinfi"
)

// versionTestApp is a tiny self-contained workload (the internal test
// package cannot import workloads — it imports campaign).
func versionTestApp() App {
	return App{Name: "cache-version-probe", Build: func() *ir.Module {
		m := ir.NewModule("cache-version-probe")
		m.DeclareHost(ir.HostDecl{Name: "out_i64", Params: []ir.Type{ir.I64}, Ret: ir.I64})
		b := ir.NewBuilder(m)
		b.NewFunc("main", ir.I64)
		acc := b.NewVar(ir.I64, b.ConstI(0))
		b.Loop(b.ConstI(0), b.ConstI(64), b.ConstI(1), func(i *ir.Value) {
			acc.Set(b.Add(acc.Get(), b.Mul(i, i)))
		})
		b.Call("out_i64", acc.Get())
		b.Ret(b.ConstI(0))
		return m
	}}
}

func buildThroughDisk(t *testing.T, dir string) (*Binary, CacheStats) {
	t.Helper()
	cache, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	bin, _, err := cache.BuildAndProfile(versionTestApp(), PINFI, DefaultBuildOptions(), pinfi.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	return bin, cache.Stats()
}

func TestOldVersionCacheEntryQuarantinedAndRebuilt(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(d *diskEntry)
	}{
		// Version 2 predates the persisted index.
		{"old-version", func(d *diskEntry) { d.Version, d.Fire = 2, nil }},
		// Version 4 has the current body, addressed by the asking tool's
		// name: nothing but the stamp tells it apart on a version-5 path.
		{"previous-version", func(d *diskEntry) { d.Version = diskFormatVersion - 1 }},
		// Either of these would reach Lookup's out-of-range panic
		// mid-campaign if it were trusted.
		{"no-fire-index", func(d *diskEntry) { d.Fire = nil }},
		{"fire-index-of-another-profile", func(d *diskEntry) { d.Fire.N-- }},
	} {
		t.Run(tc.name, func(t *testing.T) { quarantinedAndRebuilt(t, tc.tamper) })
	}
}

// quarantinedAndRebuilt rewrites a stored entry in place as tamper leaves it
// — valid checksum, current path: well-preserved, decodable, untrustworthy —
// and expects one quarantine, one rebuild and a clean warm hit afterwards.
func quarantinedAndRebuilt(t *testing.T, tamper func(d *diskEntry)) {
	dir := t.TempDir()

	// Cold: build, profile, record fire points (PINFI is a FirePointUser),
	// store.
	bin, cold := buildThroughDisk(t, dir)
	if cold.Builds != 1 || cold.DiskHits != 0 {
		t.Fatalf("cold run: %+v, want one build", cold)
	}
	if bin.firePts == nil {
		t.Fatal("cold run left no fire-point index on a FirePointUser binary")
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.fic"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one cache entry, got %v (err %v)", entries, err)
	}
	path := entries[0]

	// Warm: the fire-point index must ride the disk entry — no build, no
	// re-recording.
	warmBin, warm := buildThroughDisk(t, dir)
	if warm.Builds != 0 || warm.DiskHits != 1 {
		t.Fatalf("warm run: %+v, want pure disk hit", warm)
	}
	if warmBin.firePts == nil {
		t.Fatal("warm run did not restore the fire-point index from disk")
	}
	if warmBin.firePts.N != bin.firePts.N || !bytes.Equal(warmBin.firePts.Stream, bin.firePts.Stream) {
		t.Fatal("restored fire-point index differs from the recorded one")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d diskEntry
	if err := gob.NewDecoder(bytes.NewReader(data[checksumLen:])).Decode(&d); err != nil {
		t.Fatal(err)
	}
	tamper(&d)
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&d); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload.Bytes())
	if err := os.WriteFile(path, append(sum[:], payload.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}

	// The tampered entry must quarantine and rebuild once.
	rebuilt, stats := buildThroughDisk(t, dir)
	if stats.Quarantined != 1 || stats.Builds != 1 {
		t.Fatalf("tampered run: %+v, want quarantine + one rebuild", stats)
	}
	if rebuilt.firePts == nil {
		t.Fatal("rebuild after quarantine left no fire-point index")
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}

	// And the rebuild restored warm behavior: next run is a clean disk hit.
	_, again := buildThroughDisk(t, dir)
	if again.Builds != 0 || again.DiskHits != 1 || again.Quarantined != 0 {
		t.Fatalf("post-rebuild run: %+v, want pure disk hit", again)
	}
}
