package engine

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rsr/internal/cas"
	"rsr/internal/fault"
	"rsr/internal/warmup"
)

// entryPaths locates a cached job's two files under the store layout: the
// index entry <dir>/index/<sha256(job hash)> and the blob it names,
// <dir>/blobs/<sha256(bytes)>.
func entryPaths(t *testing.T, dir string, j Job) (index, blob string) {
	t.Helper()
	index = filepath.Join(dir, "index", cas.Sum([]byte(j.Hash())))
	sum, err := os.ReadFile(index)
	if err != nil {
		t.Fatalf("index entry missing after run: %v", err)
	}
	blob = filepath.Join(dir, "blobs", string(sum))
	if _, err := os.Stat(blob); err != nil {
		t.Fatalf("blob missing after run: %v", err)
	}
	return index, blob
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// squat replaces the file at path with a directory.
func squat(t *testing.T, path string) {
	t.Helper()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
}

// TestCacheCorruptionFallsBackToRecompute covers the failure modes of the
// on-disk store, on the blob and on the index entry that names it: garbage
// bytes, a truncated file, a directory squatting on the file name, an index
// entry linking another job's (perfectly valid) blob, and one linking an
// intact blob of this job's hash that carries no payload. All must read as
// counted misses and the job must recompute and repair the entry; everything
// but the two intact links must leave its evidence in quarantine.
func TestCacheCorruptionFallsBackToRecompute(t *testing.T) {
	j := sampledJob("twolf", warmup.Spec{Kind: warmup.KindNone})
	other := sampledJob("parser", warmup.Spec{Kind: warmup.KindNone})

	corruptions := []struct {
		name      string
		unscathed bool // no bad bytes: nothing to quarantine
		corrupt   func(t *testing.T, dir, index, blob string)
	}{
		{"garbage", false, func(t *testing.T, _, _, blob string) {
			writeFile(t, blob, []byte("!!not json!!"))
		}},
		{"truncated", false, func(t *testing.T, _, _, blob string) {
			b, err := os.ReadFile(blob)
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, blob, b[:len(b)/2])
		}},
		{"directory", false, func(t *testing.T, _, _, blob string) { squat(t, blob) }},
		{"wrongJob", true, func(t *testing.T, dir, index, _ string) {
			otherIndex, _ := entryPaths(t, dir, other)
			sum, err := os.ReadFile(otherIndex)
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, index, sum)
		}},
		{"noPayload", true, func(t *testing.T, dir, index, _ string) {
			b, err := json.Marshal(Result{JobHash: j.Hash(), Kind: JobSampled})
			if err != nil {
				t.Fatal(err)
			}
			sum := cas.Sum(b)
			writeFile(t, filepath.Join(dir, "blobs", sum), b)
			writeFile(t, index, []byte(sum))
		}},
		{"indexScribbled", false, func(t *testing.T, _, index, _ string) {
			writeFile(t, index, []byte("!!not a sum!!"))
		}},
		{"indexTruncated", false, func(t *testing.T, _, index, _ string) {
			sum, err := os.ReadFile(index)
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, index, sum[:len(sum)/2])
		}},
		{"indexDirectory", false, func(t *testing.T, _, index, _ string) { squat(t, index) }},
	}

	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()

			e1 := New(Options{Workers: 1, CacheDir: dir})
			want, err := e1.Run(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e1.Run(context.Background(), other); err != nil {
				t.Fatal(err)
			}
			e1.Close()

			index, blob := entryPaths(t, dir, j)
			tc.corrupt(t, dir, index, blob)

			e2 := New(Options{Workers: 1, CacheDir: dir})
			defer e2.Close()
			got, err := e2.Run(context.Background(), j)
			if err != nil {
				t.Fatalf("corrupt cache must fall back to recompute: %v", err)
			}
			if got.Sampled.IPCEstimate() != want.Sampled.IPCEstimate() {
				t.Error("recomputed result diverged")
			}
			s := e2.Stats()
			if s.CacheHits != 0 || s.CacheMisses != 1 || s.Done != 1 {
				t.Errorf("corrupt entry was not a miss: %+v", s)
			}
			if s.DiskErrors == 0 {
				t.Errorf("corruption not counted in DiskErrors: %+v", s)
			}
			// The bad bytes survive for inspection ...
			ents, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
			if tc.unscathed {
				if s.Quarantined != 0 || len(ents) != 0 {
					t.Errorf("valid blob of another job was quarantined: %+v, %d files", s, len(ents))
				}
			} else if s.Quarantined != 1 || len(ents) != 1 {
				t.Errorf("corrupt entry was not quarantined: %+v, %d files", s, len(ents))
			}
			// ... and the rewrite repaired the live entry: a third engine
			// gets a verified disk hit.
			e3 := New(Options{Workers: 1, CacheDir: dir})
			defer e3.Close()
			if _, err := e3.Run(context.Background(), j); err != nil {
				t.Fatal(err)
			}
			if s := e3.Stats(); s.DiskHits != 1 || s.DiskErrors != 0 {
				t.Errorf("rewrite did not repair the entry: %+v", s)
			}
		})
	}
}

// TestCacheIgnoresLegacyEntries pins the format bump: a <hash>.json file of
// the pre-store layout is neither read (a plain miss, no disk error) nor
// touched.
func TestCacheIgnoresLegacyEntries(t *testing.T) {
	dir := t.TempDir()
	j := sampledJob("twolf", warmup.Spec{Kind: warmup.KindNone})
	legacy := filepath.Join(dir, j.Hash()+".json")
	content := []byte(`{"format":2,"sha256":"00","result":{}}`)
	writeFile(t, legacy, content)

	e := New(Options{Workers: 1, CacheDir: dir})
	if _, err := e.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if s := e.Stats(); s.CacheMisses != 1 || s.DiskErrors != 0 || s.Quarantined != 0 {
		t.Errorf("stats = %+v, want a clean miss", s)
	}
	if got, err := os.ReadFile(legacy); err != nil || string(got) != string(content) {
		t.Errorf("legacy entry touched: %q, %v", got, err)
	}
}

// TestCacheHoldsOneCopy pins what the engine keeps of a disk-backed result:
// the decoded value in its own map (the store holds nothing in memory). A
// second engine's first lookup is a disk hit, and a hot hit is a map lookup
// — no decode, no allocation.
func TestCacheHoldsOneCopy(t *testing.T) {
	dir := t.TempDir()
	j := sampledJob("twolf", warmup.Spec{Kind: warmup.KindNone})
	e1 := New(Options{Workers: 1, CacheDir: dir})
	defer e1.Close()
	if _, err := e1.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}

	e2 := New(Options{Workers: 1, CacheDir: dir})
	defer e2.Close()
	if _, err := e2.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if s := e2.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want a disk hit", s)
	}
	hash := j.Hash()
	if n := testing.AllocsPerRun(100, func() {
		if _, class := e2.cache.get(hash); class != hitHot {
			t.Fatal("promoted result is not a hot hit")
		}
	}); n != 0 {
		t.Errorf("hot hit allocates %v times, want 0", n)
	}
}

// TestCacheTornWriteQuarantined injects a torn write (a prefix of the blob
// reaching its final path, through the store's own writer) and checks the
// read side detects it against the content address, quarantines the corpse,
// and recomputes identically.
func TestCacheTornWriteQuarantined(t *testing.T) {
	dir := t.TempDir()
	j := sampledJob("twolf", warmup.Spec{Kind: warmup.KindNone})

	plan := fault.New(7, fault.Rule{Point: fault.CacheWrite, Kind: fault.KindTorn, Prob: 1, Count: 1})
	e1 := New(Options{Workers: 1, CacheDir: dir, Fault: plan})
	want, err := e1.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if plan.FiredAt(fault.CacheWrite) != 1 {
		t.Fatal("torn-write rule did not fire")
	}

	e2 := New(Options{Workers: 1, CacheDir: dir})
	defer e2.Close()
	got, err := e2.Run(context.Background(), j)
	if err != nil {
		t.Fatalf("torn entry must fall back to recompute: %v", err)
	}
	if got.Sampled.IPCEstimate() != want.Sampled.IPCEstimate() {
		t.Error("recomputed result diverged from the original")
	}
	s := e2.Stats()
	if s.CacheHits != 0 || s.Done != 1 || s.Quarantined != 1 || s.DiskErrors == 0 {
		t.Errorf("stats = %+v, want miss + recompute + one quarantined entry", s)
	}
	if ents, _ := os.ReadDir(filepath.Join(dir, "quarantine")); len(ents) != 1 {
		t.Errorf("quarantine holds %d files, want the torn blob", len(ents))
	}
}

// TestCacheInjectedReadErrorRecomputes covers the transient disk-read
// fault: the lookup degrades to a miss (no quarantine — the bytes may be
// fine) and the job recomputes.
func TestCacheInjectedReadErrorRecomputes(t *testing.T) {
	dir := t.TempDir()
	j := sampledJob("twolf", warmup.Spec{Kind: warmup.KindNone})

	e1 := New(Options{Workers: 1, CacheDir: dir})
	if _, err := e1.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	plan := fault.New(13, fault.Rule{Point: fault.CacheRead, Kind: fault.KindError, Prob: 1, Count: 1})
	e2 := New(Options{Workers: 1, CacheDir: dir, Fault: plan})
	defer e2.Close()
	if _, err := e2.Run(context.Background(), j); err != nil {
		t.Fatalf("injected read error must not fail the job: %v", err)
	}
	s := e2.Stats()
	if s.Done != 1 || s.DiskErrors != 1 || s.Quarantined != 0 {
		t.Errorf("stats = %+v, want recompute with one disk error and no quarantine", s)
	}
	// The healthy entry is still there: a fresh engine reads it.
	e3 := New(Options{Workers: 1, CacheDir: dir})
	defer e3.Close()
	if _, err := e3.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if s := e3.Stats(); s.DiskHits != 1 {
		t.Errorf("entry lost after transient read error: %+v", s)
	}
}

// TestCacheUnwritableDirDegradesToMemory points the cache at an impossible
// path; jobs must still run, with the failure surfaced in DiskErrors.
func TestCacheUnwritableDirDegradesToMemory(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A path under a regular file can never be created.
	e := New(Options{Workers: 1, CacheDir: filepath.Join(f, "sub")})
	defer e.Close()

	j := sampledJob("twolf", warmup.Spec{Kind: warmup.KindNone})
	if _, err := e.Run(context.Background(), j); err != nil {
		t.Fatalf("unwritable cache dir must not fail jobs: %v", err)
	}
	// Second submission is served by the in-memory layer.
	if _, err := e.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Done != 1 || s.CacheHits != 1 || s.DiskErrors == 0 {
		t.Errorf("stats = %+v, want one run, one memory hit, disk errors counted", s)
	}
}

// TestResultRoundTrip pins that a result survives the disk format: a fresh
// engine over the same directory reproduces the full cluster detail.
func TestResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := sampledJob("parser", warmup.Spec{Kind: warmup.KindReverse, Percent: 40, Cache: true, BPred: true})

	e1 := New(Options{Workers: 1, CacheDir: dir})
	want, err := e1.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2 := New(Options{Workers: 1, CacheDir: dir})
	defer e2.Close()
	got, err := e2.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sampled.Method != want.Sampled.Method ||
		len(got.Sampled.Clusters) != len(want.Sampled.Clusters) ||
		got.Sampled.Work != want.Sampled.Work ||
		got.Sampled.HotInstructions != want.Sampled.HotInstructions {
		t.Errorf("disk round-trip lost detail:\n got %+v\nwant %+v", got.Sampled, want.Sampled)
	}
	for i := range want.Sampled.Clusters {
		if got.Sampled.Clusters[i] != want.Sampled.Clusters[i] {
			t.Fatalf("cluster %d changed across the round-trip", i)
		}
	}
}
