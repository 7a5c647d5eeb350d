package cas

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore(t.TempDir())
	blob := []byte("reverse state reconstruction")
	sum, err := s.Put(blob)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if sum != Sum(blob) {
		t.Fatalf("Put sum = %s, want %s", sum, Sum(blob))
	}
	got, err := s.Get(sum)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get(Sum([]byte("absent"))); err != ErrNotFound {
		t.Fatalf("Get(absent) err = %v, want ErrNotFound", err)
	}

	if err := s.Link("ckpt|twolf", sum); err != nil {
		t.Fatalf("Link: %v", err)
	}
	r, err := s.Resolve("ckpt|twolf")
	if err != nil || r != sum {
		t.Fatalf("Resolve = %s, %v", r, err)
	}
	if _, err := s.Resolve("missing"); err != ErrNotFound {
		t.Fatalf("Resolve(missing) err = %v, want ErrNotFound", err)
	}
}

func TestStoreDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	blob := []byte("persisted blob")
	sum, err := NewStore(dir).Put(blob)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := NewStore(dir).Link("k", sum); err != nil {
		t.Fatalf("Link: %v", err)
	}

	// A fresh store over the same directory sees both spaces.
	s := NewStore(dir)
	got, err := s.Get(sum)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("Get after reopen = %q, %v", got, err)
	}
	if r, err := s.Resolve("k"); err != nil || r != sum {
		t.Fatalf("Resolve after reopen = %s, %v", r, err)
	}
}

func TestQuarantineLayout(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir)
	blob := []byte("will be corrupted")
	sum, err := s.Put(blob)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}

	// Corrupt the entry behind a second store over the same directory.
	if err := os.WriteFile(filepath.Join(dir, "blobs", sum), []byte("scribbled"), 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	s2 := NewStore(dir)
	if _, err := s2.Get(sum); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Get of corrupt blob err = %v, want ErrCorrupt", err)
	}
	if s2.Stats().Corrupt != 1 {
		t.Fatalf("Corrupt counter = %d, want 1", s2.Stats().Corrupt)
	}
	// The evidence moved to quarantine; the blob path is free for a rewrite.
	if _, err := os.Stat(filepath.Join(dir, "quarantine", sum)); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "blobs", sum)); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob still at its path: %v", err)
	}
	if _, err := s2.Put(blob); err != nil {
		t.Fatalf("rewrite after quarantine: %v", err)
	}
	if got, err := s2.Get(sum); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("Get after rewrite = %q, %v", got, err)
	}
}

// TestPutRetriesAfterFailedWrite pins that a failed disk write is not
// remembered as a success: once the directory is usable the same Put lands,
// and a fresh store reads the blob back.
func TestPutRetriesAfterFailedWrite(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cas")
	// A regular file where the store's directory should be: nothing under it
	// can be created.
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(dir)
	blob := []byte("written on the second try")
	if _, err := s.Put(blob); err == nil {
		t.Fatal("Put into an unwritable directory succeeded")
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	sum, err := s.Put(blob)
	if err != nil {
		t.Fatalf("Put after the directory was fixed: %v", err)
	}
	if got, err := NewStore(dir).Get(sum); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("fresh store Get = %q, %v: the retry never reached the disk", got, err)
	}
}

// TestQuarantineRepairsEntryPaths covers what can sit on an entry's path
// besides good bytes — a directory squatting on a blob or an index entry, a
// scribbled or truncated index entry — each is reported as ErrCorrupt once,
// moved to quarantine, and repaired by the rewrite.
func TestQuarantineRepairsEntryPaths(t *testing.T) {
	blob := []byte("bytes worth keeping")
	sum := Sum(blob)
	squat := func(t *testing.T, path string) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	scribble := func(b []byte) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name, space string
		damage      func(t *testing.T, path string)
	}{
		{"blobSquatter", "blobs", squat},
		{"indexSquatter", "index", squat},
		{"indexScribbled", "index", scribble([]byte("not a sum"))},
		{"indexTruncated", "index", scribble([]byte(sum[:32]))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := NewStore(dir)
			if _, err := s.Put(blob); err != nil {
				t.Fatal(err)
			}
			if err := s.Link("k", sum); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "blobs", sum)
			if tc.space == "index" {
				path = filepath.Join(dir, "index", Sum([]byte("k")))
			}
			tc.damage(t, path)

			s = NewStore(dir) // a restart
			_, err := s.Resolve("k")
			if err == nil {
				_, err = s.Get(sum)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("read of damaged entry err = %v, want ErrCorrupt", err)
			}
			if st := s.Stats(); st.Corrupt != 1 || st.Quarantined != 1 {
				t.Fatalf("stats = %+v, want one corrupt entry, quarantined", st)
			}
			if _, err := os.Lstat(filepath.Join(dir, "quarantine", filepath.Base(path))); err != nil {
				t.Fatalf("evidence not in quarantine: %v", err)
			}
			if _, err := os.Lstat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged entry still on its path: %v", err)
			}

			// The rewrite lands on the freed path and a restart reads it.
			if _, err := s.Put(blob); err != nil {
				t.Fatalf("rewrite blob: %v", err)
			}
			if err := s.Link("k", sum); err != nil {
				t.Fatalf("relink: %v", err)
			}
			s = NewStore(dir)
			if r, err := s.Resolve("k"); err != nil || r != sum {
				t.Fatalf("Resolve after repair = %s, %v", r, err)
			}
			if got, err := s.Get(sum); err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("Get after repair = %q, %v", got, err)
			}
		})
	}
}
