// Package cas is a content-addressed blob store on disk: blobs keyed by the
// hex SHA-256 of their bytes, in a directory. The engine's on-disk result
// cache is one, and so is the sweep coordinator's result store, into which
// it writes the result bytes each worker's completion report carries. The
// store keeps nothing in memory: every Get reads and verifies the file, and
// a process with no directory has no store.
//
// Content addressing makes every blob self-verifying: a reader recomputes
// the sum and refuses bytes that do not hash to their key. Corrupt or torn
// entries are detected positively, quarantined under <dir>/quarantine (never
// served, never silently deleted), and the caller falls back to recomputing,
// whose write repairs the entry. Because blobs are pure functions of
// their key, writes race benignly: every writer writes the same bytes.
//
// Alongside the blob space the store keeps a small name index mapping
// semantic keys (an engine job hash) to blob sums. Index entries are only
// ever written for deterministic artifacts, so a lost or re-linked entry
// costs a recompute, never correctness.
package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync/atomic"
	"time"

	"rsr/internal/fault"
)

// ErrNotFound reports a blob or index key that is not in the store.
var ErrNotFound = errors.New("cas: not found")

// ErrCorrupt reports a disk entry that could not be trusted: a blob whose
// bytes did not hash to its key, a malformed index entry, or something
// unreadable squatting on an entry's path. The entry has been quarantined;
// callers should refetch from another source or recompute.
var ErrCorrupt = errors.New("cas: corrupt entry")

// Sum returns the store key for a blob: hex SHA-256 of its bytes.
func Sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

var sumRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidSum reports whether s is a well-formed blob key.
func ValidSum(s string) bool { return sumRE.MatchString(s) }

// Stats is a point-in-time snapshot of a store's counters: Corrupt counts
// disk entries (blobs and index entries) that failed verification,
// Quarantined those of them moved aside.
type Stats struct {
	Corrupt, Quarantined int64
}

// Store holds blobs and index entries in one directory. All methods are
// safe for concurrent use. The zero value is not usable; call NewStore.
type Store struct {
	// Fault, nil in production, is consulted before every disk write
	// (fault.CacheWrite), keyed by the blob sum or the index key. Set it
	// before the store is shared.
	Fault fault.Injector

	dir string

	corrupt, quarantined atomic.Int64
}

// NewStore returns a store rooted at dir, which must not be empty. The
// directory is created lazily on first write, so an unusable path degrades
// writes, never construction.
func NewStore(dir string) *Store {
	return &Store{dir: dir}
}

func (s *Store) blobPath(sum string) string {
	return filepath.Join(s.dir, "blobs", sum)
}

func (s *Store) indexPath(key string) string {
	// Index keys are themselves hex hashes or URL-safe tokens upstream, but
	// hash defensively so arbitrary keys cannot escape the directory.
	return filepath.Join(s.dir, "index", Sum([]byte(key)))
}

// Put writes b and returns its sum. Content addressing makes the write
// idempotent: every writer of a sum writes the same bytes.
func (s *Store) Put(b []byte) (string, error) {
	sum := Sum(b)
	if err := s.writeFile(s.blobPath(sum), sum, b); err != nil {
		return sum, fmt.Errorf("cas: put %.12s: %w", sum, err)
	}
	return sum, nil
}

// Get returns the blob stored under sum, verified against the key before it
// is served; a mismatch quarantines the file and returns ErrCorrupt so the
// caller can recompute and re-put the bytes.
func (s *Store) Get(sum string) ([]byte, error) {
	b, err := os.ReadFile(s.blobPath(sum))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil || Sum(b) != sum {
		// Positively bad bytes, or something unreadable squatting on the
		// path: move the evidence aside so the next Put starts clean, and
		// never serve it.
		s.quarantine(s.blobPath(sum))
		return nil, fmt.Errorf("%w: blob %.12s", ErrCorrupt, sum)
	}
	return b, nil
}

// Link binds a semantic key to a blob sum in the name index.
func (s *Store) Link(key, sum string) error {
	if !ValidSum(sum) {
		return fmt.Errorf("cas: link %q: malformed sum %q", key, sum)
	}
	if err := s.writeFile(s.indexPath(key), key, []byte(sum)); err != nil {
		return fmt.Errorf("cas: link %q: %w", key, err)
	}
	return nil
}

// Resolve returns the blob sum bound to key, or ErrNotFound. A malformed
// index entry (truncated, scribbled) is quarantined and reported as
// ErrCorrupt; the index is a cache of recomputable bindings, not a source
// of truth, so the caller recomputes and relinks.
func (s *Store) Resolve(key string) (string, error) {
	b, err := os.ReadFile(s.indexPath(key))
	if os.IsNotExist(err) {
		return "", ErrNotFound
	}
	if err != nil || !ValidSum(string(b)) {
		s.quarantine(s.indexPath(key))
		return "", fmt.Errorf("%w: index entry of %q", ErrCorrupt, key)
	}
	return string(b), nil
}

// Stats returns the store's counters; a nil store has counted nothing.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{Corrupt: s.corrupt.Load(), Quarantined: s.quarantined.Load()}
}

// quarantine counts the entry at path (a blob, an index entry, or whatever
// squats there) as corrupt and moves it into <dir>/quarantine, uniquified if
// a previous corpse is already there, so the path is free for the rewrite.
func (s *Store) quarantine(path string) {
	s.corrupt.Add(1)
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	dst := filepath.Join(qdir, filepath.Base(path))
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", filepath.Base(path), i))
	}
	if os.Rename(path, dst) == nil {
		s.quarantined.Add(1)
	}
}

// writeFile writes one disk entry atomically. An injected torn write lands
// a prefix of the entry at its final path, as a crash mid-write that still
// became visible would, to prove the read side catches it.
func (s *Store) writeFile(path, key string, b []byte) error {
	if d := fault.Check(s.Fault, fault.CacheWrite, key); d != nil {
		switch d.Kind {
		case fault.KindError:
			return d.Err
		case fault.KindTorn:
			b = b[:len(b)/2]
		case fault.KindLatency:
			time.Sleep(d.Latency)
		}
	}
	return WriteFileAtomic(path, b)
}

// WriteFileAtomic writes b to path with the store's crash discipline — temp
// file in the same directory, fsync, rename — creating parent directories as
// needed. A reader (or a restart) never observes a torn entry; it sees the
// old content or the new, nothing in between. Shared by the cluster
// coordinator's journal snapshots, which need exactly this guarantee.
func WriteFileAtomic(path string, b []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
