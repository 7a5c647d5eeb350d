package cas

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rsr/internal/fault"
)

// TestChaosCorruptBlobQuarantinedAndRepaired is the store's half of the
// fabric's failure story: a torn blob on a node's disk is quarantined on read
// and never served — the read fails instead of returning the bad bytes — and
// re-putting the verified bytes repairs the store, which then serves them,
// also to a store reopened over the directory.
func TestChaosCorruptBlobQuarantinedAndRepaired(t *testing.T) {
	blob := []byte("result bytes: a pure function of the job")
	sum := Sum(blob)

	// The node's copy is torn on disk (a crash mid-write that became
	// visible).
	dir := t.TempDir()
	sick := NewStore(dir)
	if _, err := sick.Put(blob); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blobs", sum), blob[:len(blob)/2], 0o644); err != nil {
		t.Fatalf("tear: %v", err)
	}
	sick = NewStore(dir) // a restart

	// The torn copy must fail the read (quarantined, not served).
	if got, err := sick.Get(sum); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of a torn blob = %q, %v; want ErrCorrupt", got, err)
	}
	if got, err := sick.Get(sum); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Get = %q, %v; want ErrNotFound (the bytes are quarantined)", got, err)
	}
	if sick.Stats().Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", sick.Stats().Corrupt)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", sum)); err != nil {
		t.Fatalf("torn blob not quarantined: %v", err)
	}

	// The node repairs itself by re-putting the verified bytes.
	if _, err := sick.Put(blob); err != nil {
		t.Fatalf("repair Put: %v", err)
	}
	got, err := NewStore(dir).Get(sum)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("Get after repair = %q, %v", got, err)
	}
}

// TestChaosInjectedTornWriteQuarantined drives the store's one injection
// seam: a torn write of a blob, then of an index entry, each reaches its
// final path as a prefix, is caught on the next read (content address, sum
// syntax), quarantined, and repaired by writing again.
func TestChaosInjectedTornWriteQuarantined(t *testing.T) {
	dir := t.TempDir()
	blob := []byte("a result some job took a while to compute")
	plan := fault.New(1,
		fault.Rule{Point: fault.CacheWrite, Kind: fault.KindTorn, Prob: 1, Count: 2},
		fault.Rule{Point: fault.CacheWrite, Kind: fault.KindError, Prob: 1, Count: 1})
	s := NewStore(dir)
	s.Fault = plan
	sum, err := s.Put(blob)
	if err != nil {
		t.Fatalf("torn Put reported %v: a torn write is silent", err)
	}
	if err := s.Link("job", sum); err != nil {
		t.Fatalf("torn Link reported %v", err)
	}
	if _, err := s.Put([]byte("other bytes")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Put under an injected write error = %v, want the injected error", err)
	}

	s = NewStore(dir) // a restart
	if _, err := s.Resolve("job"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Resolve of torn index entry err = %v, want ErrCorrupt", err)
	}
	if _, err := s.Get(sum); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of torn blob err = %v, want ErrCorrupt", err)
	}
	if st := s.Stats(); st.Quarantined != 2 {
		t.Fatalf("stats = %+v, want both torn entries quarantined", st)
	}
	if _, err := s.Put(blob); err != nil {
		t.Fatal(err)
	}
	if err := s.Link("job", sum); err != nil {
		t.Fatal(err)
	}
	s = NewStore(dir)
	if r, err := s.Resolve("job"); err != nil || r != sum {
		t.Fatalf("Resolve after repair = %s, %v", r, err)
	}
	if got, err := s.Get(sum); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("Get after repair = %q, %v", got, err)
	}
}
