package cas

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"rsr/internal/fault"
)

// TestChaosCorruptBlobRefetchedFromHealthyPeer is the CAS half of the
// fabric's failure story: a torn/corrupt blob on one node is quarantined —
// never served — and a multi-source client transparently refetches the
// same content from a healthy peer.
func TestChaosCorruptBlobRefetchedFromHealthyPeer(t *testing.T) {
	blob := []byte("checkpoint chain bytes: pure function of (workload, boundaries)")
	sum := Sum(blob)

	// Two peers hold the blob; one's copy is torn on disk (a crash
	// mid-write that became visible).
	sickDir := t.TempDir()
	sick := NewStore(sickDir)
	if _, err := sick.Put(blob); err != nil {
		t.Fatalf("sick Put: %v", err)
	}
	if err := os.WriteFile(filepath.Join(sickDir, "blobs", sum), blob[:len(blob)/2], 0o644); err != nil {
		t.Fatalf("tear: %v", err)
	}
	sick = NewStore(sickDir) // drop the memory copy, like a restart

	healthy := NewStore(t.TempDir())
	if _, err := healthy.Put(blob); err != nil {
		t.Fatalf("healthy Put: %v", err)
	}

	sickSrv := httptest.NewServer(NewServer(sick, "/v1/cas"))
	defer sickSrv.Close()
	healthySrv := httptest.NewServer(NewServer(healthy, "/v1/cas"))
	defer healthySrv.Close()

	// The sick peer is first in line: its torn copy must 404 (quarantined,
	// not served), and the client must land on the healthy peer's bytes.
	c := NewClient(nil, sickSrv.URL+"/v1/cas", healthySrv.URL+"/v1/cas")
	got, err := c.Fetch(context.Background(), sum)
	if err != nil {
		t.Fatalf("Fetch across peers: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("Fetch returned wrong bytes: %q", got)
	}
	if sick.Stats().Corrupt != 1 {
		t.Fatalf("sick peer Corrupt = %d, want 1", sick.Stats().Corrupt)
	}
	if _, err := os.Stat(filepath.Join(sickDir, "quarantine", sum)); err != nil {
		t.Fatalf("torn blob not quarantined: %v", err)
	}

	// The sick peer can repair itself by re-putting the verified bytes.
	if _, err := sick.Put(got); err != nil {
		t.Fatalf("repair Put: %v", err)
	}
	back, err := sick.Get(sum)
	if err != nil || !bytes.Equal(back, blob) {
		t.Fatalf("Get after repair = %q, %v", back, err)
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

	s = NewStore(dir) // restart: only the disk speaks
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
