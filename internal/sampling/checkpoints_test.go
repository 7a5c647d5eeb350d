package sampling

import (
	"reflect"
	"sync"
	"testing"

	"rsr/internal/funcsim"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// memCheckpoints is an in-memory CheckpointStore that counts traffic.
type memCheckpoints struct {
	mu     sync.Mutex
	chains map[string][]*funcsim.Delta
	loads  int
	hits   int
	stores int
}

func newMemCheckpoints() *memCheckpoints {
	return &memCheckpoints{chains: make(map[string][]*funcsim.Delta)}
}

func (m *memCheckpoints) LoadCheckpoints(key string) []*funcsim.Delta {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.loads++
	c := m.chains[key]
	if c != nil {
		m.hits++
	}
	return c
}

func (m *memCheckpoints) StoreCheckpoints(key string, chain []*funcsim.Delta) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stores++
	m.chains[key] = chain
}

// TestCheckpointStoreByteIdentical pins the cross-run (and, through the
// cluster fabric, cross-node) checkpoint-sharing contract: a sharded run
// whose pre-pass chain is loaded from a store must be byte-identical to
// the run that captured the chain, and to the sequential path.
func TestCheckpointStoreByteIdentical(t *testing.T) {
	reg := Regimen{ClusterSize: 2000, NumClusters: 10}
	const total = 400_000
	spec, err := warmup.SpecByLabel("R$BP (20%)")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"twolf", "parser"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build()
		seq, err := RunSampledOpts(p, DefaultMachine(), reg, total, 2007, spec, Options{})
		if err != nil {
			t.Fatalf("%s seq: %v", name, err)
		}
		store := newMemCheckpoints()
		opts := Options{Shards: 4, Checkpoints: store, CheckpointKey: "ckpt-" + name}

		// First run captures and persists the chain.
		first, err := RunSampledOpts(p, DefaultMachine(), reg, total, 2007, spec, opts)
		if err != nil {
			t.Fatalf("%s first: %v", name, err)
		}
		if store.stores != 1 {
			t.Fatalf("%s: stores = %d after first run, want 1", name, store.stores)
		}

		// Second run must hit the store, skip its pre-pass, and still match.
		second, err := RunSampledOpts(p, DefaultMachine(), reg, total, 2007, spec, opts)
		if err != nil {
			t.Fatalf("%s second: %v", name, err)
		}
		if store.hits == 0 {
			t.Fatalf("%s: second run did not load the stored chain", name)
		}
		if store.stores != 1 {
			t.Fatalf("%s: second run re-stored the chain (stores = %d)", name, store.stores)
		}
		if !reflect.DeepEqual(normalize(seq), normalize(first)) {
			t.Errorf("%s: capturing run differs from sequential", name)
		}
		if !reflect.DeepEqual(normalize(seq), normalize(second)) {
			t.Errorf("%s: store-seeded run differs from sequential", name)
		}
	}
}

// TestCheckpointStoreShardMismatchIgnored: a chain whose length does not
// match the run's shard count (a different key would normally prevent
// this, but stores are untrusted) is ignored and the pre-pass recomputes.
func TestCheckpointStoreShardMismatchIgnored(t *testing.T) {
	reg := Regimen{ClusterSize: 2000, NumClusters: 10}
	const total = 400_000
	spec, err := warmup.SpecByLabel("R$BP (20%)")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	store := newMemCheckpoints()
	store.chains["k"] = make([]*funcsim.Delta, 7) // wrong length for 4 shards

	seq, err := RunSampledOpts(p, DefaultMachine(), reg, total, 2007, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSampledOpts(p, DefaultMachine(), reg, total, 2007, spec,
		Options{Shards: 4, Checkpoints: store, CheckpointKey: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(seq), normalize(par)) {
		t.Error("run with mismatched stored chain differs from sequential")
	}
	if store.stores != 1 {
		t.Errorf("stores = %d, want 1 (recomputed chain replaces the bad entry)", store.stores)
	}
}
