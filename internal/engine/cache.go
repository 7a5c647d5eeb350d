package engine

import (
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"

	"rsr/internal/cas"
	"rsr/internal/fault"
)

// cache is the two-level result store: a map of decoded results keyed by job
// hash in front of a cas.Store on Options.CacheDir, if one is set. On disk a
// result is a JSON blob and its job hash an index key linked to that blob, so
// verification on every read, quarantine of bad bytes and atomic writes are
// the store's (see internal/cas). Disk problems never fail a lookup — they
// count as misses and the result is recomputed, relinking the entry.
type cache struct {
	store *cas.Store // nil = memory only

	mu  sync.Mutex
	mem map[string]*Result

	// diskErrs counts disk reads/writes that failed (corruption, I/O).
	diskErrs atomic.Int64
}

func newCache(dir string, inj fault.Injector) *cache {
	c := &cache{mem: make(map[string]*Result)}
	if dir != "" {
		c.store = cas.NewStore(dir)
		c.store.Fault = inj
	}
	return c
}

// get looks a result up by job hash, memory first, then disk. Disk hits are
// promoted into memory. The second return distinguishes memory (Hot) from
// disk (Disk) hits for the stats surface.
func (c *cache) get(hash string) (*Result, hitClass) {
	c.mu.Lock()
	r, ok := c.mem[hash]
	c.mu.Unlock()
	if ok {
		return r, hitHot
	}
	if c.store == nil {
		return nil, hitMiss
	}
	r, err := c.load(hash)
	if err != nil {
		if !errors.Is(err, cas.ErrNotFound) {
			c.diskErrs.Add(1)
		}
		return nil, hitMiss
	}
	c.mu.Lock()
	c.mem[hash] = r
	c.mu.Unlock()
	return r, hitDisk
}

// load reads a job's result through the store: index entry, verified blob,
// decode, Verify.
func (c *cache) load(hash string) (*Result, error) {
	if d := fault.Check(c.store.Fault, fault.CacheRead, hash); d != nil && d.Kind == fault.KindError {
		return nil, d.Err // the bytes may be fine: no quarantine
	}
	sum, err := c.store.Resolve(hash)
	if err != nil {
		return nil, err
	}
	b, err := c.store.Get(sum)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	// A verified blob may still not be this job's result (a stale or
	// foreign link): the recompute relinks the entry.
	if err := r.Verify(hash); err != nil {
		return nil, err
	}
	return &r, nil
}

// put stores a result in memory and, when a directory is configured, on
// disk: the blob first, then the index entry that makes it reachable.
func (c *cache) put(hash string, r *Result) {
	c.mu.Lock()
	c.mem[hash] = r
	c.mu.Unlock()
	if c.store == nil {
		return
	}
	b, err := json.Marshal(r)
	if err == nil {
		var sum string
		if sum, err = c.store.Put(b); err == nil {
			err = c.store.Link(hash, sum)
		}
	}
	if err != nil {
		c.diskErrs.Add(1)
	}
}

// hitClass classifies a cache lookup for the stats counters.
type hitClass uint8

const (
	hitMiss hitClass = iota
	hitHot           // in-memory hit
	hitDisk          // on-disk hit
)
