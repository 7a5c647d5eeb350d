// Package fault is a deterministic, seedable fault injector for chaos
// testing the engine and daemon. Instrumented sites in real code paths (the
// engine's disk cache and worker run loop) consult an Injector before
// proceeding; a Plan decides, from a seed and a set of probability/trigger
// rules, whether the site should fail with an injected I/O error, tear a
// write short, stall, or panic.
//
// Decisions are a pure function of (seed, rule, point, key, per-key visit
// number), so a fault schedule is reproducible across runs and independent
// of worker interleaving: the same job sees the same faults no matter which
// worker picks it up or in what order jobs complete. Only the shared Count
// budget of a rule is order-sensitive, and only when several keys race for
// the last firings.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"
)

// Point identifies an instrumented site in a real code path.
type Point string

// Instrumented sites.
const (
	// CacheRead is the engine's on-disk result lookup; the decision key is
	// the job hash.
	CacheRead Point = "cache.read"
	// CacheWrite is a disk write of the store behind that cache
	// (cas.Store.Fault): the decision key is the blob sum or the index key
	// (for the engine, the job hash).
	CacheWrite Point = "cache.write"
	// JobRun is a worker executing a simulation job.
	JobRun Point = "job.run"
	// NodeKill is a cluster peer's work-pull loop: a firing rule kills the
	// node abruptly (heartbeats stop, leased work is never completed), the
	// way a crashed or partitioned machine looks to the coordinator. The
	// decision key is the node name.
	NodeKill Point = "node.kill"
	// CoordKill is the cluster coordinator's completion handler: a firing
	// rule crashes the coordinator abruptly (kill -9 semantics — no drain, no
	// final journal compaction) just as a worker reports a finished job, the
	// worst moment for the write-ahead journal. The decision key is the job
	// ID being completed.
	CoordKill Point = "coord.kill"
)

// Kind is what happens when a rule fires.
type Kind string

// Fault kinds.
const (
	// KindError makes the site fail with an injected error (wrapping
	// ErrInjected, so callers can tell it from a real failure).
	KindError Kind = "error"
	// KindTorn truncates a write partway through: the bytes that reach disk
	// are a prefix of the entry, as after a crash mid-write.
	KindTorn Kind = "torn"
	// KindLatency stalls the site for the rule's Latency before proceeding.
	KindLatency Kind = "latency"
	// KindPanic panics inside the site (the engine's worker recovery must
	// contain it).
	KindPanic Kind = "panic"
)

// ErrInjected is the base of every injected error; errors.Is(err,
// fault.ErrInjected) identifies a failure as injected. The engine treats it
// like any other job failure: final for that submission, never cached.
var ErrInjected = errors.New("fault: injected")

// Decision tells an instrumented site what to do instead of proceeding
// normally.
type Decision struct {
	Kind    Kind
	Err     error         // set for KindError
	Latency time.Duration // set for KindLatency
}

// Injector is consulted at each instrumented site. Implementations must be
// safe for concurrent use.
type Injector interface {
	// Decide returns nil when the site should proceed normally.
	Decide(p Point, key string) *Decision
}

// Check is the nil-safe entry point used by instrumented sites: a nil
// injector always proceeds normally.
func Check(inj Injector, p Point, key string) *Decision {
	if inj == nil {
		return nil
	}
	return inj.Decide(p, key)
}

// Rule arms one fault at one point. A visit matches when the point and key
// filter match; a matching visit fires with probability Prob once the
// per-key After skip is exhausted, until the shared Count budget runs out.
type Rule struct {
	Point Point
	Kind  Kind
	// Prob is the per-visit firing probability in [0, 1] (1 = every visit).
	Prob float64
	// After skips the first N matching visits of each key, e.g. "fail the
	// second write of every entry".
	After int
	// Count bounds total firings across all keys (0 = unlimited).
	Count int
	// Match restricts the rule to keys containing this substring ("" = all).
	Match string
	// Latency is the stall for KindLatency.
	Latency time.Duration
	// Err overrides the injected error for KindError (it should wrap
	// ErrInjected so callers can still tell it was injected).
	Err error
}

// visitKey tracks per-rule, per-site visit counts.
type visitKey struct {
	rule  int
	point Point
	key   string
}

// Firing records one fired decision, for test assertions and debugging.
type Firing struct {
	Rule  int
	Point Point
	Key   string
	Visit int
	Kind  Kind
}

// Plan is the standard Injector: seeded rules with deterministic per-key
// draws. The zero Plan injects nothing; use New.
type Plan struct {
	seed  int64
	rules []Rule

	mu     sync.Mutex
	visits map[visitKey]int
	fired  []int
	log    []Firing
}

// New builds a Plan from a seed and rules. The first matching rule that
// fires wins a visit.
func New(seed int64, rules ...Rule) *Plan {
	return &Plan{
		seed:   seed,
		rules:  rules,
		visits: make(map[visitKey]int),
		fired:  make([]int, len(rules)),
	}
}

// Decide implements Injector.
func (p *Plan) Decide(pt Point, key string) *Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, r := range p.rules {
		if r.Point != pt || (r.Match != "" && !strings.Contains(key, r.Match)) {
			continue
		}
		vk := visitKey{rule: i, point: pt, key: key}
		visit := p.visits[vk]
		p.visits[vk] = visit + 1
		if visit < r.After {
			continue
		}
		if r.Count > 0 && p.fired[i] >= r.Count {
			continue
		}
		if p.draw(i, pt, key, visit) >= r.Prob {
			continue
		}
		p.fired[i]++
		p.log = append(p.log, Firing{Rule: i, Point: pt, Key: key, Visit: visit, Kind: r.Kind})
		d := &Decision{Kind: r.Kind, Latency: r.Latency}
		if r.Kind == KindError {
			d.Err = r.Err
			if d.Err == nil {
				d.Err = fmt.Errorf("fault: injected %s error at %s: %w", pt, key, ErrInjected)
			}
		}
		return d
	}
	return nil
}

// draw maps (seed, rule, point, key, visit) to a uniform float in [0, 1).
// FNV-1a is plenty for schedule diversity and keeps the draw allocation-
// and dependency-free.
func (p *Plan) draw(rule int, pt Point, key string, visit int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%s|%d", p.seed, rule, pt, key, visit)
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// Fired returns the total number of decisions injected so far.
func (p *Plan) Fired() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.log)
}

// FiredAt returns how many decisions were injected at one point.
func (p *Plan) FiredAt(pt Point) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.log {
		if f.Point == pt {
			n++
		}
	}
	return n
}

// Log returns a copy of every firing so far, in order.
func (p *Plan) Log() []Firing {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Firing, len(p.log))
	copy(out, p.log)
	return out
}
