package engine

import (
	"errors"
	"slices"
	"sync"
	"time"

	"rsr/internal/sampling"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// TraceBudget bounds the bytes of functional traces an engine holds (about 10
// MB per million instructions of a placement): storing a trace evicts the
// least recently used ones until all fit.
const TraceBudget = 256 << 20

// traceStore keeps the functional trace of each placement a sampled job has
// run (sampling.TraceStore), so that every job of it, under any warm-up spec
// or machine with the same L1I line size, replays it. The first job of a
// placement records the trace before its own run, which then replays it like
// the others; a job that comes while another records runs as if there were no
// store. A placement whose trace does not fit the budget is refused for the
// store's lifetime: every job of it runs as if there were no store, and none
// records again what would not fit again.
//
// Beside each trace the store keeps its reverse plans (sampling.TracePlan),
// one per geometry, and builds them the same way: the first reverse job of a
// placement and geometry builds the plan before its own run, which then cuts
// it like every later one's; a job that comes while another builds plans its
// own windows; a plan's bytes count against the budget, and it is evicted with
// its trace.
type traceStore struct {
	budget int64

	mu        sync.Mutex
	traces    map[string]*sampling.Trace
	lru       []string // the stored keys, least recently used first
	recording map[string]bool
	refused   map[string]bool
	held      int64

	plans        map[planKey]*sampling.TracePlan
	planning     map[planKey]bool
	plansRefused map[planKey]bool // plans that do not fit the budget beside their trace

	replayed, recorded, evicted int64
	built, cut                  int64
	building                    time.Duration
}

// planKey names a reverse plan: its trace's key and the geometry.
type planKey struct {
	trace string
	geom  sampling.PlanGeom
}

func newTraceStore(budget int64) *traceStore {
	return &traceStore{budget: budget, traces: make(map[string]*sampling.Trace),
		recording: make(map[string]bool), refused: make(map[string]bool),
		plans: make(map[planKey]*sampling.TracePlan), planning: make(map[planKey]bool), plansRefused: make(map[planKey]bool)}
}

func (s *traceStore) LoadPlan(key string, m sampling.MachineConfig) *sampling.TracePlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.plans[planKey{key, sampling.PlanGeomOf(m)}]
	if p != nil {
		s.cut++
	}
	return p
}

func (s *traceStore) LoadTrace(key string) *sampling.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.traces[key]
	if t != nil {
		s.replayed++
		i := slices.Index(s.lru, key)
		s.lru = append(slices.Delete(s.lru, i, i+1), key)
	}
	return t
}

// record records the trace of j's placement, before j's run, if j is an
// unnamed-strategy sampled job and the store neither holds the trace, nor has
// another job recording it, nor has refused it: j's run then replays the trace
// as every later job of the placement does, so a job's Result.Wall does not
// depend on which came first. It reports whether it tried. A recording that
// fails, is canceled or panics stores nothing, and j's own run then ends as it
// would have.
func (s *traceStore) record(j Job, cancel <-chan struct{}) (tried bool) {
	key := j.TraceKey()
	s.mu.Lock()
	tried = j.Kind == JobSampled && j.strategy() == "" && s.traces[key] == nil && !s.recording[key] && !s.refused[key]
	if tried {
		s.recording[key] = true
	}
	s.mu.Unlock()
	if !tried {
		return false
	}
	var t *sampling.Trace
	var err error
	defer func() { s.store(key, t, err) }()
	w, _ := workload.ByName(j.Workload) // Submit validated j: both exist
	regions, _ := j.Regimen.Regions(j.Total, j.Seed)
	t, err = sampling.RecordTrace(w.Build(), j.Machine, regions, s.budget, cancel)
	return true
}

// plan builds the reverse plan of j's placement for j's geometry, before j's
// run, if j is an unnamed-strategy sampled job of a reverse spec whose windows
// are not empty, the store holds the placement's trace, and it neither holds
// that plan, nor has another job building it, nor has refused it: j's run then
// cuts the plan as every later reverse job of the placement and geometry does,
// so a job's Result.Wall does not depend on which came first. It reports
// whether it tried and how long that took. A build that is canceled or panics
// stores nothing.
func (s *traceStore) plan(j Job, cancel <-chan struct{}) (took time.Duration, tried bool) {
	if j.Kind != JobSampled || j.strategy() != "" || j.Warmup.Kind != warmup.KindReverse || j.Warmup.Percent == 0 {
		return 0, false
	}
	key := planKey{j.TraceKey(), sampling.PlanGeomOf(j.Machine)}
	s.mu.Lock()
	t := s.traces[key.trace]
	tried = t != nil && s.plans[key] == nil && !s.planning[key] && !s.plansRefused[key]
	if tried {
		s.planning[key] = true
	}
	s.mu.Unlock()
	if !tried {
		return 0, false
	}
	var p *sampling.TracePlan
	defer func() { s.storePlan(key, t, p, took) }()
	begin := time.Now()
	p, _ = sampling.PlanTrace(t, j.Machine, cancel) // nil when canceled
	took = time.Since(begin)
	return took, true
}

// storePlan ends a build of t's plan that gave p, or nil, after took. A plan
// is kept beside its trace if the trace is still stored and both fit the
// budget, and refused for the store's lifetime if they do not.
func (s *traceStore) storePlan(key planKey, t *sampling.Trace, p *sampling.TracePlan, took time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.planning, key)
	s.building += took
	switch {
	case p == nil || s.traces[key.trace] != t:
		return
	case t.Bytes()+p.Bytes() > s.budget:
		s.plansRefused[key] = true
		return
	}
	s.plans[key] = p
	s.held += p.Bytes()
	s.built++
	i := slices.Index(s.lru, key.trace) // its job comes next: evict others first
	s.lru = append(slices.Delete(s.lru, i, i+1), key.trace)
	s.evict()
}

// store ends a recording that gave t or err, keeping t if it is not nil and
// fits the budget, and refusing the placement if its trace does not: a trace
// is a pure function of its key, so it would not fit again. Any other failure,
// a cancel included, leaves the placement to a later job.
func (s *traceStore) store(key string, t *sampling.Trace, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.recording, key)
	if errors.Is(err, sampling.ErrTraceTooLarge) || t != nil && t.Bytes() > s.budget {
		s.refused[key] = true
		return
	}
	if t == nil {
		return
	}
	s.traces[key] = t
	s.lru = append(s.lru, key)
	s.held += t.Bytes()
	s.recorded++
	s.evict()
}

// evict drops the least recently used traces, each with its plans, until
// what the store holds fits the budget. Caller holds mu.
func (s *traceStore) evict() {
	for s.held > s.budget {
		key := s.lru[0]
		s.held -= s.traces[key].Bytes()
		delete(s.traces, key)
		for pk, p := range s.plans {
			if pk.trace == key {
				s.held -= p.Bytes()
				delete(s.plans, pk)
			}
		}
		s.lru = s.lru[1:]
		s.evicted++
	}
}

// stats fills the store's fields of a Stats snapshot.
func (s *traceStore) stats(st *Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.TracesReplayed, st.TracesRecorded, st.TracesEvicted, st.TraceBytes = s.replayed, s.recorded, s.evicted, s.held
	st.TracesRefused = int64(len(s.refused))
	st.PlansBuilt, st.PlansCut, st.PlanBuild = s.built, s.cut, s.building
}
