package engine

import (
	"errors"
	"slices"
	"sync"

	"rsr/internal/sampling"
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
type traceStore struct {
	budget int64

	mu        sync.Mutex
	traces    map[string]*sampling.Trace
	lru       []string // the stored keys, least recently used first
	recording map[string]bool
	refused   map[string]bool
	held      int64

	replayed, recorded, evicted int64
}

func newTraceStore(budget int64) *traceStore {
	return &traceStore{budget: budget, traces: make(map[string]*sampling.Trace),
		recording: make(map[string]bool), refused: make(map[string]bool)}
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
	for s.held > s.budget {
		s.held -= s.traces[s.lru[0]].Bytes()
		delete(s.traces, s.lru[0])
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
}
