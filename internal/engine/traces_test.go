package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"rsr/internal/obs"
	"rsr/internal/sampling"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// directRun is what the engine must return for a sampled job: the sampling
// package's own run of it, with no store.
func directRun(t *testing.T, j Job) sampling.RunResult {
	t.Helper()
	w, err := workload.ByName(j.Workload)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sampling.RunSampledOpts(w.Build(), j.Machine, j.Regimen, j.Total, j.Seed, j.Warmup, sampling.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.Elapsed = 0
	return *r
}

var (
	specNone  = warmup.Spec{Kind: warmup.KindNone}
	specSBP   = warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true}
	specRSR20 = warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}
)

// runAll submits jobs at once and checks every result against the direct run.
func runAll(t *testing.T, e *Engine, jobs ...Job) {
	t.Helper()
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Run(context.Background(), j)
			if err != nil {
				t.Errorf("%s: %v", j.Label(), err)
				return
			}
			if got, want := stripWall(res), directRun(t, j); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: engine result differs from the direct run", j.Label())
			}
		}()
	}
	wg.Wait()
}

// TestTraceStoreConcurrentPlacement: jobs of one placement never wait on its
// recording. While the trace is being recorded, two workers run the placement
// without the store; then of two concurrent jobs one records and neither
// waits; then a job of another spec and machine replays. Every result equals
// the direct run.
func TestTraceStoreConcurrentPlacement(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	key := sampledJob("twolf", specNone).TraceKey()
	// The test holds the recording: neither job can record or replay, and
	// both finish.
	e.traces.mu.Lock()
	e.traces.recording[key] = true
	e.traces.mu.Unlock()
	runAll(t, e, sampledJob("twolf", specNone), sampledJob("twolf", specSBP))
	if s := e.Stats(); s.TracesRecorded != 0 || s.TracesReplayed != 0 {
		t.Fatalf("with the recording held elsewhere: %+v", s)
	}
	e.traces.store(key, nil)

	runAll(t, e, sampledJob("twolf", specRSR20), sampledJob("twolf", warmup.Spec{Kind: warmup.KindFixed, Percent: 40, Cache: true, BPred: true}))
	if s := e.Stats(); s.TracesRecorded != 1 || s.TraceBytes == 0 {
		t.Fatalf("two concurrent jobs of a new placement: %+v", s)
	}
	replayed := e.Stats().TracesReplayed
	other := sampledJob("twolf", warmup.Spec{Kind: warmup.KindReverse, Percent: 100, Cache: true})
	other.Machine.Hier.L2.SizeBytes *= 2 // not in the trace's key
	runAll(t, e, other)
	if s := e.Stats(); s.TracesReplayed != replayed+1 || s.TracesRecorded != 1 {
		t.Fatalf("a later job of the placement did not replay: %+v", s)
	}
}

// TestTraceKey: a trace is keyed by what it is a pure function of — not the
// warm-up spec, nor any machine field but the L1I line size.
func TestTraceKey(t *testing.T) {
	base := sampledJob("twolf", specNone)
	same := sampledJob("twolf", specSBP)
	same.Machine.Hier.L1D.SizeBytes *= 2
	same.Machine.Pred.RAS.Depth *= 2
	if base.TraceKey() != same.TraceKey() {
		t.Error("the warm-up spec or a machine field moved the trace key")
	}
	for name, j := range map[string]Job{
		"workload": sampledJob("parser", specNone),
		"seed":     func() Job { j := base; j.Seed++; return j }(),
		"total":    func() Job { j := base; j.Total++; return j }(),
		"regimen":  func() Job { j := base; j.Regimen.NumClusters++; return j }(),
		"line":     func() Job { j := base; j.Machine.Hier.L1I.LineBytes *= 2; return j }(),
	} {
		if j.TraceKey() == base.TraceKey() {
			t.Errorf("the %s did not move the trace key", name)
		}
	}
}

// TestTraceStoreBudget: a trace over the budget is not stored — a recording
// that could outgrow it is given up — and storing one that fits evicts the
// least recently used traces until all fit. A job whose placement's trace is
// stored replays it and records nothing.
func TestTraceStoreBudget(t *testing.T) {
	seeds := []int64{1, 2, 3}
	job := func(seed int64, spec warmup.Spec) Job {
		j := sampledJob("twolf", spec)
		j.Seed = seed
		return j
	}
	// What each placement's trace holds, and the traces themselves.
	e := New(Options{Workers: 1})
	sizes := make(map[int64]int64)
	traces := make(map[int64]*sampling.Trace)
	for _, seed := range seeds {
		before := e.Stats().TraceBytes
		runAll(t, e, job(seed, specNone))
		sizes[seed] = e.Stats().TraceBytes - before
		traces[seed] = e.traces.traces[job(seed, specNone).TraceKey()]
	}
	e.Close()
	small, big := sizes[1], sizes[1]
	for _, s := range sizes {
		small, big = min(small, s), max(big, s)
	}
	budget := 2*big + big/2
	if 3*small <= budget {
		t.Fatalf("trace sizes %v: three fit in %d", sizes, budget)
	}

	e = New(Options{Workers: 1})
	defer e.Close()
	e.traces.budget = budget
	for _, j := range []Job{job(1, specNone), job(2, specNone), job(1, specSBP), job(3, specNone)} {
		runAll(t, e, j) // in turn: 1 is the most recently used when 3 comes
	}
	if s := e.Stats(); s.TracesRecorded != 3 || s.TracesEvicted != 1 || s.TraceBytes != sizes[1]+sizes[3] {
		t.Fatalf("after three placements: %+v, sizes %v", s, sizes)
	}
	runAll(t, e, job(1, specRSR20))
	if s := e.Stats(); s.TracesRecorded != 3 {
		t.Errorf("placement 1 was evicted: %+v", s)
	}
	runAll(t, e, job(2, specRSR20))
	if s := e.Stats(); s.TracesRecorded != 4 {
		t.Errorf("placement 2 was not evicted: %+v", s)
	}

	// Over the budget: the store refuses the trace, and a recording given a
	// smaller limit than its trace needs is given up.
	s := &traceStore{budget: small - 1, traces: make(map[string]*sampling.Trace), recording: make(map[string]bool)}
	s.store("k", traces[1])
	e.traces = s
	runAll(t, e, job(4, specNone))
	var st Stats
	s.stats(&st)
	if st.TracesRecorded != 0 || st.TraceBytes != 0 || len(s.recording) != 0 {
		t.Errorf("a store of %d bytes: %+v", s.budget, st)
	}
}

// TestTraceStoreMetrics: /metrics mirrors the store's counters. The job that
// records its placement's trace replays it as well.
func TestTraceStoreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Workers: 1, Metrics: reg})
	defer e.Close()
	runAll(t, e, sampledJob("parser", specNone), sampledJob("parser", specSBP))
	st, snaps := e.Stats(), reg.Snapshot()
	for _, c := range []struct {
		name   string
		labels map[string]string
		want   int64
	}{
		{"rsr_engine_traces_total", map[string]string{"event": "recorded"}, 1},
		{"rsr_engine_traces_total", map[string]string{"event": "replayed"}, 2},
		{"rsr_engine_traces_total", map[string]string{"event": "evicted"}, 0},
		{"rsr_engine_trace_bytes", nil, st.TraceBytes},
	} {
		if got := snapValue(t, snaps, c.name, c.labels); int64(got) != c.want {
			t.Errorf("%s%v = %v, want %d", c.name, c.labels, got, c.want)
		}
	}
}

// TestTraceRecordedBeforeRun: the first job of a placement records the trace
// in a trace-record span of its own, before its job-run, which replays the
// trace as a later job's does; a second job of the placement records nothing.
func TestTraceRecordedBeforeRun(t *testing.T) {
	tr := obs.NewTracer(1 << 12)
	e := New(Options{Workers: 1, Tracer: tr})
	defer e.Close()
	runAll(t, e, sampledJob("twolf", specRSR20))
	if s := e.Stats(); s.TracesRecorded != 1 || s.TracesReplayed != 1 {
		t.Fatalf("the first job of a placement: %+v", s)
	}
	runAll(t, e, sampledJob("twolf", specSBP))
	if s := e.Stats(); s.TracesRecorded != 1 || s.TracesReplayed != 2 {
		t.Fatalf("the second job of a placement: %+v", s)
	}
	if count := spanCounts(t, tr); count["trace-record"] != 1 || count["job-run"] != 2 {
		t.Errorf("engine spans = %v, want one trace-record and two job-runs", count)
	}
}

// TestShardedJobsReplay: a job at two shards records its placement's trace
// once and replays it, as a sequential job does; a job of another spec at two
// shards replays the same trace. Both equal the direct sequential runs.
func TestShardedJobsReplay(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	first, second := sampledJob("twolf", specRSR20), sampledJob("twolf", specSBP)
	first.Shards, second.Shards = 2, 2
	runAll(t, e, first)
	if s := e.Stats(); s.TracesRecorded != 1 || s.TracesReplayed != 1 {
		t.Fatalf("the first sharded job of a placement: %+v", s)
	}
	runAll(t, e, second)
	if s := e.Stats(); s.TracesRecorded != 1 || s.TracesReplayed != 2 {
		t.Fatalf("the second sharded job of a placement: %+v", s)
	}
}
