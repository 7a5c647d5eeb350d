package engine

// The chaos suite (`make chaos`) runs sampled experiments under seeded,
// deterministic injected faults — disk read and write errors, torn cache
// writes, artificial latency, worker panics and run errors — and asserts that
// every survivable fault schedule leaves the results byte-identical to a
// fault-free run, that an injected job failure fails that job alone, and that
// the process stays alive. The injection points live in the real cache and
// run paths (internal/fault wired through Options.Fault), not in mocks.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"rsr/internal/fault"
	"rsr/internal/sampling"
	"rsr/internal/warmup"
)

// chaosBaseline computes the fault-free reference results for a job list.
func chaosBaseline(t *testing.T, jobs []Job) []sampling.RunResult {
	t.Helper()
	e := New(Options{Workers: 4})
	defer e.Close()
	return chaosRun(t, e, jobs)
}

// chaosRun pushes every job through an engine and returns the wall-stripped
// (deterministic) result forms in submission order.
func chaosRun(t *testing.T, e *Engine, jobs []Job) []sampling.RunResult {
	t.Helper()
	var tickets []*Ticket
	for _, j := range jobs {
		tk, err := e.Submit(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	out := make([]sampling.RunResult, len(tickets))
	for i, tk := range tickets {
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %s failed under a survivable fault schedule: %v", jobs[i].Label(), err)
		}
		out[i] = stripWall(res)
	}
	return out
}

// TestChaosFaultScheduleByteIdentical is the headline chaos experiment: a
// sweep under latency, torn cache writes and cache write errors, a restart
// over that cache, and a pass over the repaired cache under cache read errors
// must each produce results byte-identical to the fault-free baseline with no
// job failed — the paper's numbers must survive any survivable schedule.
func TestChaosFaultScheduleByteIdentical(t *testing.T) {
	jobs := sweepJobs()
	want := chaosBaseline(t, jobs)

	dir := t.TempDir()
	plan := fault.New(2007,
		fault.Rule{Point: fault.JobRun, Kind: fault.KindLatency, Prob: 0.5, Latency: 2 * time.Millisecond},
		fault.Rule{Point: fault.CacheWrite, Kind: fault.KindTorn, Prob: 0.5},
		fault.Rule{Point: fault.CacheWrite, Kind: fault.KindError, Prob: 0.3},
	)
	e := New(Options{Workers: 4, CacheDir: dir, Fault: plan})
	got := chaosRun(t, e, jobs)
	stats := e.Stats()
	e.Close()

	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("job %s: result diverged under injected faults", jobs[i].Label())
		}
	}
	if plan.FiredAt(fault.JobRun) == 0 || plan.FiredAt(fault.CacheWrite) == 0 {
		t.Errorf("the plan fired %v: want latency and cache-write faults", plan.Log())
	}
	if stats.Failed != 0 {
		t.Errorf("failed = %d, want 0 under a survivable schedule", stats.Failed)
	}

	// Restart over the same (partially torn) cache with no injector: every
	// entry either verifies or is quarantined and recomputed identically.
	e2 := New(Options{Workers: 4, CacheDir: dir})
	got2 := chaosRun(t, e2, jobs)
	stats2 := e2.Stats()
	e2.Close()
	for i := range want {
		if !reflect.DeepEqual(got2[i], want[i]) {
			t.Errorf("job %s: result diverged after restart over chaos cache", jobs[i].Label())
		}
	}
	torn := 0
	for _, f := range plan.Log() {
		if f.Kind == fault.KindTorn {
			torn++
		}
	}
	if torn > 0 && stats2.Quarantined == 0 {
		t.Errorf("%d torn writes injected but restart quarantined nothing: %+v", torn, stats2)
	}

	// Once more over the repaired cache, now failing some disk reads: an
	// entry that cannot be read is a miss, recomputed identically, not a
	// failed job.
	reads := fault.New(2008, fault.Rule{Point: fault.CacheRead, Kind: fault.KindError, Prob: 0.5})
	e3 := New(Options{Workers: 4, CacheDir: dir, Fault: reads})
	got3 := chaosRun(t, e3, jobs)
	stats3 := e3.Stats()
	e3.Close()
	for i := range want {
		if !reflect.DeepEqual(got3[i], want[i]) {
			t.Errorf("job %s: result diverged under cache read errors", jobs[i].Label())
		}
	}
	if n := reads.FiredAt(fault.CacheRead); n == 0 || stats3.CacheMisses != int64(n) || stats3.Failed != 0 {
		t.Errorf("%d read errors injected: stats %+v, want one miss each and no failure", n, stats3)
	}
}

// TestChaosInjectedFailuresIsolated runs the same sweep under injected worker
// panics and run errors. A job runs once per submission, so exactly the jobs
// the plan fired on fail — a panic as a *PanicError, an error as the injected
// one — and every other result equals the baseline. A failure is never
// cached: each failed job, resubmitted once the plan's budget is spent, runs
// afresh and returns its baseline result.
func TestChaosInjectedFailuresIsolated(t *testing.T) {
	jobs := sweepJobs()
	want := chaosBaseline(t, jobs)

	plan := fault.New(2007,
		fault.Rule{Point: fault.JobRun, Kind: fault.KindPanic, Prob: 1, Count: 2},
		fault.Rule{Point: fault.JobRun, Kind: fault.KindError, Prob: 1, Count: 2},
	)
	e := New(Options{Workers: 4, CacheDir: t.TempDir(), Fault: plan})
	defer e.Close()
	tickets := make([]*Ticket, len(jobs))
	for i, j := range jobs {
		tk, err := e.Submit(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	for i, tk := range tickets {
		results[i], errs[i] = tk.Wait(context.Background())
	}
	fired := map[string]fault.Kind{}
	for _, f := range plan.Log() {
		fired[f.Key] = f.Kind
	}
	var failed []int
	for i, res := range results {
		err := errs[i]
		kind, hit := fired[jobs[i].Hash()]
		var pe *PanicError
		switch {
		case !hit && err != nil:
			t.Errorf("job %s failed, but the plan did not fire on it: %v", jobs[i].Label(), err)
		case !hit:
			if got := stripWall(res); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("job %s: result diverged beside injected failures", jobs[i].Label())
			}
		case kind == fault.KindPanic && !errors.As(err, &pe):
			t.Errorf("job %s: err = %v, want *PanicError", jobs[i].Label(), err)
		case kind == fault.KindError && !errors.Is(err, fault.ErrInjected):
			t.Errorf("job %s: err = %v, want the injected error", jobs[i].Label(), err)
		default:
			failed = append(failed, i)
		}
	}
	if len(fired) != 4 || len(failed) != 4 {
		t.Fatalf("the plan fired on %d jobs and %d failed as injected, want 4 and 4", len(fired), len(failed))
	}
	s := e.Stats()
	if s.Panics != 2 || s.Failed != 4 || s.Done != 2 {
		t.Errorf("stats = %+v, want 2 panics, 4 failures, 2 done", s)
	}

	for _, i := range failed {
		res, err := e.Run(context.Background(), jobs[i])
		if err != nil {
			t.Fatalf("resubmit %s after failure: %v", jobs[i].Label(), err)
		}
		if got := stripWall(res); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("resubmit %s: result differs from the baseline", jobs[i].Label())
		}
	}
	if s := e.Stats(); s.Done != 6 || s.CacheHits != 0 {
		t.Errorf("resubmit stats = %+v, want four fresh executions, no negative hit", s)
	}
}

// TestChaosPanicIsolatedAndTyped pins panic isolation: a panicking worker
// fails its own job with a typed *PanicError carrying a stack trace, and the
// process (and engine) survive to run the next job.
func TestChaosPanicIsolatedAndTyped(t *testing.T) {
	plan := fault.New(1, fault.Rule{Point: fault.JobRun, Kind: fault.KindPanic, Prob: 1, Count: 1})
	e := New(Options{Workers: 2, Fault: plan})
	defer e.Close()

	j := sampledJob("twolf", warmup.Spec{Kind: warmup.KindNone})
	_, err := e.Run(context.Background(), j)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !strings.Contains(pe.Stack, "safeRun") {
		t.Errorf("captured stack does not show the recovery site:\n%s", pe.Stack)
	}
	s := e.Stats()
	if s.Panics != 1 || s.Failed != 1 {
		t.Errorf("stats = %+v, want one panic, one failure", s)
	}

	// The engine is still alive: the same job (panic budget spent) succeeds.
	res, err := e.Run(context.Background(), j)
	if err != nil || res.IPC() <= 0 {
		t.Fatalf("engine did not survive the panic: res=%v err=%v", res, err)
	}
}

// TestChaosLatencyDeadline uses injected latency to trip the per-job
// deadline deterministically: the job must fail with ErrDeadline (distinct
// from cancellation).
func TestChaosLatencyDeadline(t *testing.T) {
	plan := fault.New(9, fault.Rule{Point: fault.JobRun, Kind: fault.KindLatency, Prob: 1, Latency: time.Minute})
	e := New(Options{Workers: 1, Fault: plan})
	defer e.Close()

	j := sampledJob("twolf", warmup.Spec{Kind: warmup.KindNone})
	j.Timeout = 20 * time.Millisecond
	begin := time.Now()
	_, err := e.Run(context.Background(), j)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline error must still match context.DeadlineExceeded for compatibility")
	}
	if took := time.Since(begin); took > 10*time.Second {
		t.Errorf("deadline took %v to fire", took)
	}
	if s := e.Stats(); s.Failed != 1 {
		t.Errorf("stats = %+v, want one failure", s)
	}
}
