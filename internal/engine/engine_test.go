package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rsr/internal/fault"
	"rsr/internal/sampling"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// testRegimen is small enough that a job takes well under a second but
// still exercises cold/warm/hot phases.
var testRegimen = sampling.Regimen{ClusterSize: 2000, NumClusters: 10}

const testTotal = 400_000

func sampledJob(wl string, spec warmup.Spec) Job {
	return Job{
		Kind:     JobSampled,
		Workload: wl,
		Machine:  sampling.DefaultMachine(),
		Total:    testTotal,
		Regimen:  testRegimen,
		Seed:     1,
		Warmup:   spec,
	}
}

// sweepJobs is a small Table-2-style sweep: two workloads crossed with
// three warm-up methods.
func sweepJobs() []Job {
	specs := []warmup.Spec{
		{Kind: warmup.KindNone},
		{Kind: warmup.KindSMARTS, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true},
	}
	var jobs []Job
	for _, wl := range []string{"twolf", "parser"} {
		for _, s := range specs {
			jobs = append(jobs, sampledJob(wl, s))
		}
	}
	return jobs
}

// stripWall clears the wall-clock fields, the only nondeterministic part of
// a result.
func stripWall(r *Result) sampling.RunResult {
	c := *r.Sampled
	c.Elapsed = 0
	return c
}

// TestParallelMatchesSequential is the determinism acceptance test: the
// sweep run through the engine at -parallel 4 must be byte-identical to the
// direct sequential path.
func TestParallelMatchesSequential(t *testing.T) {
	jobs := sweepJobs()

	// Sequential reference, bypassing the engine entirely.
	var want []sampling.RunResult
	for _, j := range jobs {
		w, err := workload.ByName(j.Workload)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sampling.RunSampled(w.Build(), j.Machine, j.Regimen, j.Total, j.Seed, j.Warmup)
		if err != nil {
			t.Fatal(err)
		}
		r.Elapsed = 0
		want = append(want, *r)
	}

	e := New(Options{Workers: 4})
	defer e.Close()
	var tickets []*Ticket
	for _, j := range jobs {
		tk, err := e.Submit(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := stripWall(res)
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("job %s: parallel result diverged from sequential", jobs[i].Label())
		}
		if fmt.Sprintf("%.17g", got.IPCEstimate()) != fmt.Sprintf("%.17g", want[i].IPCEstimate()) {
			t.Errorf("job %s: IPC estimate not byte-identical", jobs[i].Label())
		}
	}
}

// TestWarmDiskCache is the caching acceptance test: a repeated sweep over a
// warm on-disk cache must report >= 90% hits and finish measurably faster.
func TestWarmDiskCache(t *testing.T) {
	dir := t.TempDir()
	jobs := sweepJobs()

	run := func() (Stats, time.Duration, []float64) {
		e := New(Options{Workers: 4, CacheDir: dir})
		defer e.Close()
		begin := time.Now()
		var ipcs []float64
		for _, j := range jobs {
			res, err := e.Run(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			ipcs = append(ipcs, res.IPC())
		}
		return e.Stats(), time.Since(begin), ipcs
	}

	stats1, wall1, ipcs1 := run()
	if stats1.CacheMisses != int64(len(jobs)) || stats1.Done != int64(len(jobs)) {
		t.Fatalf("cold run stats: %+v", stats1)
	}
	stats2, wall2, ipcs2 := run()
	if hitRate := float64(stats2.CacheHits) / float64(len(jobs)); hitRate < 0.9 {
		t.Fatalf("warm hit rate = %.2f, want >= 0.90 (stats %+v)", hitRate, stats2)
	}
	if stats2.DiskHits != stats2.CacheHits {
		t.Errorf("warm hits should come from disk in a fresh engine: %+v", stats2)
	}
	if wall2 >= wall1 {
		t.Errorf("warm run not faster: cold %v, warm %v", wall1, wall2)
	}
	if !reflect.DeepEqual(ipcs1, ipcs2) {
		t.Errorf("cached IPC estimates diverged: %v vs %v", ipcs1, ipcs2)
	}
}

// TestCancellationMidSweep cancels the submitting context while a sweep of
// long jobs is in flight; every ticket must fail promptly.
func TestCancellationMidSweep(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())

	var tickets []*Ticket
	for _, wl := range []string{"twolf", "parser", "gcc", "vpr"} {
		j := sampledJob(wl, warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true})
		j.Total = 50_000_000 // far longer than the test is willing to wait
		j.Regimen = sampling.Regimen{ClusterSize: 2000, NumClusters: 50}
		tk, err := e.Submit(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	time.Sleep(50 * time.Millisecond) // let the sweep get underway
	cancel()

	for _, tk := range tickets {
		select {
		case <-tk.Done():
		case <-time.After(30 * time.Second):
			t.Fatal("canceled job did not finish")
		}
		if _, err, _ := tk.Result(); !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}
	if s := e.Stats(); s.Failed != 4 || s.Done != 0 {
		t.Errorf("stats after cancel: %+v", s)
	}
}

// TestStatsPublishedBeforeDone pins the ordering inside complete: a caller
// woken by a ticket's Done channel must read Stats that already count the
// job. Closing the ticket first let the waiter race the counter bump — the
// TestCancellationMidSweep flake. Every job here fails at once (an injected
// error, run once) and succeeds-or-fails is checked the instant its
// ticket wakes, so the window is probed a few hundred times per run.
func TestStatsPublishedBeforeDone(t *testing.T) {
	plan := fault.New(3, fault.Rule{Point: fault.JobRun, Kind: fault.KindError, Prob: 1})
	e := New(Options{Workers: 2, Fault: plan})
	defer e.Close()
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		j := sampledJob("twolf", warmup.Spec{Kind: warmup.KindNone})
		j.Seed = int64(i) // a distinct hash, so nothing coalesces
		tk, err := e.Submit(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		<-tk.Done()
		if _, err, _ := tk.Result(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("job %d: err = %v, want the injected error", i, err)
		}
		if got := e.Stats().Failed; got != int64(i+1) {
			t.Fatalf("job %d: ticket woke with Stats().Failed = %d, want %d", i, got, i+1)
		}
	}
}

// TestJobTimeout gives a long full-detail job a tiny per-job timeout.
func TestJobTimeout(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	j := Job{
		Kind:     JobFull,
		Workload: "gcc",
		Machine:  sampling.DefaultMachine(),
		Total:    500_000_000,
		Timeout:  30 * time.Millisecond,
	}
	begin := time.Now()
	_, err := e.Run(context.Background(), j)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want the distinct ErrDeadline", err)
	}
	if took := time.Since(begin); took > 10*time.Second {
		t.Fatalf("timeout took %v to take effect", took)
	}
}

// TestSingleFlightLeaderFailure covers dedup under failure: when the leader
// of a coalesced group fails, every follower must observe that error, and a
// later resubmission must recompute — failures are never negatively cached.
func TestSingleFlightLeaderFailure(t *testing.T) {
	// One injected failure scoped to the leader's job: its one execution
	// fails and the fault is spent.
	j := sampledJob("twolf", warmup.Spec{Kind: warmup.KindNone})
	plan := fault.New(11, fault.Rule{Point: fault.JobRun, Kind: fault.KindError, Prob: 1, Count: 1, Match: j.Hash()})
	e := New(Options{Workers: 1, CacheDir: t.TempDir(), Fault: plan})
	defer e.Close()
	ctx := context.Background()

	// A blocker occupies the single worker so the followers provably
	// coalesce onto the leader while it is still queued.
	blocker, err := e.Submit(ctx, sampledJob("parser", warmup.Spec{Kind: warmup.KindNone}))
	if err != nil {
		t.Fatal(err)
	}
	const followers = 4
	var tickets []*Ticket
	for i := 0; i < followers+1; i++ {
		tk, err := e.Submit(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		if _, err := tk.Wait(ctx); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("submitter %d: err = %v, want the leader's injected error", i, err)
		}
	}
	if _, err := blocker.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Coalesced != followers || s.Failed != 1 {
		t.Errorf("stats = %+v, want %d coalesced onto one failure", s, followers)
	}

	// Resubmit: the fault budget is spent, so a recompute must happen and
	// succeed. A negatively-cached error would surface here instead.
	res, err := e.Run(ctx, j)
	if err != nil {
		t.Fatalf("resubmit after leader failure must recompute: %v", err)
	}
	if res.IPC() <= 0 {
		t.Fatal("recomputed result is empty")
	}
	s = e.Stats()
	if s.Done != 2 || s.CacheHits != 0 {
		t.Errorf("resubmit stats = %+v, want a fresh execution (blocker + recompute), no cache hit", s)
	}
}

// TestSingleFlight submits the same job concurrently; exactly one execution
// must happen, with the other submitters waiting on its result.
func TestSingleFlight(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()
	j := sampledJob("twolf", warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true})

	const submitters = 8
	results := make([]*Result, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Run(context.Background(), j)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	s := e.Stats()
	if s.Done != 1 {
		t.Fatalf("executions = %d, want 1 (stats %+v)", s.Done, s)
	}
	if s.Coalesced+s.CacheHits != submitters-1 {
		t.Errorf("coalesced+hits = %d, want %d (stats %+v)", s.Coalesced+s.CacheHits, submitters-1, s)
	}
	for i := 1; i < submitters; i++ {
		if results[i] == nil || results[i].Sampled.IPCEstimate() != results[0].Sampled.IPCEstimate() {
			t.Fatalf("submitter %d saw a different result", i)
		}
	}
}

// TestSubmitValidates rejects malformed jobs before they reach the queue,
// among them a machine with a width or size of 0, which can never move an
// instruction: its run held a worker for good, deaf to a cancel.
func TestSubmitValidates(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	zeroFetch := sampledJob("twolf", warmup.Spec{})
	zeroFetch.Machine.CPU.FetchWidth = 0
	zeroROB := Job{Kind: JobFull, Workload: "twolf", Machine: sampling.DefaultMachine(), Total: 1000}
	zeroROB.Machine.CPU.ROBSize = 0
	for _, j := range []Job{
		zeroFetch,
		zeroROB,
		{},
		{Kind: JobFull, Workload: "unknown-workload", Total: 1000},
		{Kind: "weird", Workload: "twolf", Total: 1000},
		{Kind: JobFull, Workload: "twolf"},
		{Kind: JobSampled, Workload: "twolf", Total: 1000,
			Regimen: sampling.Regimen{ClusterSize: 2000, NumClusters: 50}},
	} {
		if _, err := e.Submit(context.Background(), j); err == nil {
			t.Errorf("job %+v: expected validation error", j)
		}
	}
}

// TestSubmitRefusesOutOfRangeWarmup closes the hole Job.Validate had: it never
// looked at Warmup, so an FP (150%) job ran, warmed nothing, and was cached and
// served under its hash as if the spec meant something. The error names the
// field, since a raw JSON job reaches Submit through rsrc and rsrd.
func TestSubmitRefusesOutOfRangeWarmup(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	for _, c := range []struct {
		spec warmup.Spec
		want string
	}{
		{warmup.Spec{Kind: warmup.KindFixed, Percent: 150, Cache: true, BPred: true}, "Percent"},
		{warmup.Spec{Kind: warmup.KindReverse, Percent: -1, Cache: true, BPred: true}, "Percent"},
		{warmup.Spec{Kind: warmup.Kind(7), Cache: true}, "Kind"},
	} {
		_, err := e.Submit(context.Background(), sampledJob("twolf", c.spec))
		if err == nil || !strings.Contains(err.Error(), "Warmup") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Submit(%+v) = %v, want a refusal naming Warmup and %s", c.spec, err, c.want)
		}
	}
	if st := e.Stats(); st.CacheMisses+st.CacheHits+st.Coalesced != 0 {
		t.Errorf("a refused job reached the cache or the queue: %+v", st)
	}
}

// TestCloseFailsPending asserts queued jobs drain with ErrClosed and that
// Submit refuses work after Close.
func TestCloseFailsPending(t *testing.T) {
	e := New(Options{Workers: 1})
	var tickets []*Ticket
	for _, wl := range workload.Names() {
		j := sampledJob(wl, warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true})
		j.Total = 20_000_000
		j.Regimen = sampling.Regimen{ClusterSize: 2000, NumClusters: 50}
		// Bound the job Close ends up waiting for.
		j.Timeout = 50 * time.Millisecond
		tk, err := e.Submit(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	e.Close()
	var closed int
	for _, tk := range tickets {
		if _, err, done := tk.Result(); done && errors.Is(err, ErrClosed) {
			closed++
		}
	}
	if closed == 0 {
		t.Error("no pending job failed with ErrClosed")
	}
	if _, err := e.Submit(context.Background(), sampledJob("twolf", warmup.Spec{})); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err = %v", err)
	}
}

// TestJobHashIdentity pins what does and does not enter the content address.
func TestJobHashIdentity(t *testing.T) {
	base := sampledJob("twolf", warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true})
	same := base
	same.Timeout = time.Minute // scheduling policy, not identity
	if base.Hash() != same.Hash() {
		t.Error("timeout changed the hash")
	}
	for name, mutate := range map[string]func(*Job){
		"workload": func(j *Job) { j.Workload = "gcc" },
		"kind":     func(j *Job) { j.Kind = JobFull },
		"total":    func(j *Job) { j.Total++ },
		"seed":     func(j *Job) { j.Seed++ },
		"regimen":  func(j *Job) { j.Regimen.NumClusters++ },
		"warmup":   func(j *Job) { j.Warmup.Percent = 40 },
		"machine":  func(j *Job) { j.Machine.CPU.ROBSize *= 2 },
	} {
		j := base
		mutate(&j)
		if j.Hash() == base.Hash() {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
}

// TestJobHashPinned holds the content address of one canonical sampled job to
// a literal. A result cached under an address is served for as long as the
// address stands, so a change to what a simulation computes has to change it:
// bump hashVersion (job.go) and paste the new value here. A failure nobody
// meant is an identity field whose encoding moved.
func TestJobHashPinned(t *testing.T) {
	j := Job{
		Kind:     JobSampled,
		Workload: "twolf",
		Machine:  sampling.DefaultMachine(),
		Total:    1_000_000,
		Regimen:  sampling.Regimen{ClusterSize: 2000, NumClusters: 50},
		Seed:     2007,
		Warmup:   warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true},
	}
	const want = "a44f479c4b7d3165221b2886d8d8dfea1d30ea6a1799dca1f95d6f72e15ad451"
	if got := j.Hash(); got != want {
		t.Errorf("hash of the canonical R$BP (20%%) job = %s, pinned %s (hashVersion %d)", got, want, hashVersion)
	}
}

// TestResultVerify: a result verifies against its own job hash only, and only
// with the payload its kind carries.
func TestResultVerify(t *testing.T) {
	const h = "0123abcd"
	for _, tc := range []struct {
		name string
		r    *Result
		want string // "" = verifies
	}{
		{"sampled", &Result{JobHash: h, Kind: JobSampled, Sampled: &sampling.RunResult{}}, ""},
		{"full", &Result{JobHash: h, Kind: JobFull, Full: &sampling.FullResult{}}, ""},
		{"nil", nil, "no result"},
		{"another job's", &Result{JobHash: "ffff", Kind: JobSampled, Sampled: &sampling.RunResult{}}, "result of job"},
		{"sampled, no payload", &Result{JobHash: h, Kind: JobSampled}, "no payload"},
		{"full with a sampled payload", &Result{JobHash: h, Kind: JobFull, Sampled: &sampling.RunResult{}}, "no payload"},
		{"unknown kind", &Result{JobHash: h, Kind: "warp", Full: &sampling.FullResult{}}, "unknown kind"},
	} {
		err := tc.r.Verify(h)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: Verify = %v, want %q", tc.name, err, tc.want)
		}
	}
}
