package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rsr/internal/engine"
	"rsr/internal/obs"
	"rsr/internal/sampling"
	"rsr/internal/warmup"
)

// figure8 are the five specs of the paper's Figure 8. Submitting them on top
// of the full matrix is where a real sweep's natural duplicates come from:
// `rsr all` regenerates every figure and the figures share specs.
var figure8 = []warmup.Spec{
	{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true},
	{Kind: warmup.KindReverse, Percent: 40, Cache: true, BPred: true},
	{Kind: warmup.KindReverse, Percent: 80, Cache: true, BPred: true},
	{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true},
	{Kind: warmup.KindSMARTS, Cache: true, BPred: true},
}

// sweepJobs builds the submission list — every program under the matrix plus
// Figure 8's specs again — in an order drawn from the seed.
func sweepJobs(w workloadDef, seed int64) []engine.Job {
	var jobs []engine.Job
	for _, name := range w.Programs {
		for _, spec := range append(warmup.Matrix(), figure8...) {
			jobs = append(jobs, engine.Job{Kind: engine.JobSampled, Workload: name,
				Machine: sampling.DefaultMachine(), Total: w.Total, Regimen: w.Regimen, Seed: seed, Warmup: spec})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// pass is one sweep through a fresh engine: every submission's result and
// when its client sent it and had it back, and the engine's own tally.
type pass struct {
	wall       float64 // seconds
	sent, back []time.Time
	results    []*engine.Result
	stats      engine.Stats
}

func (p *pass) latency(i int) time.Duration { return p.back[i].Sub(p.sent[i]) }

// runPass drives the closed loop: `workers` clients each submit the next
// job and wait for it, until the list is exhausted.
func runPass(dir string, jobs []engine.Job, tracer *obs.Tracer, rep *report) *pass {
	eng := engine.New(engine.Options{Workers: workers, CacheDir: dir, Tracer: tracer})
	p := &pass{sent: make([]time.Time, len(jobs)), back: make([]time.Time, len(jobs)), results: make([]*engine.Result, len(jobs))}
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var clients sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < workers; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				p.sent[i] = time.Now()
				p.results[i], errs[i] = eng.Run(context.Background(), jobs[i])
				p.back[i] = time.Now()
			}
		}()
	}
	clients.Wait()
	p.wall = time.Since(t0).Seconds()
	eng.Close() // also settles the counters: a ticket completes before its job is tallied
	p.stats = eng.Stats()
	for i, err := range errs {
		rep.op(err == nil && p.results[i] != nil && p.results[i].Sampled != nil, "sweep job %s: %v", jobs[i].Label(), err)
		if p.results[i] == nil || p.results[i].Sampled == nil {
			p.results[i] = &engine.Result{Sampled: &sampling.RunResult{}}
		}
	}
	rep.op(p.stats.Failed == 0, "engine reports %d failed jobs", p.stats.Failed)
	return p
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// coldTally accumulates what the cold passes say about the engine.
type coldTally struct {
	rates                         []float64              // submissions per second, per pass
	armSecs                       map[string][][]float64 // arm -> program -> passes: Result.Wall
	execMS, overheadUS, handoffMS []float64
	engineWall, wall              float64 // seconds
}

// add files one cold pass. which maps a submission to the arm and program it
// belongs to, if it is one of the three arms' jobs.
func (t *coldTally) add(p *pass, which func(i int) (arm string, prog int, ok bool)) {
	t.rates = append(t.rates, float64(len(p.results))/p.wall)
	t.wall += p.wall
	t.engineWall += p.stats.Wall.Seconds()
	done := make(map[string]time.Time) // job hash -> when its first submission came back
	for i, res := range p.results {
		if at, ok := done[res.JobHash]; !ok || p.back[i].Before(at) {
			done[res.JobHash] = p.back[i]
		}
	}
	ran := make(map[string]bool)
	for i, res := range p.results {
		switch {
		case p.latency(i) >= res.Wall && !ran[res.JobHash]:
			// The submission whose latency covers the execution ran the job.
			ran[res.JobHash] = true
			t.execMS = append(t.execMS, float64(res.Wall.Microseconds())/1e3)
			t.overheadUS = append(t.overheadUS, float64((p.latency(i)-res.Wall).Nanoseconds())/1e3)
			if k, pi, ok := which(i); ok {
				t.armSecs[k][pi] = append(t.armSecs[k][pi], res.Wall.Seconds())
			}
		case p.sent[i].After(done[res.JobHash]):
			// Sent after the job had finished: served from memory, so the
			// latency is the hand-off to a worker and back, nothing else.
			t.handoffMS = append(t.handoffMS, float64(p.latency(i).Nanoseconds())/1e6)
		}
	}
}

// runSweep measures the sweep workload. Cold passes (fresh cache directory
// each) spend the first three quarters of the time budget: scheduler,
// simulation, cache write and dedup. Re-sweep passes, each a fresh engine on
// the last pass's directory, spend the rest: disk-cache read and SHA verify
// only. The traced run is the same measurement with the engine's tracer on,
// reporting the per-layer table instead.
func runSweep(w workloadDef, cfg config, rep *report) error {
	m := sampling.DefaultMachine()
	reps := setupReps
	if cfg.Quick || cfg.Trace {
		reps = 1
	}
	in, setupSecs, err := timedSetUp(w, m, reps, rep)
	if err != nil {
		return err
	}
	jobs := sweepJobs(w, cfg.Seed)

	// Direct sequential runs of the three arms: what the engine's results
	// for those jobs must equal, and where the arms' allocation is read.
	direct := make(map[string]armRound)
	tally := coldTally{armSecs: make(map[string][][]float64)}
	ests := make(map[string][]float64)
	for _, a := range arms {
		direct[a.Key] = runArm(w, m, in, a, cfg.Seed, 0, rep)
		tally.armSecs[a.Key] = make([][]float64, len(w.Programs))
		ests[a.Key] = make([]float64, len(w.Programs))
	}
	progIndex := make(map[string]int)
	for i, name := range w.Programs {
		progIndex[name] = i
	}
	which := func(i int) (string, int, bool) {
		for _, a := range arms {
			if jobs[i].Warmup == a.Spec {
				return a.Key, progIndex[jobs[i].Workload], true
			}
		}
		return "", 0, false
	}

	var tracer *obs.Tracer
	if cfg.Trace {
		tracer = obs.NewTracer(1 << 18)
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(cfg.OutDir, "sweep-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	var jitter []float64
	var first, last *pass
	var lastDir string
	began := time.Now()
	for n, deadline := 0, cfg.after(began, 0.75); cfg.another(n, 2, deadline); n++ {
		jitter = append(jitter, calibrate())
		runtime.GC()
		lastDir = filepath.Join(root, fmt.Sprintf("cold-%d", n))
		last = runPass(lastDir, jobs, tracer, rep)
		tally.add(last, which)
		if first == nil {
			first = last
			for i, res := range first.results {
				if k, pi, ok := which(i); ok {
					rep.op(reflect.DeepEqual(res.Sampled.Clusters, direct[k].clusters[pi]) && res.Sampled.Work == direct[k].results[pi].Work,
						"engine result of %s differs from the direct run", jobs[i].Label())
					ests[k][pi] = res.Sampled.IPCEstimate()
				}
			}
		}
		for i, res := range last.results {
			rep.op(reflect.DeepEqual(res.Sampled.Clusters, first.results[i].Sampled.Clusters), "cold pass %d: %s differs from pass 1", n+1, jobs[i].Label())
		}
	}
	storeBytes, err := dirBytes(lastDir)
	if err != nil {
		return err
	}

	// Re-sweeps: a fresh engine per pass, so every unique job is a disk read.
	var warmRates, loadUS []float64
	var warm *pass
	for n, deadline := 0, cfg.after(began, 1); cfg.another(n, minRounds, deadline); n++ {
		p := runPass(lastDir, jobs, tracer, rep)
		warmRates = append(warmRates, float64(len(jobs))/p.wall)
		for i, res := range p.results {
			loadUS = append(loadUS, float64(p.latency(i).Nanoseconds())/1e3)
			rep.op(reflect.DeepEqual(res.Sampled, last.results[i].Sampled), "re-sweep %d: %s differs from its cold result", n+1, jobs[i].Label())
		}
		if warm == nil {
			warm = p
		}
	}

	if !cfg.Trace {
		rep.set("setup_s", setupSecs)
		for _, a := range arms {
			rep.setQuietSum("est_s."+a.Key, tally.armSecs[a.Key])
		}
		rep.setSpeedup()
		for _, a := range []arm{armSMARTS, armRSR20} {
			rep.set("ipc_acc_pct."+a.Key, 100-ipcErrPct(ests[a.Key], in.trueIPC))
			rep.set("alloc_mb."+a.Key, direct[a.Key].allocMB)
		}
		rep.setRate("jobs_per_s", tally.rates)
		return nil
	}

	if err := writeTrace(cfg.OutDir, w.Name+".engine.trace.json", tracer); err != nil {
		return err
	}
	unique := float64(last.stats.CacheMisses)
	rep.set("ipc_err_pct.smarts", ipcErrPct(ests["smarts"], in.trueIPC))
	rep.set("ipc_err_pct.rsr20", ipcErrPct(ests["rsr20"], in.trueIPC))
	rep.set("ooo.full_ns_per_instr", in.fullNsPerInstr(w))
	rep.setRate("sweep_jobs_per_s", tally.rates)
	rep.setRate("resweep_jobs_per_s", warmRates)
	rep.set("engine.queue_wait_ms_p50", percentile(tally.handoffMS, 50))
	rep.set("engine.exec_ms_p50", percentile(tally.execMS, 50))
	rep.set("engine.exec_ms_p95", percentile(tally.execMS, 95))
	rep.set("engine.overhead_us_p50", percentile(tally.overheadUS, 50))
	rep.set("engine.worker_utilisation", ratio(tally.engineWall, workers*tally.wall))
	rep.set("engine.cache_store_bytes_per_job", ratio(float64(storeBytes), unique))
	rep.set("engine.cache_misses", unique)
	rep.set("engine.cache_hits", float64(last.stats.CacheHits))
	rep.set("engine.coalesced", float64(last.stats.Coalesced))
	rep.set("engine.dedup_ratio", ratio(float64(len(jobs))-unique, float64(len(jobs))))
	rep.set("engine.disk_hits", float64(warm.stats.DiskHits))
	rep.set("engine.retries", float64(last.stats.Retries+warm.stats.Retries))
	rep.set("engine.failed", float64(last.stats.Failed+warm.stats.Failed))
	rep.set("engine.cache_load_us_p50", percentile(loadUS, 50))
	rep.set("engine.cache_load_us_p95", percentile(loadUS, 95))
	rep.set("host_jitter_pct", spreadPct(jitter))
	return nil
}
