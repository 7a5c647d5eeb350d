package main

import (
	"reflect"
	"runtime"
	"time"

	"rsr/internal/sampling"
)

// setupReps is how many times a run repeats the set-up; setup_s is their
// median, so one disturbed repetition does not move it.
const setupReps = 3

// minRounds keeps quartiles meaningful when -seconds is very short.
const minRounds = 3

// timedSetUp runs the set-up reps times and reports the median seconds.
func timedSetUp(w workloadDef, m sampling.MachineConfig, reps int, rep *report) (*inputs, float64, error) {
	var in *inputs
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		next, err := setUp(w, m)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if in != nil {
			rep.op(reflect.DeepEqual(in.trueIPC, next.trueIPC), "set-up %d: true IPC differs from set-up 1", i+1)
		}
		in = next
	}
	return in, quartilesOf(secs).Median, nil
}

// armRound is one arm's pass over all the workload's programs.
type armRound struct {
	secs     float64   // the whole pass
	progSecs []float64 // per program
	allocMB  float64
	clusters [][]sampling.ClusterStat // per program
	ests     []float64                // per program IPC estimate
	results  []*sampling.RunResult
}

// runArm times one arm over every program: the unit est_s reports. The
// garbage collection and the allocation reading sit outside the timer.
func runArm(w workloadDef, m sampling.MachineConfig, in *inputs, a arm, seed int64, shards int, rep *report) armRound {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var ar armRound
	t0 := time.Now()
	for i, p := range in.programs {
		tp := time.Now()
		rr, err := sampling.RunSampledOpts(p, m, w.Regimen, w.Total, seed, a.Spec, sampling.Options{Shards: shards})
		ar.progSecs = append(ar.progSecs, time.Since(tp).Seconds())
		rep.op(err == nil, "%s on %s: %v", a.Key, w.Programs[i], err)
		if err != nil {
			rr = &sampling.RunResult{}
		}
		ar.results = append(ar.results, rr)
	}
	ar.secs = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	ar.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	for _, rr := range ar.results {
		ar.clusters = append(ar.clusters, rr.Clusters)
		ar.ests = append(ar.ests, rr.IPCEstimate())
	}
	return ar
}

// runSolo measures a solo workload with tracing off: rounds of the three
// arms, interleaved so host drift hits all of them equally, until the time
// budget is spent.
func runSolo(w workloadDef, cfg config, rep *report) error {
	m := sampling.DefaultMachine()
	reps := setupReps
	if cfg.Quick {
		reps = 1
	}
	in, setupSecs, err := timedSetUp(w, m, reps, rep)
	if err != nil {
		return err
	}
	rep.set("setup_s", setupSecs)

	// The reference every round must reproduce: for a sharded workload one
	// untimed sequential run per program and arm, otherwise round 1.
	ref := make(map[string][][]sampling.ClusterStat)
	if w.Shards > 1 {
		for _, a := range arms {
			ref[a.Key] = runArm(w, m, in, a, cfg.Seed, 0, rep).clusters
		}
	}

	secs := make(map[string][][]float64) // arm -> program -> rounds
	alloc := make(map[string][]float64)
	var last map[string]armRound
	deadline := cfg.after(time.Now(), 1)
	for round := 0; cfg.another(round, minRounds, deadline); round++ {
		last = make(map[string]armRound)
		for k := range arms {
			a := arms[(k+round)%len(arms)] // rotate which arm goes first
			ar := runArm(w, m, in, a, cfg.Seed, w.Shards, rep)
			if secs[a.Key] == nil {
				secs[a.Key] = make([][]float64, len(in.programs))
			}
			for i, s := range ar.progSecs {
				secs[a.Key][i] = append(secs[a.Key][i], s)
			}
			alloc[a.Key] = append(alloc[a.Key], ar.allocMB)
			if ref[a.Key] == nil {
				ref[a.Key] = ar.clusters
			}
			rep.op(reflect.DeepEqual(ref[a.Key], ar.clusters), "round %d: %s clusters differ from the reference", round+1, a.Key)
			last[a.Key] = ar
		}
	}

	var round float64
	for _, a := range arms {
		rep.setQuietSum("est_s."+a.Key, secs[a.Key])
		round += rep.Readings["est_s."+a.Key].Value
	}
	rep.setSpeedup()
	for _, a := range []arm{armSMARTS, armRSR20} {
		rep.set("ipc_acc_pct."+a.Key, 100-ipcErrPct(last[a.Key].ests, in.trueIPC))
		rep.setDist("alloc_mb."+a.Key, alloc[a.Key], func(q quartiles) float64 { return q.Median })
	}
	rep.set("jobs_per_s", ratio(float64(len(arms)*len(in.programs)), round))
	return nil
}
