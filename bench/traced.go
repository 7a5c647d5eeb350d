package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"rsr/internal/obs"
	"rsr/internal/regimen"
	"rsr/internal/sampling"
)

// replayReps is how many times the traced run repeats the layer replay.
const replayReps = 3

// spanKey groups span self times for the per-layer metrics.
type spanKey struct {
	arm     string
	capture bool
	name    string
}

// replaySet is one pass of the replay over every program and arm.
type replaySet struct {
	byArm map[string][]*replayResult // per arm, per program
	wall  float64                    // seconds, all replays
}

func replayAll(w workloadDef, m sampling.MachineConfig, in *inputs, seed int64, capture bool, l *ledger) (*replaySet, error) {
	rs := &replaySet{byArm: make(map[string][]*replayResult)}
	for _, a := range arms {
		for i, p := range in.programs {
			runtime.GC() // outside the replay's timer, as before every timed arm
			r, err := replay(p, m, w.Regimen, w.Total, seed, a, capture, l)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Key, w.Programs[i], err)
			}
			rs.byArm[a.Key] = append(rs.byArm[a.Key], r)
			rs.wall += r.wall.Seconds()
		}
	}
	return rs, nil
}

// total sums one counter of an arm's replays over the programs.
func (rs *replaySet) total(armKey string, f func(*replayResult) uint64) float64 {
	var t uint64
	for _, r := range rs.byArm[armKey] {
		t += f(r)
	}
	return float64(t)
}

// runSoloTraced is the traced run of a solo workload: reference rounds of
// sampling.RunSampled, the layer replay with spans on, the same replay with
// spans off, and the workload's extras (capture-path replay and one
// instrumented sharded run; the two-phase regimen).
func runSoloTraced(w workloadDef, cfg config, rep *report) error {
	m := sampling.DefaultMachine()
	in, _, err := timedSetUp(w, m, 1, rep)
	if err != nil {
		return err
	}
	var jitter []float64

	// Reference rounds: what the replay must reproduce, and the wall clock
	// the layer sum is compared with.
	ref := make(map[string]armRound)
	var roundSecs []float64
	deadline := cfg.after(time.Now(), 1.0/3)
	for round := 0; cfg.another(round, minRounds, deadline); round++ {
		jitter = append(jitter, calibrate())
		var total float64
		for _, a := range arms {
			ar := runArm(w, m, in, a, cfg.Seed, w.Shards, rep)
			total += ar.secs
			if _, ok := ref[a.Key]; !ok {
				ref[a.Key] = ar
			}
		}
		roundSecs = append(roundSecs, total)
	}
	rep.set("ipc_err_pct.smarts", ipcErrPct(ref["smarts"].ests, in.trueIPC))
	rep.set("ipc_err_pct.rsr20", ipcErrPct(ref["rsr20"].ests, in.trueIPC))

	// The layer replay: replayReps times traced and untraced, alternating, so
	// the pair that tracing overhead is read from shares the host's mood. A
	// sharded workload replays the capture path as its own, plus the in-place
	// path as the baseline its capture path is compared with. The per-layer
	// numbers come from the quietest traced repetition.
	sharded := w.Shards > 1
	var l *ledger
	var inPlace, captured *replaySet
	tracedWall, untracedWall := math.Inf(1), math.Inf(1)
	reps := replayReps
	if cfg.Quick {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		jitter = append(jitter, calibrate())
		li := newLedger()
		ip, err := replayAll(w, m, in, cfg.Seed, false, li)
		if err != nil {
			return err
		}
		own := ip
		var cp *replaySet
		if sharded {
			if cp, err = replayAll(w, m, in, cfg.Seed, true, li); err != nil {
				return err
			}
			own = cp
		}
		if own.wall < tracedWall {
			l, inPlace, captured, tracedWall = li, ip, cp, own.wall
		}
		un, err := replayAll(w, m, in, cfg.Seed, sharded, nil)
		if err != nil {
			return err
		}
		untracedWall = math.Min(untracedWall, un.wall)
	}
	for _, set := range []*replaySet{inPlace, captured} {
		if set == nil {
			continue
		}
		for _, a := range arms {
			for i, r := range set.byArm[a.Key] {
				rep.op(reflect.DeepEqual(r.clusters, ref[a.Key].clusters[i]), "replay of %s on %s differs from RunSampled", a.Key, w.Programs[i])
				rep.op(r.work == ref[a.Key].results[i].Work, "replay of %s on %s did different warm-up work", a.Key, w.Programs[i])
			}
		}
	}
	if err := writeTrace(cfg.OutDir, w.Name+".replay.trace.json", l.tr); err != nil {
		return err
	}

	// Self time by (arm, path, span name). On the workload's own path, lines
	// is every ledger line's self time — all but the two wrapper spans, whose
	// self time is loop glue nobody owns — and work is the lines without the
	// calibrated clock cost: what the same run costs with tracing off.
	spans := l.spans()
	self := selfTimes(spans)
	by := make(map[spanKey]float64)
	var lines, work float64
	for _, s := range spans {
		tk := l.tracks[s.Track]
		secs := self[s.ID].Seconds()
		by[spanKey{tk.arm, tk.capture, s.Name}] += secs
		if tk.capture != sharded || s.Name == spanReplay || s.Name == spanColdSkip {
			continue
		}
		lines += secs
		if s.Name != spanClock {
			work += secs
		}
	}
	ns := func(secs, n float64) float64 { return ratio(secs*1e9, n) }
	ms := func(secs, n float64) float64 { return ratio(secs*1e3, n) }
	regions := float64(w.Regimen.NumClusters * len(in.programs))
	cold := func(r *replayResult) uint64 { return r.coldInstr }
	hot := func(r *replayResult) uint64 { return r.hotInstr }

	var coldSecs, feedSecs, coldN, hotN float64
	for _, a := range arms {
		coldSecs += by[spanKey{a.Key, false, spanColdFunc}]
		feedSecs += by[spanKey{a.Key, false, spanFeed}]
		coldN += inPlace.total(a.Key, cold)
		hotN += inPlace.total(a.Key, hot)
	}
	rep.set("funcsim.cold_ns_per_instr", ns(coldSecs, coldN))
	rep.set("funcsim.cold_instr", inPlace.total("smarts", cold))
	rep.set("funcsim.feed_ns_per_instr", ns(feedSecs, hotN))
	rep.set("ooo.hot_instr", inPlace.total("smarts", hot))
	rep.set("ooo.full_ns_per_instr", in.fullNsPerInstr(w))

	for _, a := range []arm{armSMARTS, armRSR20} {
		k := a.Key
		coldK, hotK := inPlace.total(k, cold), inPlace.total(k, hot)
		rep.set("warmup.observe_ns_per_instr."+k, ns(by[spanKey{k, false, spanObserve}], coldK))
		rep.set("ooo.hot_ns_per_instr."+k, ns(by[spanKey{k, false, spanHot}], hotK))
		rep.set("ooo.cycles."+k, inPlace.total(k, func(r *replayResult) uint64 { return r.cycles }))
		rep.set("ooo.mispredict_ratio."+k, ratio(
			inPlace.total(k, func(r *replayResult) uint64 { return r.mispredict }),
			inPlace.total(k, func(r *replayResult) uint64 { return r.branches })))
		for _, level := range []string{"l1i", "l1d", "l2"} {
			rep.set("mem."+level+"_miss_ratio."+k, ratio(
				inPlace.total(k, func(r *replayResult) uint64 { return r.cache[level].Misses }),
				inPlace.total(k, func(r *replayResult) uint64 { return r.cache[level].Accesses })))
		}
		if captured != nil {
			inPlaceSecs := by[spanKey{k, false, spanObserve}] + by[spanKey{k, false, spanEndSkip}]
			captureSecs := by[spanKey{k, true, spanCapture}] + by[spanKey{k, true, spanSeal}] +
				by[spanKey{k, true, spanAdopt}] + by[spanKey{k, true, spanEndSkip}]
			rep.set("warmup.capture_ns_per_instr."+k, ns(by[spanKey{k, true, spanCapture}], coldK))
			rep.set("warmup.adopt_ms_per_region."+k, ms(by[spanKey{k, true, spanAdopt}], regions))
			rep.set("warmup.capture_overhead_pct."+k, 100*(ratio(captureSecs, inPlaceSecs)-1))
		}
	}
	rep.set("warmup.endskip_ms_per_region.rsr20", ms(by[spanKey{"rsr20", false, spanEndSkip}], regions))
	if captured != nil {
		rep.set("warmup.seal_ms_per_region.rsr20", ms(by[spanKey{"rsr20", true, spanSeal}], regions))
		rep.set("warmup.endskip_planned_ms_per_region.rsr20", ms(by[spanKey{"rsr20", true, spanEndSkip}], regions))
	}
	rep.set("warmup.warm_ops.smarts", inPlace.total("smarts", func(r *replayResult) uint64 { return r.work.WarmOps }))
	rep.set("warmup.logged_records.rsr20", inPlace.total("rsr20", func(r *replayResult) uint64 { return r.work.LoggedRecords }))
	rep.set("mem.warm_updates.smarts", inPlace.total("smarts", func(r *replayResult) uint64 { return r.warmUpdates }))
	rep.set("bpred.updates.smarts", inPlace.total("smarts", func(r *replayResult) uint64 { return r.bpredUpdates }))

	scanned := inPlace.total("rsr20", func(r *replayResult) uint64 { return r.work.ReconScanned })
	applied := inPlace.total("rsr20", func(r *replayResult) uint64 { return r.work.ReconApplied })
	rep.set("core.recon_scanned.rsr20", scanned)
	rep.set("core.recon_applied.rsr20", applied)
	rep.set("core.recon_useful_ratio.rsr20", ratio(applied, scanned))
	rep.set("core.pred_scanned.rsr20", inPlace.total("rsr20", func(r *replayResult) uint64 { return r.pred.ScannedRecords }))
	rep.set("core.pred_exact.rsr20", inPlace.total("rsr20", func(r *replayResult) uint64 { return r.pred.CountersExact }))
	rep.set("core.pred_inferred.rsr20", inPlace.total("rsr20", func(r *replayResult) uint64 { return r.pred.CountersInferred }))
	branches := func(r *replayResult) uint64 { return r.branches }
	rep.set("core.ondemand_ns_per_branch.rsr20", ns(by[spanKey{"rsr20", false, spanPredict}], inPlace.total("rsr20", branches)))
	rep.set("bpred.predict_ns_per_branch.smarts", ns(by[spanKey{"smarts", false, spanPredict}], inPlace.total("smarts", branches)))

	rep.set("sampling.ledger_coverage", ratio(lines, tracedWall))
	rep.set("sampling.controller_overhead_pct", 100*(ratio(quartilesOf(roundSecs).P25, work)-1))
	rep.set("sampling.trace_overhead_pct", 100*(ratio(tracedWall, untracedWall)-1))

	if w.Shards > 1 {
		jitter = append(jitter, calibrate())
		if err := shardedPipeline(w, m, in, cfg, ref, rep); err != nil {
			return err
		}
	}
	if w.TwoPhase {
		jitter = append(jitter, calibrate())
		if err := twoPhase(w, m, in, cfg, rep); err != nil {
			return err
		}
	}
	rep.set("host_jitter_pct", spreadPct(jitter))
	return nil
}

// shardedPipeline makes one real sharded run per program and warmed arm with
// the sampling package's own instruments on, and reads where the pipeline's
// wall clock went from rsr_sampling_pipeline_nanos_total{stage} and the
// pre-pass's checkpoint-capture spans.
func shardedPipeline(w workloadDef, m sampling.MachineConfig, in *inputs, cfg config, ref map[string]armRound, rep *report) error {
	registry := obs.NewRegistry()
	instr := sampling.NewInstruments(registry)
	tracer := obs.NewTracer(0)
	var wall, prepass float64
	for _, a := range []arm{armSMARTS, armRSR20} {
		for i, p := range in.programs {
			t0 := time.Now()
			rr, err := sampling.RunSampledOpts(p, m, w.Regimen, w.Total, cfg.Seed, a.Spec,
				sampling.Options{Shards: w.Shards, Instr: instr, Tracer: tracer})
			if err != nil {
				return fmt.Errorf("instrumented sharded run of %s on %s: %w", a.Key, w.Programs[i], err)
			}
			wall += time.Since(t0).Seconds()
			rep.op(reflect.DeepEqual(rr.Clusters, ref[a.Key].clusters[i]), "instrumented sharded run of %s on %s differs", a.Key, w.Programs[i])
			// The pre-pass runs from the start of the run to its last
			// checkpoint capture.
			var end int64
			for _, d := range tracer.Dump("") {
				if d.Name == sampling.PhaseCheckpoint && d.Start >= t0.UnixNano() && d.Start+d.Dur > end {
					end = d.Start + d.Dur
				}
			}
			if end > 0 {
				prepass += float64(end-t0.UnixNano()) / 1e9
			}
		}
	}
	if err := writeTrace(cfg.OutDir, w.Name+".pipeline.trace.json", tracer); err != nil {
		return err
	}
	stage := func(name string) float64 {
		return float64(registry.CounterVec("rsr_sampling_pipeline_nanos_total", "", "stage").With(name).Value()) / 1e9
	}
	adopt, simSecs := stage(sampling.StageConsumerWarm), stage(sampling.StageConsumerSim)
	rep.set("sampling.prepass_s", prepass)
	rep.set("sampling.producer_cold_s", stage(sampling.StageProducerCold))
	rep.set("sampling.producer_seal_s", stage(sampling.StageProducerSeal))
	rep.set("sampling.consumer_wait_s", stage(sampling.StageConsumerWait))
	rep.set("sampling.consumer_adopt_s", adopt)
	rep.set("sampling.consumer_sim_s", simSecs)
	rep.set("sampling.serial_fraction", ratio(adopt+simSecs, wall))
	return nil
}

// twoPhase times the two-phase-stratified regimen with R$BP (20%) warm-up:
// the only measurement of the second cluster loop, regimen.measureRegions.
func twoPhase(w workloadDef, m sampling.MachineConfig, in *inputs, cfg config, rep *report) error {
	strategy, err := regimen.ByName("two-phase-stratified")
	if err != nil {
		return err
	}
	var runSecs, selectSecs []float64
	var first []*regimen.Outcome
	deadline := cfg.after(time.Now(), 0.25)
	for round := 0; cfg.another(round, minRounds, deadline); round++ {
		var run, sel float64
		var outs []*regimen.Outcome
		for i, p := range in.programs {
			params := regimen.Params{Program: p, Machine: m, Regimen: w.Regimen, Total: w.Total, Seed: cfg.Seed, Warmup: armRSR20.Spec}
			ts := time.Now()
			_, err := strategy.Select(params)
			sel += time.Since(ts).Seconds()
			rep.op(err == nil, "two-phase select on %s: %v", w.Programs[i], err)
			tr := time.Now()
			out, err := strategy.Run(params)
			run += time.Since(tr).Seconds()
			rep.op(err == nil, "two-phase run on %s: %v", w.Programs[i], err)
			if err != nil {
				return err
			}
			out.Elapsed = 0 // the only field that legitimately differs between rounds
			outs = append(outs, out)
		}
		if first == nil {
			first = outs
		}
		rep.op(reflect.DeepEqual(first, outs), "two-phase round %d differs from round 1", round+1)
		runSecs = append(runSecs, run)
		selectSecs = append(selectSecs, sel)
	}
	var ests []float64
	var profile, funcInstr uint64
	for _, out := range first {
		ests = append(ests, out.Estimate.IPC)
		profile += out.Plan.ProfileInstructions
		funcInstr += out.FuncInstructions
	}
	rep.setSeconds("est_s.twophase", runSecs)
	rep.setSeconds("regimen.select_s.twophase", selectSecs)
	rep.set("regimen.measure_s.twophase", rep.Readings["est_s.twophase"].Value-rep.Readings["regimen.select_s.twophase"].Value)
	rep.set("ipc_err_pct.twophase", ipcErrPct(ests, in.trueIPC))
	rep.set("regimen.profile_instr.twophase", float64(profile))
	rep.set("regimen.func_instr.twophase", float64(funcInstr))
	return nil
}

// writeTrace dumps a tracer as Chrome trace-event JSON under dir.
func writeTrace(dir, name string, tr *obs.Tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
