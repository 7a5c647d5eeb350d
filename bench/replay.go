package main

import (
	"fmt"
	"time"

	"rsr/internal/bpred"
	"rsr/internal/core"
	"rsr/internal/funcsim"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/obs"
	"rsr/internal/ooo"
	"rsr/internal/prog"
	"rsr/internal/sampling"
	"rsr/internal/trace"
	"rsr/internal/warmup"
)

// The layer replay rebuilds the sequential sampled loop of
// sampling.runSampled from the layers' public calls, so the benchmark can
// put a span around each call into a layer without touching the program.
// Its clusters must equal sampling.RunSampled's exactly — the traced run
// checks that — so it times the same computation.
//
// Layers that can be timed from outside: funcsim (RunBatch in the cold loop
// and in the timing model's Fill), warmup (observation and EndSkip, which
// for the reverse method contains core's scans), ooo (SimulateSource, which
// contains mem), and the predictor (bpred.Unit or core.ReconPredictor)
// behind a shim. mem and trace have no seam: mem reports simulated counts.

// Span names the replay records.
const (
	spanReplay    = "replay"
	spanConstruct = "construct"
	spanColdSkip  = "cold-skip"
	spanColdFunc  = "funcsim.cold"
	spanObserve   = "warmup.observe"
	spanCapture   = "warmup.capture"
	spanSeal      = "warmup.seal"
	spanAdopt     = "warmup.adopt"
	spanEndSkip   = "warmup.end-skip"
	spanHot       = "ooo.hot-sim"
	spanFeed      = "funcsim.feed"
	spanPredict   = "predict"
	spanClock     = "clock"
)

// Layers spans are booked to, beside the repo's module names: layerSampling
// is the replay's own controller code, layerTrace the calibrated cost of the
// predictor shim's clock reads.
const (
	layerSampling = "sampling"
	layerTrace    = "trace-overhead"
)

// track identifies what one trace track replayed.
type track struct {
	arm     string
	capture bool
}

// ledger records the replay's spans into an obs.Tracer; each span carries
// its id and its parent's as arguments, which is all selfTimes needs.
type ledger struct {
	tr          *obs.Tracer
	next        int64
	epoch       time.Time
	inner, pair time.Duration // clockCost
	tracks      map[int64]track
}

func newLedger() *ledger {
	l := &ledger{tr: obs.NewTracer(0), epoch: time.Now(), tracks: make(map[int64]track)}
	l.inner, l.pair = clockCost(l.epoch)
	return l
}

func (l *ledger) id() int64 {
	l.next++
	return l.next
}

func (l *ledger) record(id, parent int64, name, layer string, tid int64, start time.Time, dur time.Duration, cluster int, n uint64) {
	l.tr.Record(name, layer, tid, start, dur,
		obs.SpanArg{Key: "id", Val: id}, obs.SpanArg{Key: "parent", Val: parent},
		obs.SpanArg{Key: "cluster", Val: int64(cluster)}, obs.SpanArg{Key: "n", Val: int64(n)})
}

// spans reads the recorded spans back out of the tracer.
func (l *ledger) spans() []span {
	dump := l.tr.Dump("")
	out := make([]span, len(dump))
	for i, d := range dump {
		s := span{Name: d.Name, Layer: d.Cat, Track: d.TID, Dur: time.Duration(d.Dur)}
		for _, a := range d.Args {
			switch a.Key {
			case "id":
				s.ID = a.Val
			case "parent":
				s.Parent = a.Val
			}
		}
		out[i] = s
	}
	return out
}

// timedPredictor is the shim handed to ooo.New: it times every Predict the
// timing model makes — where the reverse method's on-demand reconstruction
// runs — against the ledger's epoch, two clock reads per call. Update passes
// through untimed and stays in the timing model's self time.
type timedPredictor struct {
	p     bpred.Predictor
	epoch time.Time
	ns    time.Duration
	calls int64
}

func (t *timedPredictor) Predict(pc uint64, class isa.Class) bpred.Prediction {
	t0 := time.Since(t.epoch)
	r := t.p.Predict(pc, class)
	t.ns += time.Since(t.epoch) - t0
	t.calls++
	return r
}

func (t *timedPredictor) Update(r trace.BranchRecord) { t.p.Update(r) }

// feed is the replay's ooo.Source: sampling's stream type with the
// functional simulator's share of the hot phase timed.
type feed struct {
	fs    *funcsim.Sim
	buf   []trace.DynInst
	timed bool
	ns    time.Duration
	err   error
}

func (f *feed) Fill(max uint64) []trace.DynInst {
	if f.err != nil {
		return nil
	}
	b := f.buf
	if max < uint64(len(b)) {
		b = b[:max]
	}
	var t0 time.Time
	if f.timed {
		t0 = time.Now()
	}
	n, err := f.fs.RunBatch(b)
	if f.timed {
		f.ns += time.Since(t0)
	}
	f.err = err
	return b[:n]
}

// replayResult is what one replayed run produced and counted.
type replayResult struct {
	clusters []sampling.ClusterStat
	work     warmup.Work
	wall     time.Duration

	coldInstr, hotInstr          uint64
	cycles, branches, mispredict uint64
	pred                         core.PredReconStats // summed over regions
	warmUpdates                  uint64              // cache updates made outside the hot phases
	bpredUpdates                 uint64              // predictor updates made outside the hot phases
	cache                        map[string]mem.Stats
}

// replay runs one program under one arm. With capture set it takes the
// sharded pipeline's ingestion path single-threaded: the region is observed
// into a RegionCapture, sealed, and adopted, instead of observed in place.
// A nil ledger replays untraced: no clock reads and no predictor shim.
func replay(p *prog.Program, m sampling.MachineConfig, reg sampling.Regimen, total uint64, seed int64, a arm, capture bool, l *ledger) (*replayResult, error) {
	traced := l != nil
	now := func() time.Time {
		if traced {
			return time.Now()
		}
		return time.Time{}
	}
	var tid, root int64
	if traced {
		tid = l.tr.NextTID()
		l.tracks[tid] = track{arm: a.Key, capture: capture}
		root = l.id()
	}
	emit := func(parent int64, name, layer string, start time.Time, dur time.Duration, cluster int, n uint64) {
		if traced {
			l.record(l.id(), parent, name, layer, tid, start, dur, cluster, n)
		}
	}

	begin := time.Now()
	starts, err := sampling.Positions(total, reg, seed)
	if err != nil {
		return nil, err
	}
	hier := mem.NewHierarchy(m.Hier)
	unit := bpred.NewUnit(m.Pred)
	method := a.Spec.New(hier, unit)
	pred := method.Predictor()
	recon, _ := pred.(*core.ReconPredictor)
	predLayer := "bpred"
	if recon != nil {
		predLayer = "core"
	}
	var shim *timedPredictor
	if traced {
		shim = &timedPredictor{p: pred, epoch: l.epoch}
		pred = shim
	}
	sim := ooo.New(m.CPU, hier, pred)
	fs := funcsim.New(p)
	buf := make([]trace.DynInst, funcsim.BatchSize)
	src := &feed{fs: fs, buf: buf, timed: traced}
	emit(root, spanConstruct, layerSampling, begin, time.Since(begin), -1, 0)

	res := &replayResult{}
	var pos uint64
	for ci, start := range starts {
		cold := start - pos
		memBefore, predBefore := hier.TotalUpdates(), unit.Updates()

		// Cold phase, batched exactly as sampling.runSampled batches it.
		coldID := int64(0)
		if traced {
			coldID = l.id()
		}
		t0 := now()
		observe := method.ObserveSkipBatch
		var rc warmup.RegionCapture
		if capture {
			rc = method.NewRegionCapture(ci, cold)
			observe = rc.ObserveSkipBatch
		} else {
			method.BeginSkip(cold)
		}
		t1 := now()
		fsT, obsT := time.Duration(0), t1.Sub(t0)
		var ran uint64
		for ran < cold {
			b := buf
			if rem := cold - ran; rem < uint64(len(b)) {
				b = b[:rem]
			}
			ta := now()
			k, err := fs.RunBatch(b)
			tb := now()
			if err != nil {
				return nil, fmt.Errorf("replay: cold phase: %w", err)
			}
			if k > 0 {
				observe(b[:k])
			}
			fsT += tb.Sub(ta)
			obsT += now().Sub(tb)
			ran += uint64(k)
			if k < len(b) {
				break
			}
		}
		if ran != cold {
			return nil, fmt.Errorf("replay: workload halted after %d skipped instructions", ran)
		}
		if traced {
			obsName := spanObserve
			if capture {
				obsName = spanCapture
			}
			l.record(coldID, root, spanColdSkip, layerSampling, tid, t0, time.Since(t0), ci, ran)
			emit(coldID, spanColdFunc, "funcsim", t0, fsT, ci, ran)
			emit(coldID, obsName, "warmup", t0.Add(fsT), obsT, ci, ran)
		}
		res.coldInstr += ran
		pos += ran

		if capture {
			t0 = now()
			rc.Seal()
			emit(root, spanSeal, "warmup", t0, now().Sub(t0), ci, 0)
			t0 = now()
			method.BeginSkip(cold)
			method.AdoptRegion(rc)
			emit(root, spanAdopt, "warmup", t0, now().Sub(t0), ci, 0)
		}
		t0 = now()
		method.EndSkip()
		emit(root, spanEndSkip, "warmup", t0, now().Sub(t0), ci, 0)
		res.warmUpdates += hier.TotalUpdates() - memBefore
		res.bpredUpdates += unit.Updates() - predBefore

		// Hot phase.
		hotID := int64(0)
		if traced {
			hotID = l.id()
			shim.ns, shim.calls = 0, 0
			src.ns = 0
		}
		t0 = now()
		r := sim.SimulateSource(reg.ClusterSize, src)
		hotDur := now().Sub(t0)
		if src.err != nil {
			return nil, fmt.Errorf("replay: hot phase: %w", src.err)
		}
		if traced {
			// The shim's reading holds l.inner of clock cost per call; the
			// rest of each clock pair ran inside SimulateSource untimed.
			calls := time.Duration(shim.calls)
			predT := shim.ns - calls*l.inner
			if predT < 0 {
				predT = 0
			}
			clockT := calls * (l.pair - l.inner)
			if rest := hotDur - src.ns - predT; clockT > rest {
				clockT = rest
			}
			l.record(hotID, root, spanHot, "ooo", tid, t0, hotDur, ci, r.Instructions)
			emit(hotID, spanFeed, "funcsim", t0, src.ns, ci, r.Instructions)
			emit(hotID, spanPredict, predLayer, t0.Add(src.ns), predT, ci, uint64(shim.calls))
			emit(hotID, spanClock, layerTrace, t0.Add(src.ns+predT), clockT, ci, uint64(shim.calls))
		}
		res.hotInstr += r.Instructions
		res.cycles += r.Cycles
		res.branches += r.Branches
		res.mispredict += r.Mispredicts
		res.clusters = append(res.clusters, sampling.ClusterStat{Start: start, Result: r})
		pos += r.Instructions
		if recon != nil {
			st := recon.Stats()
			res.pred.ScannedRecords += st.ScannedRecords
			res.pred.CountersExact += st.CountersExact
			res.pred.CountersInferred += st.CountersInferred
		}
	}
	res.work = method.Work()
	res.wall = time.Since(begin)
	if traced {
		l.record(root, 0, spanReplay, layerSampling, tid, begin, res.wall, -1, pos)
	}
	res.cache = make(map[string]mem.Stats)
	hier.EachCache(func(level string, s mem.Stats) { res.cache[level] = s })
	return res, nil
}
