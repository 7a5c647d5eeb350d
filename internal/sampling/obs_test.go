package sampling

import (
	"bytes"
	"encoding/json"
	"testing"

	"rsr/internal/bpred"
	"rsr/internal/funcsim"
	"rsr/internal/mem"
	"rsr/internal/obs"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// instrumentedRun executes one sampled run with a fresh registry and tracer
// attached and returns all three.
func instrumentedRun(t *testing.T, spec warmup.Spec) (*RunResult, *obs.Registry, *obs.Tracer) {
	t.Helper()
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	res, err := RunSampledOpts(w.Build(), DefaultMachine(),
		Regimen{ClusterSize: 1000, NumClusters: 10}, 500_000, 42, spec,
		Options{Instr: NewInstruments(reg), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	return res, reg, tr
}

// TestInstrumentedRunIdentical pins the observability contract: attaching a
// registry and tracer changes nothing about the simulation — per-cluster
// timing results, work counters, and instruction totals are byte-identical
// to an uninstrumented run.
func TestInstrumentedRunIdentical(t *testing.T) {
	spec := warmup.Spec{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true}
	plain := testRun(t, spec)
	inst, _, _ := instrumentedRun(t, spec)

	if plain.Method != inst.Method {
		t.Fatalf("method differs: %q vs %q", plain.Method, inst.Method)
	}
	if len(plain.Clusters) != len(inst.Clusters) {
		t.Fatalf("cluster count differs: %d vs %d", len(plain.Clusters), len(inst.Clusters))
	}
	for i := range plain.Clusters {
		if plain.Clusters[i] != inst.Clusters[i] {
			t.Fatalf("cluster %d differs between instrumented and plain runs", i)
		}
	}
	if plain.Work != inst.Work {
		t.Fatalf("work differs: %+v vs %+v", plain.Work, inst.Work)
	}
	if plain.FuncInstructions != inst.FuncInstructions ||
		plain.HotInstructions != inst.HotInstructions {
		t.Fatalf("instruction totals differ: func %d/%d hot %d/%d",
			plain.FuncInstructions, inst.FuncInstructions,
			plain.HotInstructions, inst.HotInstructions)
	}
}

// seriesValue finds one series by family name and label subset in a registry
// snapshot and returns its counter/gauge value.
func seriesValue(t *testing.T, snaps []obs.MetricSnapshot, name string, labels map[string]string) float64 {
	t.Helper()
	for _, m := range snaps {
		if m.Name != name {
			continue
		}
	series:
		for _, s := range m.Series {
			for k, v := range labels {
				if s.Labels[k] != v {
					continue series
				}
			}
			return s.Value
		}
	}
	t.Fatalf("no series %s%v in snapshot", name, labels)
	return 0
}

// TestRunMetricsMatchResult cross-checks the registry against the RunResult:
// the per-phase instruction counters partition FuncInstructions, the hot
// counter equals HotInstructions, the cluster counter equals the cluster
// count, and the per-method warm-up counters reproduce the final Work struct
// (each phase folds a delta; the deltas must sum back to the total).
func TestRunMetricsMatchResult(t *testing.T) {
	spec := warmup.Spec{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true}
	res, reg, _ := instrumentedRun(t, spec)
	snaps := reg.Snapshot()

	cold := seriesValue(t, snaps, "rsr_sampling_phase_instructions_total", map[string]string{"phase": "cold"})
	hot := seriesValue(t, snaps, "rsr_sampling_phase_instructions_total", map[string]string{"phase": "hot"})
	if uint64(cold+hot) != res.FuncInstructions {
		t.Fatalf("cold+hot = %d, want FuncInstructions %d", uint64(cold+hot), res.FuncInstructions)
	}
	if uint64(hot) != res.HotInstructions {
		t.Fatalf("hot counter = %d, want HotInstructions %d", uint64(hot), res.HotInstructions)
	}
	if n := seriesValue(t, snaps, "rsr_sampling_clusters_total", nil); int(n) != len(res.Clusters) {
		t.Fatalf("clusters counter = %d, want %d", int(n), len(res.Clusters))
	}
	if n := seriesValue(t, snaps, "rsr_sampling_runs_total", map[string]string{"kind": "sampled"}); n != 1 {
		t.Fatalf("runs counter = %v, want 1", n)
	}

	method := map[string]string{"method": res.Method}
	checks := []struct {
		name string
		want uint64
	}{
		{"rsr_warmup_logged_records_total", res.Work.LoggedRecords},
		{"rsr_warmup_recon_scanned_total", res.Work.ReconScanned},
		{"rsr_warmup_recon_applied_total", res.Work.ReconApplied},
		{"rsr_warmup_warm_ops_total", res.Work.WarmOps},
	}
	for _, c := range checks {
		if got := seriesValue(t, snaps, c.name, method); uint64(got) != c.want {
			t.Fatalf("%s = %d, want %d", c.name, uint64(got), c.want)
		}
	}
	if res.Work.LoggedRecords == 0 || res.Work.ReconApplied == 0 {
		t.Fatal("reverse run logged or applied nothing; test is vacuous")
	}

	// A reverse run touches all three caches and the predictor; the machine
	// event families must be populated.
	if n := seriesValue(t, snaps, "rsr_cache_events_total", map[string]string{"level": "l1d", "event": "accesses"}); n == 0 {
		t.Fatal("l1d access counter is zero after a run")
	}
	if n := seriesValue(t, snaps, "rsr_bpred_updates_total", map[string]string{"structure": "dir"}); n == 0 {
		t.Fatal("direction predictor update counter is zero after a run")
	}
}

// traceEvent mirrors the Chrome trace-event fields the tests care about.
type traceEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TID  int64            `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// TestRunSpansCoverClusters parses the Chrome trace of an instrumented run
// and checks the acceptance criterion directly: every cluster contributes a
// cold-skip, reverse-scan, and hot-sim span, all on the same track, with
// per-cluster instruction counts attached.
func TestRunSpansCoverClusters(t *testing.T) {
	spec := warmup.Spec{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true}
	res, _, tr := instrumentedRun(t, spec)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}

	clusters := map[string]map[int64]bool{}
	tids := map[int64]bool{}
	var hotInstrs int64
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		if ev.Cat != res.Method {
			t.Fatalf("span category %q, want method %q", ev.Cat, res.Method)
		}
		tids[ev.TID] = true
		if clusters[ev.Name] == nil {
			clusters[ev.Name] = map[int64]bool{}
		}
		clusters[ev.Name][ev.Args["cluster"]] = true
		if ev.Name == PhaseHotSim {
			hotInstrs += ev.Args["instructions"]
		}
	}
	if len(tids) != 1 {
		t.Fatalf("spans spread over %d tracks, want one per run", len(tids))
	}
	for _, phase := range []string{PhaseColdSkip, PhaseReverseScan, PhaseHotSim} {
		if got := len(clusters[phase]); got != len(res.Clusters) {
			t.Fatalf("%s spans cover %d clusters, want %d", phase, got, len(res.Clusters))
		}
	}
	if uint64(hotInstrs) != res.HotInstructions {
		t.Fatalf("hot span instruction args sum to %d, want %d", hotInstrs, res.HotInstructions)
	}
}

// TestConcurrentInstrumentedRuns shares one registry and tracer across
// parallel runs — the engine's usage pattern — and checks the aggregate
// counters. Run under -race this also exercises the lock-free instrument
// paths from multiple goroutines.
func TestConcurrentInstrumentedRuns(t *testing.T) {
	w, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	in := NewInstruments(reg)
	const runs = 4
	done := make(chan error, runs)
	for i := 0; i < runs; i++ {
		go func() {
			_, err := RunSampledOpts(w.Build(), DefaultMachine(),
				Regimen{ClusterSize: 500, NumClusters: 4}, 100_000, 7,
				warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true},
				Options{Instr: in, Tracer: tr})
			done <- err
		}()
	}
	for i := 0; i < runs; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	snaps := reg.Snapshot()
	if n := seriesValue(t, snaps, "rsr_sampling_runs_total", map[string]string{"kind": "sampled"}); n != runs {
		t.Fatalf("runs counter = %v, want %d", n, runs)
	}
	if n := seriesValue(t, snaps, "rsr_sampling_clusters_total", nil); int(n) != runs*4 {
		t.Fatalf("clusters counter = %v, want %d", n, runs*4)
	}
	// Each cluster records three phase spans (cold-skip, reverse-scan,
	// hot-sim) on the run's own track.
	if got := tr.Len(); got != runs*4*3 {
		t.Fatalf("tracer holds %d spans, want %d", got, runs*4*3)
	}
}

// TestFullRunInstrumented checks the full-simulation path: one full-sim span,
// one full-sim latency and no other phase's (the run-ahead feed's region has
// no cold phase to record), a "full" run count, and no warm-up series for a
// method-less run.
func TestFullRunInstrumented(t *testing.T) {
	w, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	res, err := RunFullOpts(w.Build(), DefaultMachine(), 50_000,
		Options{Instr: NewInstruments(reg), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	snaps := reg.Snapshot()
	if n := seriesValue(t, snaps, "rsr_sampling_runs_total", map[string]string{"kind": "full"}); n != 1 {
		t.Fatalf("full run counter = %v, want 1", n)
	}
	if n := seriesValue(t, snaps, "rsr_sampling_phase_instructions_total", map[string]string{"phase": "hot"}); uint64(n) != res.Result.Instructions {
		t.Fatalf("hot counter = %v, want %d", n, res.Result.Instructions)
	}
	for _, m := range snaps {
		if m.Name == "rsr_warmup_logged_records_total" {
			for _, s := range m.Series {
				if s.Labels["method"] == "full" {
					t.Fatal("full run created a spurious warm-up series")
				}
			}
		}
	}
	if tr.Len() != 1 {
		t.Fatalf("tracer holds %d spans, want 1 full-sim span", tr.Len())
	}
	var fullSim uint64
	for _, m := range snaps {
		if m.Name != "rsr_sampling_phase_seconds" {
			continue
		}
		for _, s := range m.Series {
			if s.Labels["phase"] == PhaseFullSim {
				fullSim = s.Histogram.Count
			} else if s.Histogram.Count != 0 {
				t.Errorf("a full run observed %d %s latencies", s.Histogram.Count, s.Labels["phase"])
			}
		}
	}
	if fullSim != 1 {
		t.Errorf("full-sim latencies observed: %d, want 1", fullSim)
	}
}

// TestDisabledObservabilityZeroAllocs pins the off switch: with both sinks
// disabled (nil Instruments and Tracer — the default Options), a cluster's
// cold phase as the run-ahead feed passes it — the producer's coldSkip into a
// hand-off and the walker's next and ingest — plus every per-phase runObs
// hook adds zero allocations, for a method that applies the window's
// stretches (S$BP) and for one that logs them (R$BP). This is the contract
// that lets the instrumentation stay compiled into the hot paths.
// Both ends run on the test's goroutine: one region's slots fit the ring.
func TestDisabledObservabilityZeroAllocs(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine()
	for _, label := range []string{"S$BP", "R$BP (100%)"} {
		spec, err := warmup.SpecByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		method := spec.New(mem.NewHierarchy(m.Hier), bpred.NewUnit(m.Pred))
		fs := funcsim.New(w.Build())
		ro := newRunObs(nil, nil, "sampled", spec.Label()) // nil: both sinks off
		f := &aheadFeed{opts: &Options{}, done: make(chan struct{}),
			full: make(chan *aheadSlot, aheadSlots), free: make(chan *aheadSlot, aheadSlots)}
		for range aheadSlots {
			f.slots = append(f.slots, newAheadSlot())
			f.free <- f.slots[len(f.slots)-1]
		}
		var h handoff

		// EndSkip (reconstruction) stays outside the measured body: it
		// allocates once per cluster by design, with or without
		// observability. The pin covers the cold phase and the phase hooks.
		const skip = 3 * handoffInstrs
		cluster := 0
		run := func() {
			lead, w := method.NewWindow(skip)
			h = handoff{f: f, lead: lead, w: w}
			if err := coldSkip(fs, skip, &h); err != nil {
				t.Fatal(err)
			}
			h.flush()
			s := f.get() // an empty hot phase closes the cold one
			s.win.Seen, s.recs, s.last, s.err = 0, s.recs[:0], true, nil
			f.send(s)

			t0 := ro.begin()
			cold := f.next(Region{Start: f.pos + skip})
			method.BeginSkip(cold)
			if err := f.ingest(method); err != nil {
				t.Fatal(err)
			}
			ro.coldDone(t0, cluster, cold, method.Work())
			f.release()
			ro.reconDone(ro.begin(), cluster, method.Work())
			ro.hotDone(ro.begin(), cluster, 0, method.Work())
			cluster++
		}
		run() // steady state: pages, slot storage and captures now exist
		run()
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("%s: disabled observability allocates %.2f per cluster; hooks must be free when off", label, avg)
		}
	}
}
