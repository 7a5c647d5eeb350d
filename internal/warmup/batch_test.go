package warmup

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"rsr/internal/bpred"
	"rsr/internal/funcsim"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/prog"
	"rsr/internal/trace"
)

// genRecords produces a realistic committed-instruction stream — loads,
// stores, taken and not-taken branches, calls, returns, indirect jumps — by
// running a synthetic endless loop through the functional simulator.
func genRecords(t testing.TB, n int) []trace.DynInst {
	t.Helper()
	b := prog.NewBuilder("gen")
	b.Li(1, int64(prog.DataBase))
	b.Li(2, 1)
	b.Label("loop")
	b.Op3(isa.OpAdd, 3, 3, 2)
	b.Shli(4, 3, 3)
	b.Andi(4, 4, 0x3FF8)
	b.Op3(isa.OpAdd, 5, 1, 4)
	b.St(5, 3, 0)
	b.Ld(6, 5, 0)
	b.Op3(isa.OpMul, 7, 6, 3)
	b.Andi(8, 3, 1)
	b.Branch(isa.OpBeq, 8, 0, "even") // taken half the time
	b.Op3(isa.OpXor, 9, 9, 7)
	b.Label("even")
	b.Call(31, "leaf")
	b.Call(30, "leaf2")
	b.Andi(10, 3, 63)
	b.Branch(isa.OpBne, 10, 0, "loop") // mostly taken
	b.Jmp("loop")
	b.Label("leaf")
	b.Addi(11, 11, 1)
	b.Ret(31)
	b.Label("leaf2")
	b.Addi(12, 12, 1)
	b.Jr(30)
	s := funcsim.New(b.MustBuild())
	buf := make([]trace.DynInst, n)
	k, err := s.RunBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if k != n {
		t.Fatalf("generator halted after %d records", k)
	}
	return buf
}

// observeScalarRegion begins a region on m and shows it ds through the
// per-instruction oracle, stopping short of EndSkip.
func observeScalarRegion(m Method, ds []trace.DynInst) {
	m.BeginSkip(uint64(len(ds)))
	for i := range ds {
		observeScalar(m, &ds[i])
	}
}

// observeBatchedRegion begins a region on m and shows it ds split into
// chunk-sized batches, stopping short of EndSkip.
func observeBatchedRegion(m Method, ds []trace.DynInst, chunk int) {
	m.BeginSkip(uint64(len(ds)))
	for o := 0; o < len(ds); o += chunk {
		m.ObserveSkipBatch(ds[o:min(o+chunk, len(ds))])
	}
}

// feedBatched drives m through one whole region in chunk-sized batches.
func feedBatched(m Method, ds []trace.DynInst, chunk int) {
	observeBatchedRegion(m, ds, chunk)
	m.EndSkip()
}

// compareMethods asserts the two driven methods left identical state behind.
func compareMethods(t *testing.T, ms, mb Method, hsState, hbState, usState, ubState interface{}) {
	t.Helper()
	if ms.Work() != mb.Work() {
		t.Fatalf("work diverged:\nscalar:  %+v\nbatched: %+v", ms.Work(), mb.Work())
	}
	if !reflect.DeepEqual(hsState, hbState) {
		t.Fatal("hierarchy state diverged between scalar and batched observation")
	}
	if !reflect.DeepEqual(usState, ubState) {
		t.Fatal("predictor state diverged between scalar and batched observation")
	}
}

// TestBatchScalarEquivalence pins the Method interface contract: for every
// spec in the paper's matrix and any batch split, ObserveSkipBatch must leave
// exactly the state — and, for the reverse method, the skip log, compared
// before EndSkip plans from it and lets it go — that the per-instruction
// oracle does.
func TestBatchScalarEquivalence(t *testing.T) {
	recs := genRecords(t, 24_000)
	half := len(recs) / 2
	regions := [][]trace.DynInst{recs[:half], recs[half:]}
	probes := []uint64{0x400000, 0x400004, 0x400040, 0x400100}

	for _, spec := range Matrix() {
		spec := spec
		t.Run(spec.Label(), func(t *testing.T) {
			for _, chunk := range []int{1, 7, 256, 1024} {
				hs, us := testEnv()
				ms := spec.New(hs, us)
				hb, ub := testEnv()
				mb := spec.New(hb, ub)
				for _, reg := range regions {
					observeScalarRegion(ms, reg)
					observeBatchedRegion(mb, reg, chunk)
					if spec.Kind == KindReverse {
						ls, lb := ms.(*reverse).cur.log, mb.(*reverse).cur.log
						if ls.Len() == 0 || !reflect.DeepEqual(ls, lb) {
							t.Fatalf("chunk %d: skip logs diverged", chunk)
						}
					}
					ms.EndSkip()
					mb.EndSkip()
				}
				// Reverse predictor reconstruction is on-demand: probe both
				// sides identically so lazily repaired state materializes.
				if spec.BPred {
					for _, pc := range probes {
						ps := ms.Predictor().Predict(pc, isa.ClassBranch)
						pb := mb.Predictor().Predict(pc, isa.ClassBranch)
						if ps != pb {
							t.Fatalf("chunk %d: prediction at %#x diverged", chunk, pc)
						}
					}
				}
				compareMethods(t, ms, mb, hs.State(), hb.State(), us.State(), ub.State())
			}
		})
	}
}

// feedCapture is the producer's half of a region: a capture drawn from m,
// fed ds in controller-sized batches and optionally sealed.
func feedCapture(m Method, region int, ds []trace.DynInst, seal bool) RegionCapture {
	c := m.NewRegionCapture(region, uint64(len(ds)))
	for o := 0; o < len(ds); o += funcsim.BatchSize {
		c.ObserveSkipBatch(ds[o:min(o+funcsim.BatchSize, len(ds))])
	}
	if seal {
		c.Seal()
	}
	return c
}

// captureCycle drives m through one region the way the sharded pipeline and
// the benchmark's capture replay do: observe into a capture, seal it, then
// BeginSkip, AdoptRegion, EndSkip on the method.
func captureCycle(m Method, region int, ds []trace.DynInst, seal bool) {
	c := feedCapture(m, region, ds, seal)
	m.BeginSkip(uint64(len(ds)))
	m.AdoptRegion(c)
	m.EndSkip()
}

// zeroAllocCycle pins a whole steady-state capture cycle as allocation-free:
// the capture, its log and its plans all come back from the method's free
// list, sized for the region before the first record lands.
func zeroAllocCycle(t *testing.T, spec Spec) {
	t.Helper()
	recs := genRecords(t, 3*funcsim.BatchSize+100)
	h, u := testEnv()
	m := spec.New(h, u)
	// Two cycles reach the steady state: the reverse method still holds the
	// previous region's capture when the next one is drawn.
	captureCycle(m, 0, recs, true)
	captureCycle(m, 1, recs, true)
	avg := testing.AllocsPerRun(20, func() { captureCycle(m, 2, recs, true) })
	if avg != 0 {
		t.Fatalf("%s: a steady-state capture cycle allocates %.2f times", spec.Label(), avg)
	}
}

// TestFuncWarmCaptureZeroAllocs covers the functional-warming family: SMARTS
// captures whole regions, fixed-period the trailing percentage.
func TestFuncWarmCaptureZeroAllocs(t *testing.T) {
	zeroAllocCycle(t, Spec{Kind: KindSMARTS, Cache: true, BPred: true})
	zeroAllocCycle(t, Spec{Kind: KindFixed, Percent: 40, Cache: true, BPred: true})
}

// TestReverseCaptureZeroAllocs covers reverse captures, whose cycle includes
// producer-side planning in Seal and plan application in EndSkip.
func TestReverseCaptureZeroAllocs(t *testing.T) {
	zeroAllocCycle(t, Spec{Kind: KindReverse, Percent: 100, Cache: true, BPred: true})
	zeroAllocCycle(t, Spec{Kind: KindReverse, Percent: 20, Cache: true, BPred: true})
}

// TestReverseEmptyWindowZeroAllocs covers a region with no window — a gap
// between clusters too short for 20% of it to be an instruction, or empty —
// between full ones, sealed and in place: a capture that logged nothing stays
// empty, so the next full region draws the pooled log instead of allocating
// beside it, and the pool's detached list does not grow.
func TestReverseEmptyWindowZeroAllocs(t *testing.T) {
	recs := genRecords(t, 3*funcsim.BatchSize+100)
	for _, inPlace := range []bool{false, true} {
		h, u := testEnv()
		m := Spec{Kind: KindReverse, Percent: 20, Cache: true, BPred: true}.New(h, u).(*reverse)
		cycle := func() {
			for i, ds := range [][]trace.DynInst{recs, recs[:4], nil, recs} {
				if inPlace {
					feedBatched(m, ds, funcsim.BatchSize)
				} else {
					captureCycle(m, i, ds, true)
				}
			}
		}
		cycle()
		cycle()
		detached := len(m.pool.logs)
		if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
			t.Errorf("in place %v: full, windowless, empty, full allocates %.2f times in steady state", inPlace, avg)
		}
		if got := len(m.pool.logs); got != detached {
			t.Errorf("in place %v: %d detached logs, %d before the measured cycles", inPlace, got, detached)
		}
	}
}

// TestReverseObserveSkipBatchZeroAllocs pins the in-place path: BeginSkip
// empties the method's own capture and sizes it for the region, so batched
// logging and the reverse scans at EndSkip allocate nothing.
func TestReverseObserveSkipBatchZeroAllocs(t *testing.T) {
	recs := genRecords(t, 4096)
	h, u := testEnv()
	m := Spec{Kind: KindReverse, Percent: 100, Cache: true, BPred: true}.New(h, u)
	feedBatched(m, recs, funcsim.BatchSize)
	avg := testing.AllocsPerRun(20, func() { feedBatched(m, recs, funcsim.BatchSize) })
	if avg != 0 {
		t.Fatalf("in-place observation allocates %.2f per region in steady state", avg)
	}
}

// TestReserveFromExpectedLen pins what expectedLen buys: after one measured
// region, a log is sized once, before its first record — for a region twice
// as long, twice the capacity — and never grows while it fills.
func TestReserveFromExpectedLen(t *testing.T) {
	recs := genRecords(t, 16_000)
	h, u := testEnv()
	m := Spec{Kind: KindReverse, Percent: 100, Cache: true, BPred: true}.New(h, u)
	feedBatched(m, recs[:4000], 1000)
	for _, n := range []int{4000, 8000, 16_000} {
		m.BeginSkip(uint64(n))
		m.ObserveSkipBatch(recs[:1000]) // the log is fitted as its first records arrive
		log := &m.(*reverse).cur.log
		memCap, brCap := cap(log.Mem), cap(log.Branches)
		for o := 1000; o < n; o += 1000 {
			m.ObserveSkipBatch(recs[o : o+1000])
		}
		// Read the log before EndSkip: sealing detaches it from the capture.
		if cap(log.Mem) != memCap || cap(log.Branches) != brCap {
			t.Fatalf("region of %d: log grew while filling (%d->%d mem, %d->%d branch records)",
				n, memCap, cap(log.Mem), brCap, cap(log.Branches))
		}
		if memCap > 2*len(log.Mem) || brCap > 2*len(log.Branches) {
			t.Fatalf("region of %d: reserved %d/%d for %d/%d records", n, memCap, brCap, len(log.Mem), len(log.Branches))
		}
		m.EndSkip()
	}
}

// TestSizeRegionsOrderFree pins what RegionSizer buys: told the longest
// region first, the method reserves the same log storage whatever order the
// region lengths come in; left to learn them, it replaces the log as longer
// regions arrive, so the ascending order costs more than the descending one.
// Both orders open with the same short region, which is where the method
// measures the stream's record density.
func TestSizeRegionsOrderFree(t *testing.T) {
	recs := genRecords(t, 16_000)
	reserved := func(announce bool, lens []int) (records int) {
		h, u := testEnv()
		m := Spec{Kind: KindReverse, Percent: 100, Cache: true, BPred: true}.New(h, u)
		if announce {
			m.(RegionSizer).SizeRegions(16_000)
		}
		lastCap := 0
		note := func() { // a capacity not seen before is a new array
			if c := cap(m.(*reverse).cur.log.Mem); c != lastCap {
				records, lastCap = records+c, c
			}
		}
		for _, n := range lens {
			m.BeginSkip(uint64(n))
			m.ObserveSkipBatch(recs[:1000]) // the log is fitted as its first records arrive
			note()
			for o := 1000; o < n; o += 1000 {
				m.ObserveSkipBatch(recs[o : o+1000])
			}
			note() // before EndSkip: sealing detaches the log from the capture
			m.EndSkip()
		}
		return records
	}
	up, down := []int{2000, 4000, 8000, 16_000}, []int{2000, 16_000, 8000, 4000}
	if a, d := reserved(true, up), reserved(true, down); a != d {
		t.Fatalf("announced: %d records reserved ascending, %d descending", a, d)
	}
	if a, d := reserved(false, up), reserved(false, down); a <= d {
		t.Fatalf("unannounced: %d records reserved ascending, %d descending: the order no longer matters, so RegionSizer has nothing left to do", a, d)
	}
}

// TestReverseLogSizedForWindow pins that the reverse method's storage follows
// its window, not its regions: after a run at 20% no log array a capture, a
// plan or the pool's detached list holds has room for more than 1.5x the
// records of the longest region's window — in place, and with two captures in
// flight as the sharded feed keeps them at Shards 2. Logging whole regions
// fails it five times over, and so does announcing the longest region instead
// of its window in SizeRegions.
func TestReverseLogSizedForWindow(t *testing.T) {
	const percent, longest = 20, 16_000
	recs := genRecords(t, longest)
	// The run opens with a window long enough to measure the stream's record
	// density from (1024 instructions): what a log sized from the assumed
	// density grows to by append is the allocator's business, not the pool's.
	lens := []int{8000, longest, 2000, 4000, longest, 2000}
	spec := Spec{Kind: KindReverse, Percent: percent, Cache: true, BPred: true}

	for _, inFlight := range []int{0, 2} { // 0: observed in place
		h, u := testEnv()
		m := spec.New(h, u).(*reverse)
		m.SizeRegions(longest)
		next := 0 // regions are adopted in order
		adopt := func(c RegionCapture) {
			m.BeginSkip(uint64(lens[next]))
			m.AdoptRegion(c)
			m.EndSkip()
			next++
		}
		var fed []RegionCapture
		for i, n := range lens {
			if inFlight == 0 {
				feedBatched(m, recs[:n], funcsim.BatchSize)
				continue
			}
			fed = append(fed, feedCapture(m, i, recs[:n], true))
			if len(fed) == inFlight {
				adopt(fed[0])
				fed = fed[1:]
			}
		}
		for _, c := range fed {
			adopt(c)
		}

		window := trace.Window{Cache: true, BPred: true, LineMask: m.pool.lineMask}
		window.Append(recs[longest-longest*percent/100:])
		maxMem, maxBr := len(window.Mem)*3/2, len(window.Branches)*3/2
		if m.Work().LoggedRecords == 0 || maxMem == 0 || maxBr == 0 {
			t.Fatal("nothing was logged")
		}
		check := func(what string, mem []trace.MemRecord, br []trace.BranchRecord) {
			if cap(mem) > maxMem || cap(br) > maxBr {
				t.Errorf("%d in flight: %s holds room for %d memory and %d branch records; the longest window logs %d and %d",
					inFlight, what, cap(mem), cap(br), len(window.Mem), len(window.Branches))
			}
		}
		for _, c := range append(m.pool.free, m.cur) {
			check("a capture's log", c.log.Mem, c.log.Branches)
			check("a capture's predictor plan", nil, c.predPlan.Suffix)
		}
		for _, l := range m.pool.logs {
			check("a detached log", l.Mem, l.Branches)
		}
	}
}

// machineState is everything a warm-up method leaves behind.
type machineState struct {
	work   Work
	hier   interface{}
	pred   interface{}
	probes []bpred.Prediction
}

// probePCs are the control-transfer PCs of ds, newest first and deduplicated:
// what a hot window's fetch would ask the predictor about.
func probePCs(ds []trace.DynInst, max int) (pcs []uint64, classes []isa.Class) {
	seen := make(map[uint64]bool)
	for i := len(ds) - 1; i >= 0 && len(pcs) < max; i-- {
		if d := &ds[i]; d.IsBranch() && !seen[d.PC] {
			seen[d.PC] = true
			pcs = append(pcs, d.PC)
			classes = append(classes, d.Op.Class())
		}
	}
	return pcs, classes
}

// TestCaptureMatchesDirectObservation pins the RegionCapture contract for
// every spec in the matrix, sealed and unsealed: captures fed, (optionally)
// sealed and adopted region by region leave exactly the state — hierarchy,
// predictor, work counters, and every hot-window probe — that observing the
// regions in place does. Seal is optional by contract; the unsealed arm keeps
// consumer-side sealing of an adopted capture in EndSkip covered.
//
// With runAhead, the captures of the two following regions are fed and sealed
// before a region's hot-window probes run, as a producer running ahead of the
// consumer does. That is the aliasing regression: ReconPredictor still reads
// the adopted capture's plan during those probes, so the arm fails if
// any capture is recycled before the method's next BeginSkip.
func TestCaptureMatchesDirectObservation(t *testing.T) {
	recs := genRecords(t, 30_000)
	var regions [][]trace.DynInst
	for o := 0; o < len(recs); o += 6000 {
		regions = append(regions, recs[o:o+6000])
	}

	direct := func(spec Spec) machineState {
		h, u := testEnv()
		m := spec.New(h, u)
		var st machineState
		for _, reg := range regions {
			feedBatched(m, reg, funcsim.BatchSize)
			pcs, classes := probePCs(reg, 40)
			for i, pc := range pcs {
				st.probes = append(st.probes, m.Predictor().Predict(pc, classes[i]))
			}
		}
		st.work, st.hier, st.pred = m.Work(), h.State(), u.State()
		return st
	}

	captured := func(spec Spec, seal bool, runAhead int) machineState {
		h, u := testEnv()
		m := spec.New(h, u)
		var st machineState
		var ready []RegionCapture
		produce := func(i int) { ready = append(ready, feedCapture(m, i, regions[i], seal)) }
		for i, reg := range regions {
			if len(ready) == 0 {
				produce(i)
			}
			m.BeginSkip(uint64(len(reg)))
			m.AdoptRegion(ready[0])
			ready = ready[1:]
			m.EndSkip()
			// The producer gets ahead while this region's hot window runs.
			for next := i + 1 + len(ready); next < len(regions) && len(ready) < runAhead; next++ {
				produce(next)
			}
			pcs, classes := probePCs(reg, 40)
			for k, pc := range pcs {
				st.probes = append(st.probes, m.Predictor().Predict(pc, classes[k]))
			}
		}
		st.work, st.hier, st.pred = m.Work(), h.State(), u.State()
		return st
	}

	for _, spec := range Matrix() {
		want := direct(spec)
		for _, arm := range []struct {
			name     string
			seal     bool
			runAhead int
		}{{"sealed", true, 0}, {"unsealed", false, 0}, {"sealed run-ahead", true, 2}, {"unsealed run-ahead", false, 2}} {
			if got := captured(spec, arm.seal, arm.runAhead); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s captures: state differs from direct observation", spec.Label(), arm.name)
			}
		}
	}
}

// TestMemRecordRoundTrip is the record-format property: every (address,
// instruction/data, load/store) combination over random full-width 64-bit
// addresses survives the 16-byte record bit for bit, and the batched kernel
// logs exactly what the per-instruction oracle logs.
func TestMemRecordRoundTrip(t *testing.T) {
	if size := unsafe.Sizeof(trace.MemRecord{}); size > 16 {
		t.Fatalf("MemRecord is %d bytes, want at most 16", size)
	}
	rng := rand.New(rand.NewSource(2007))
	ds := make([]trace.DynInst, 5000)
	var want []trace.MemRecord
	var lastLine uint64
	for i := range ds {
		pc := rng.Uint64() &^ 3
		if i > 0 && rng.Intn(3) > 0 {
			pc = ds[i-1].PC + 4 // mostly sequential fetch, so lines collapse
		}
		d := trace.DynInst{Seq: uint64(i), PC: pc, NextPC: pc + 4, Op: isa.OpAdd}
		switch rng.Intn(3) {
		case 0:
			d.Op, d.EffAddr = isa.OpLd, rng.Uint64()
		case 1:
			d.Op, d.EffAddr = isa.OpSt, rng.Uint64()
		}
		ds[i] = d
		if line := pc &^ 63; i == 0 || line != lastLine {
			want = append(want, trace.MemRecord{Addr: pc, IsInstr: true})
			lastLine = line
		}
		if d.IsMem() {
			want = append(want, trace.MemRecord{Addr: d.EffAddr, IsStore: d.Op == isa.OpSt})
		}
	}
	if ds[0].PC>>32 == 0 || want[1].Addr>>32 == 0 {
		t.Fatal("generator produced no full-width addresses")
	}

	spec := Spec{Kind: KindReverse, Percent: 100, Cache: true}
	h, u := testEnv()
	scalar := spec.New(h, u).(*reverse)
	scalar.BeginSkip(uint64(len(ds)))
	for i := range ds {
		scalar.logScalar(&ds[i])
	}
	if !reflect.DeepEqual(scalar.cur.log.Mem, want) {
		t.Fatal("the scalar oracle did not log the references as given")
	}
	batched := spec.New(h, u).(*reverse)
	for _, chunk := range []int{1, 7, 1024} {
		batched.BeginSkip(uint64(len(ds)))
		for o := 0; o < len(ds); o += chunk {
			batched.ObserveSkipBatch(ds[o:min(o+chunk, len(ds))])
		}
		if !reflect.DeepEqual(batched.cur.log.Mem, want) {
			t.Fatalf("chunk %d: the batch kernel diverged from the scalar oracle", chunk)
		}
		if batched.Work().LoggedRecords-scalar.Work().LoggedRecords != 0 && chunk == 1 {
			t.Fatalf("logged %d records, scalar %d", batched.Work().LoggedRecords, scalar.Work().LoggedRecords)
		}
	}
}

// sameAsWindow asserts that spec leaves exactly what an FP method of the given
// percentage does — hierarchy fingerprints and state, predictor state, Work —
// observing regions in place, and through capture → seal → adopt with one
// (a two-shard pipeline's run-ahead) and two (three shards') further captures
// already fed while a region is adopted.
func sameAsWindow(t *testing.T, spec Spec, percent int) {
	t.Helper()
	recs := genRecords(t, 30_000)
	var regions [][]trace.DynInst
	for o := 0; o < len(recs); o += 6000 {
		regions = append(regions, recs[o:o+6000])
	}
	fp := Spec{Kind: KindFixed, Percent: percent, Cache: true, BPred: true}
	drive := func(s Spec, ahead int) (st machineState, prints [3]uint64) {
		h, u := testEnv()
		m := s.New(h, u)
		if _, ok := m.(*forward); !ok {
			t.Fatalf("%s builds a %T", s.Label(), m)
		}
		var ready []RegionCapture
		for i, reg := range regions {
			if ahead == 0 {
				feedBatched(m, reg, funcsim.BatchSize)
				continue
			}
			for next := i + len(ready); next < len(regions) && len(ready) <= ahead; next++ {
				ready = append(ready, feedCapture(m, next, regions[next], true))
			}
			m.BeginSkip(uint64(len(reg)))
			m.AdoptRegion(ready[0])
			ready = ready[1:]
			m.EndSkip()
		}
		st.work, st.hier, st.pred = m.Work(), h.State(), u.State()
		return st, [3]uint64{mem.Fingerprint(h.L1I), mem.Fingerprint(h.L1D), mem.Fingerprint(h.L2)}
	}
	for _, ahead := range []int{0, 1, 2} {
		got, gotPrints := drive(spec, ahead)
		want, wantPrints := drive(fp, ahead)
		if gotPrints != wantPrints || !reflect.DeepEqual(got, want) {
			t.Errorf("%s with %d captures ahead: state differs from %s", spec.Label(), ahead, fp.Label())
		}
		if inPlace, _ := drive(spec, 0); !reflect.DeepEqual(got, inPlace) {
			t.Errorf("%s with %d captures ahead: state differs from in-place observation", spec.Label(), ahead)
		}
	}
}

// TestSMARTSIsFullWindow and TestNoneIsEmptyWindow pin the two ends of the
// forward method's one axis: SMARTS is fixed-period warming at 100%, None at 0%.
func TestSMARTSIsFullWindow(t *testing.T) {
	sameAsWindow(t, Spec{Kind: KindSMARTS, Cache: true, BPred: true}, 100)
}

func TestNoneIsEmptyWindow(t *testing.T) {
	sameAsWindow(t, Spec{Kind: KindNone}, 0)
	h, u := testEnv()
	m := Spec{Kind: KindFixed, Percent: 0, Cache: true, BPred: true}.New(h, u)
	feedBatched(m, genRecords(t, 5000), funcsim.BatchSize)
	if h.TotalUpdates() != 0 || u.Updates() != 0 || m.Work() != (Work{}) {
		t.Fatal("an empty window touched state")
	}
}
