// Package warmup implements the paper's warm-up policies (Table 2): no
// warm-up, fixed-period functional warming, SMARTS full-functional warming
// (cache-only, predictor-only, or both), and Reverse State Reconstruction
// (cache-only, predictor-only, or both, at a warm-up percentage). Every
// method plugs into the sampling controller through the Method interface and
// reports the work it performed, the machine-independent cost metric used by
// the experiment harness.
package warmup

import (
	"fmt"
	"sync"

	"rsr/internal/bpred"
	"rsr/internal/core"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/trace"
)

// Method is one warm-up policy attached to a sampled run. The region walker
// (sampling.RunRegions) calls BeginSkip when a skip region starts,
// ObserveSkipBatch for every batch of skipped dynamic instructions, and
// EndSkip immediately before the next cluster; the timing model then probes
// Predictor() during hot execution.
//
// ObserveSkipBatch is the only way a method sees instructions. How a region
// is split into batches must not matter: any split leaves the method in the
// state that observing the region one instruction at a time would, which
// TestBatchScalarEquivalence pins against a per-instruction oracle kept in
// the tests. Implementations here hoist policy checks out of the loop and
// flatten line tracking and log appends.
//
// Every method also supports region captures (NewRegionCapture/AdoptRegion),
// the contract the walker's sharded feed builds on: a region's skip
// observation runs on a producer goroutine against a private capture, and
// the walker adopts captures in strict cluster order. Methods that log
// (reverse) capture the log directly; methods that functionally warm shared
// state (SMARTS, fixed-period, windowed) capture the would-be warming
// references and AdoptRegion replays them in order, so no method ever falls
// back to sequential execution under sharding.
//
// Captures are recycled: a method keeps a free list for the run, and
// NewRegionCapture draws from it. AdoptRegion hands the capture back to the
// method, which alone decides when its storage is dead — the caller must not
// touch a capture after adopting it, and a capture that is never adopted is
// simply garbage.
type Method interface {
	Name() string
	BeginSkip(expectedLen uint64)
	ObserveSkipBatch(ds []trace.DynInst)
	EndSkip()
	Predictor() bpred.Predictor
	Work() Work

	// NewRegionCapture returns a capture for the region-indexed skip phase
	// with the given expected length. It must be safe for concurrent use and
	// may read only immutable method configuration; the returned capture is
	// confined to one goroutine until it is handed to AdoptRegion.
	NewRegionCapture(region int, expectedLen uint64) RegionCapture
	// AdoptRegion installs a fed capture, sealed or not, as if the method
	// had observed the region's stream itself. It must be called between
	// BeginSkip and EndSkip in place of the method's own ObserveSkipBatch
	// calls for that region, and leaves the method in exactly the state
	// direct observation would.
	AdoptRegion(c RegionCapture)
}

// RegionCapture accumulates one skip region's observation product away from
// the method's shared state, so a region can be observed on a goroutine of
// its own while earlier regions are still being consumed. Feeding a capture
// the region's batches, sealing it, and adopting it is equivalent to feeding
// the method directly between BeginSkip and EndSkip.
//
// Seal finalizes the capture after its last batch, still on the producer
// goroutine: work that is a pure function of the captured stream — for the
// reverse method, the backward scan that materializes the cache and
// predictor warm-apply plans — runs here, off the consumer's critical path.
// Seal is optional (the method seals an unsealed capture itself at EndSkip,
// byte-identically) and must be called at most once, after the final
// ObserveSkipBatch.
type RegionCapture interface {
	ObserveSkipBatch(ds []trace.DynInst)
	Seal()
}

// RegionSizer is implemented by a method that holds a whole skip region's
// observations at once (the reverse method's log). A run that knows its
// regions calls SizeRegions once, before the first BeginSkip or
// NewRegionCapture, with the longest cold phase it will present, and buffers
// are sized for that one from the start. Unannounced, a buffer is replaced
// whenever a longer region arrives, and what a run allocates depends on the
// order of its region lengths — 3x between cluster placements of one regimen.
type RegionSizer interface {
	SizeRegions(longest uint64)
}

// Work counts warm-up effort in state operations, the deterministic analogue
// of the paper's simulation-time comparison.
type Work struct {
	// WarmOps counts functional applications to caches or predictor
	// (SMARTS/fixed-period style work).
	WarmOps uint64
	// LoggedRecords counts skip-region log appends (reverse-method capture
	// cost; much cheaper per record than a functional application).
	LoggedRecords uint64
	// ReconScanned counts log records consumed by reverse scans.
	ReconScanned uint64
	// ReconApplied counts state mutations made by reconstruction.
	ReconApplied uint64
}

// Add returns the sum of two tallies: a strategy's measurement passes each
// run a fresh method, and the run reports their total.
func (w Work) Add(o Work) Work {
	return Work{
		WarmOps:       w.WarmOps + o.WarmOps,
		LoggedRecords: w.LoggedRecords + o.LoggedRecords,
		ReconScanned:  w.ReconScanned + o.ReconScanned,
		ReconApplied:  w.ReconApplied + o.ReconApplied,
	}
}

// Sub returns the work performed since prev. Method.Work is cumulative and
// cheap to read, so snapshotting it at phase boundaries and subtracting
// yields per-cluster deltas — how the sampling controller attributes logged
// records and applied references to individual clusters for metrics and
// trace spans without touching the observe hot path.
func (w Work) Sub(prev Work) Work {
	return Work{
		WarmOps:       w.WarmOps - prev.WarmOps,
		LoggedRecords: w.LoggedRecords - prev.LoggedRecords,
		ReconScanned:  w.ReconScanned - prev.ReconScanned,
		ReconApplied:  w.ReconApplied - prev.ReconApplied,
	}
}

// Kind enumerates the warm-up families.
type Kind uint8

// Warm-up families.
const (
	KindNone Kind = iota
	KindFixed
	KindSMARTS
	KindReverse
)

// Spec names one warm-up configuration from the paper's experiment matrix.
type Spec struct {
	Kind    Kind
	Percent int  // warm-up percentage for Fixed and Reverse
	Cache   bool // warm the cache hierarchy
	BPred   bool // warm the branch predictor
	// NoCounterInference disables the Reverse method's weak-form /
	// middle-state counter inference, leaving unresolved entries stale
	// (ablation of §3.2's Figure 3 rule). Only meaningful for KindReverse
	// with BPred.
	NoCounterInference bool
}

// Label renders the paper's abbreviations: None, FP (p%), S$, SBP, S$BP,
// R$ (p%), RBP, R$BP (p%).
func (s Spec) Label() string {
	switch s.Kind {
	case KindNone:
		return "None"
	case KindFixed:
		return fmt.Sprintf("FP (%d%%)", s.Percent)
	case KindSMARTS:
		return "S" + structSuffix(s.Cache, s.BPred)
	case KindReverse:
		base := "R" + structSuffix(s.Cache, s.BPred)
		if s.Cache {
			base = fmt.Sprintf("%s (%d%%)", base, s.Percent)
		}
		if s.NoCounterInference {
			base += " no-infer"
		}
		return base
	}
	return "?"
}

func structSuffix(cache, bp bool) string {
	switch {
	case cache && bp:
		return "$BP"
	case cache:
		return "$"
	case bp:
		return "BP"
	}
	return ""
}

// New instantiates the method over the run's shared hierarchy and predictor.
func (s Spec) New(h *mem.Hierarchy, u *bpred.Unit) Method {
	switch s.Kind {
	case KindFixed:
		return &fixedPeriod{tailWarm: tailWarm{funcWarm: newFuncWarm(h, u, s)}, percent: s.Percent}
	case KindSMARTS:
		return &smarts{funcWarm: newFuncWarm(h, u, s)}
	case KindReverse:
		return newReverse(h, u, s)
	default:
		return &none{u: u}
	}
}

// Matrix returns the paper's Table 2 experiment matrix in reporting order.
func Matrix() []Spec {
	return []Spec{
		{Kind: KindFixed, Percent: 20, Cache: true, BPred: true},
		{Kind: KindFixed, Percent: 40, Cache: true, BPred: true},
		{Kind: KindFixed, Percent: 80, Cache: true, BPred: true},
		{Kind: KindNone},
		{Kind: KindSMARTS, Cache: true},
		{Kind: KindSMARTS, BPred: true},
		{Kind: KindSMARTS, Cache: true, BPred: true},
		{Kind: KindReverse, Percent: 20, Cache: true},
		{Kind: KindReverse, Percent: 40, Cache: true},
		{Kind: KindReverse, Percent: 80, Cache: true},
		{Kind: KindReverse, Percent: 100, Cache: true},
		{Kind: KindReverse, Percent: 100, BPred: true},
		{Kind: KindReverse, Percent: 20, Cache: true, BPred: true},
		{Kind: KindReverse, Percent: 40, Cache: true, BPred: true},
		{Kind: KindReverse, Percent: 80, Cache: true, BPred: true},
		{Kind: KindReverse, Percent: 100, Cache: true, BPred: true},
	}
}

// SpecByLabel resolves a paper abbreviation ("S$BP", "R$BP (20%)", "None",
// "FP (40%)") back to its Spec.
func SpecByLabel(label string) (Spec, error) {
	for _, s := range Matrix() {
		if s.Label() == label {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("warmup: unknown method label %q", label)
}

// lineTracker detects instruction-fetch line crossings so per-instruction
// fetches collapse to one reference per line, identically for functional
// warming and for logging.
type lineTracker struct {
	lineMask uint64
	last     uint64
	have     bool
}

func newLineTracker(lineBytes int) lineTracker {
	return lineTracker{lineMask: ^uint64(lineBytes - 1)}
}

func (t *lineTracker) reset() { t.have = false }

// branchRecordOf converts a committed control transfer to its log record.
func branchRecordOf(d *trace.DynInst) trace.BranchRecord {
	return trace.BranchRecord{PC: d.PC, NextPC: d.NextPC, Taken: d.Taken, Class: d.Op.Class()}
}

// --- None ---

type none struct{ u *bpred.Unit }

func (n *none) Name() string                     { return "None" }
func (n *none) BeginSkip(uint64)                 {}
func (n *none) ObserveSkipBatch([]trace.DynInst) {}
func (n *none) EndSkip()                         {}
func (n *none) Predictor() bpred.Predictor       { return n.u }
func (n *none) Work() Work                       { return Work{} }

// noneCapture is the trivial region capture: None observes nothing, so the
// capture is stateless and a single value serves every region.
type noneCapture struct{}

func (noneCapture) ObserveSkipBatch([]trace.DynInst) {}
func (noneCapture) Seal()                            {}

func (n *none) NewRegionCapture(int, uint64) RegionCapture { return noneCapture{} }
func (n *none) AdoptRegion(RegionCapture)                  {}

// --- shared functional-warming machinery (SMARTS, fixed-period, windowed) ---

type funcWarm struct {
	h     *mem.Hierarchy
	u     *bpred.Unit
	cache bool
	bp    bool
	label string
	lines lineTracker
	work  Work
	// pool is the run's capture free list. NewRegionCapture reads only it
	// from concurrent producer goroutines — never the mutable lines tracker,
	// which advances on the consumer.
	pool *capturePool
}

// newFuncWarm builds the shared functional-warming state with the line
// tracker initialized up front (as newReverse does).
func newFuncWarm(h *mem.Hierarchy, u *bpred.Unit, s Spec) funcWarm {
	lt := newLineTracker(h.Config().L1I.LineBytes)
	return funcWarm{h: h, u: u, cache: s.Cache, bp: s.BPred, label: s.Label(),
		lines: lt, pool: newCapturePool(s.Cache, s.BPred, lt.lineMask, nil)}
}

// The functional-warming family warms as it observes, so EndSkip has nothing
// left to do and the timing model probes the unit itself.
func (f *funcWarm) Name() string               { return f.label }
func (f *funcWarm) EndSkip()                   {}
func (f *funcWarm) Predictor() bpred.Predictor { return f.u }
func (f *funcWarm) Work() Work                 { return f.work }

// applyBatch functionally warms with a batch: every instruction-fetch line
// crossing and memory access goes to the hierarchy, every control transfer
// to the predictor, one WarmOp each. The cache/bpred policy checks are
// hoisted out of the loop and the line tracker runs on locals, written back
// once per batch. Cache and predictor state are independent structures, so
// two passes leave the state and work counts a per-record interleaving would.
func (f *funcWarm) applyBatch(ds []trace.DynInst) {
	if f.cache {
		mask, last, have := f.lines.lineMask, f.lines.last, f.lines.have
		var ops uint64
		for i := range ds {
			d := &ds[i]
			if line := d.PC & mask; !have || line != last {
				f.h.WarmInst(d.PC)
				ops++
				last, have = line, true
			}
			if d.Op.IsMem() {
				f.h.WarmData(d.EffAddr, d.Op.Class() == isa.ClassStore)
				ops++
			}
		}
		f.lines.last, f.lines.have = last, have
		f.work.WarmOps += ops
	}
	if f.bp {
		var ops uint64
		for i := range ds {
			d := &ds[i]
			if d.Op.IsControl() {
				f.u.Update(branchRecordOf(d))
				ops++
			}
		}
		f.work.WarmOps += ops
	}
}

// tail returns the suffix of ds past the warming threshold, advancing *seen:
// the shared batch form of the "apply once seen exceeds threshold" rule of
// the fixed-period and profiled-window methods.
func tail(seen *uint64, threshold uint64, ds []trace.DynInst) []trace.DynInst {
	s := *seen
	*seen = s + uint64(len(ds))
	if s >= threshold {
		return ds
	}
	if skip := threshold - s; skip < uint64(len(ds)) {
		return ds[skip:]
	}
	return nil
}

// regionCapture is every method's region capture: a private skip log and line
// tracker fed by the same appendSkipRecords kernel as in-place observation,
// which is what makes a capture's log byte-identical to direct observation by
// construction.
//
// The functional-warming family logs exactly the references the method would
// have applied — the post-threshold suffix, instruction fetches collapsed per
// line — and AdoptRegion replays that log against the shared state in order;
// one log record is one functional application, so the capture's record count
// is the region's WarmOps delta. The reverse method logs the whole region
// (threshold 0) and Seal runs the backward scans over the private log,
// materializing the cache and predictor warm-apply plans that shrink the
// consumer's EndSkip to O(applied) work.
//
// A capture is recycled whole through its method's capturePool, log and plan
// arrays included, so a steady-state region allocates nothing. One refinement
// keeps the reverse method's hand-off small: its plans are self-contained, so
// a sealed capture has no further use for its log — by far its largest part —
// and Seal detaches it for the next region to fill. A run then holds about
// one log per producer instead of one per region in flight.
type regionCapture struct {
	pool      *capturePool
	threshold uint64 // instructions of the region to pass over before logging
	seen      uint64
	log       trace.SkipLog
	lines     lineTracker
	logged    uint64

	// expect is how many instructions the region is expected to log; fitted
	// reports that log has been given the capacity for them. Fitting waits
	// for the region's first records, so a capture that is only passed
	// through — the reverse method's emptied one, on its way back to the free
	// list at AdoptRegion — claims no storage.
	expect uint64
	fitted bool

	// Reverse captures only. sealed reports that the plans stand in for the
	// log, which Seal has detached.
	sealed    bool
	cachePlan core.CacheReconPlan
	predPlan  core.PredReconPlan
}

func (c *regionCapture) ObserveSkipBatch(ds []trace.DynInst) {
	if warm := tail(&c.seen, c.threshold, ds); len(warm) > 0 {
		if !c.fitted {
			c.pool.fit(c)
		}
		c.logged += appendSkipRecords(&c.log, &c.lines, c.pool.cache, c.pool.bp, warm)
	}
}

// Seal moves the reverse scans producer-side: the apply/skip decisions of
// both reconstruction passes are pure functions of the captured log (plus,
// for the predictor, a stale GHR prefix the plan carries as fixups), so the
// plans are exact and EndSkip only replays their mutating subset. For the
// functional-warming family there is no scan to materialize — the log already
// is the warm-apply plan. Either way the pool learns the region's record
// density here, regions before the consumer sees it.
func (c *regionCapture) Seal() {
	p := c.pool
	p.mu.Lock()
	p.noteDensity(c)
	var pl *core.CachePlanner
	if n := len(p.planners); n > 0 {
		pl, p.planners = p.planners[n-1], p.planners[:n-1]
	}
	p.mu.Unlock()
	if p.recon == nil {
		return
	}
	if p.cache {
		if pl == nil {
			pl = core.NewCachePlanner(p.recon.hcfg)
		}
		core.PlanCacheRecon(pl, c.log.Mem, p.recon.percent, &c.cachePlan)
	}
	if p.bp {
		core.PlanPredRecon(p.recon.geom, c.log.Branches, p.recon.percent, &c.predPlan)
	}
	c.sealed = true
	c.log.Reset()
	p.mu.Lock()
	if pl != nil {
		p.planners = append(p.planners, pl)
	}
	if c.fitted { // a region that logged nothing has no storage to hand on
		p.logs = append(p.logs, c.log)
		c.log, c.fitted = trace.SkipLog{}, false
	}
	p.mu.Unlock()
}

// reconConfig is the immutable reverse-scan configuration Seal reads on
// producer goroutines, so planning never touches the shared machine.
type reconConfig struct {
	percent int
	hcfg    mem.HierarchyConfig
	geom    core.PredGeom
}

// capturePool is one method's free list of region captures for one run.
// Producers draw captures concurrently while the consumer returns them, so
// everything below mu is guarded by it; the fields above are immutable. The
// lists never hold more than was once in flight together, which the pipeline
// bounds (see sampling.shardWindow).
//
// The pool also remembers the densest region seen so far, in records per 1024
// logged instructions, and the largest log that density has called for. An
// empty log too small for its region — for the run's longest, once the run has
// announced it (RegionSizer) — is replaced, before its first record, by one a
// quarter above the largest size so far: sizing up front copies nothing, where
// growth during appends moves every record already logged; the largest size
// lets every recycled log converge on a capacity that fits all regions; and the
// quarter keeps a creeping density, or a run of ever longer regions, from
// replacing a log one allocation at a time. A region denser than any before it
// grows by append.
type capturePool struct {
	cache, bp bool
	lineMask  uint64       // L1I line mask
	recon     *reconConfig // nil for the functional-warming family

	mu       sync.Mutex
	free     []*regionCapture
	logs     []trace.SkipLog      // emptied, detached from sealed reverse captures
	planners []*core.CachePlanner // cache-planning scratch, one per concurrent Seal
	longest  uint64               // the run's longest region once announced, else 0
	memPerK  uint64
	brPerK   uint64
	maxMem   int
	maxBr    int
}

// Density assumed until a region has been measured, per 1024 instructions:
// the middle of what the workloads log (182-391 memory records, 89-255
// branches). Too low costs the first regions an append growth, too high would
// cost every later one memory, so the first measurement replaces it.
const (
	initialMemPerK = 300
	initialBrPerK  = 150
)

func newCapturePool(cache, bp bool, lineMask uint64, recon *reconConfig) *capturePool {
	return &capturePool{cache: cache, bp: bp, lineMask: lineMask, recon: recon}
}

// noteDensity records the density of the region c holds. Caller holds mu.
func (p *capturePool) noteDensity(c *regionCapture) {
	if c.seen < c.threshold+1024 {
		return // too few logged instructions to extrapolate from
	}
	n := c.seen - c.threshold
	if m := uint64(len(c.log.Mem))*1024/n + 1; p.cache && m > p.memPerK {
		p.memPerK = m
	}
	if b := uint64(len(c.log.Branches))*1024/n + 1; p.bp && b > p.brPerK {
		p.brPerK = b
	}
}

// prepare makes c — or, with c nil, a recycled or new capture — ready for a
// region of expectedLen instructions of which the first threshold are passed
// over: emptied, its storage kept.
func (p *capturePool) prepare(c *regionCapture, threshold, expectedLen uint64) *regionCapture {
	p.mu.Lock()
	if c != nil {
		p.noteDensity(c)
	} else if k := len(p.free); k > 0 {
		c, p.free[k-1] = p.free[k-1], nil
		p.free = p.free[:k-1]
	}
	p.mu.Unlock()
	if c == nil {
		c = &regionCapture{pool: p, lines: lineTracker{lineMask: p.lineMask}}
	}
	c.threshold, c.seen, c.logged, c.sealed = threshold, 0, 0, false
	c.expect, c.fitted = expectedLen-threshold, false
	c.lines.reset()
	c.log.Reset()
	return c
}

// fit gives c's empty log, ahead of the first append, the capacity its region
// (the run's longest, once announced) calls for at the recorded density plus
// an eighth: a detached log if c has none, and a fresh array wherever what c
// holds is too small.
func (p *capturePool) fit(c *regionCapture) {
	p.mu.Lock()
	memPerK, brPerK := p.memPerK, p.brPerK
	if memPerK == 0 && brPerK == 0 { // nothing measured yet
		if p.cache {
			memPerK = initialMemPerK
		}
		if p.bp {
			brPerK = initialBrPerK
		}
	}
	expect := max(c.expect, p.longest)
	needMem, needBr := int(expect*memPerK/1024*9/8), int(expect*brPerK/1024*9/8)
	p.maxMem, p.maxBr = max(p.maxMem, needMem), max(p.maxBr, needBr)
	maxMem, maxBr := p.maxMem, p.maxBr
	if k := len(p.logs); c.log.Mem == nil && c.log.Branches == nil && k > 0 {
		c.log, p.logs[k-1] = p.logs[k-1], trace.SkipLog{}
		p.logs = p.logs[:k-1]
	}
	p.mu.Unlock()
	if cap(c.log.Mem) < needMem {
		c.log.Mem = make([]trace.MemRecord, 0, maxMem+maxMem/4)
	}
	if cap(c.log.Branches) < needBr {
		c.log.Branches = make([]trace.BranchRecord, 0, maxBr+maxBr/4)
	}
	c.fitted = true
}

// put returns a dead capture to the free list.
func (p *capturePool) put(c *regionCapture) {
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// adoptCapture replays a captured region's warming references against the
// shared machine in captured order. Cache and predictor state are
// independent structures (the applyBatch argument), so the two-pass replay
// leaves exactly the state direct per-batch observation would, and the line
// tracker is restored to the capture's final state just as direct
// observation would leave it. Nothing reads the capture afterwards, so it
// goes straight back to the free list.
func (f *funcWarm) adoptCapture(c *regionCapture) {
	if f.cache {
		for i := range c.log.Mem {
			r := &c.log.Mem[i]
			if r.IsInstr {
				f.h.WarmInst(r.Addr)
			} else {
				f.h.WarmData(r.Addr, r.IsStore)
			}
		}
		f.lines.last, f.lines.have = c.lines.last, c.lines.have
	}
	if f.bp {
		for i := range c.log.Branches {
			f.u.Update(c.log.Branches[i])
		}
	}
	f.work.WarmOps += c.logged
	f.pool.put(c)
}

// --- SMARTS: full functional warming of the whole skip region ---

type smarts struct{ funcWarm }

func (s *smarts) BeginSkip(uint64)                    { s.lines.reset() }
func (s *smarts) ObserveSkipBatch(ds []trace.DynInst) { s.applyBatch(ds) }

// NewRegionCapture captures the whole region (threshold 0): SMARTS warms
// every skipped instruction.
func (s *smarts) NewRegionCapture(_ int, expectedLen uint64) RegionCapture {
	return s.pool.prepare(nil, 0, expectedLen)
}
func (s *smarts) AdoptRegion(c RegionCapture) { s.adoptCapture(c.(*regionCapture)) }

// --- Tail warming: functional warming of the end of each region only ---

// tailWarm warms with what a region holds past threshold, which the method
// embedding it sets per region.
type tailWarm struct {
	funcWarm
	seen      uint64
	threshold uint64
}

func (t *tailWarm) begin(threshold uint64) {
	t.lines.reset()
	t.seen, t.threshold = 0, threshold
}

func (t *tailWarm) ObserveSkipBatch(ds []trace.DynInst) {
	if warm := tail(&t.seen, t.threshold, ds); len(warm) > 0 {
		t.applyBatch(warm)
	}
}

func (t *tailWarm) AdoptRegion(c RegionCapture) {
	cc := c.(*regionCapture)
	t.seen = cc.seen
	t.adoptCapture(cc)
}

// fixedPeriod warms the trailing percent of every region.
type fixedPeriod struct {
	tailWarm
	percent int
}

// thresholdFor is how much of a region passes before warming starts.
func (f *fixedPeriod) thresholdFor(expectedLen uint64) uint64 {
	return expectedLen - expectedLen*uint64(f.percent)/100
}

func (f *fixedPeriod) BeginSkip(expectedLen uint64) { f.begin(f.thresholdFor(expectedLen)) }

func (f *fixedPeriod) NewRegionCapture(_ int, expectedLen uint64) RegionCapture {
	return f.pool.prepare(nil, f.thresholdFor(expectedLen), expectedLen)
}

// windowed functionally warms the trailing window of each skip region, with
// per-region window lengths computed by a reuse-latency profiling pass (the
// MRRL and BLRL methods of §2). Unlike fixed-period warming the window is
// not a fixed percentage: it is whatever the profile says covers the chosen
// percentile of reuse latencies for that specific cluster / pre-cluster
// pair. The windows pin the cluster locations they were profiled with.
type windowed struct {
	tailWarm
	windows []uint64
	region  int
}

// NewWindowed builds an MRRL/BLRL-style method over precomputed per-region
// warm windows (in instructions before each cluster).
func NewWindowed(label string, h *mem.Hierarchy, u *bpred.Unit, windows []uint64) Method {
	fw := newFuncWarm(h, u, Spec{Cache: true, BPred: true})
	fw.label = label
	return &windowed{tailWarm: tailWarm{funcWarm: fw}, windows: windows}
}

// thresholdFor is how much of the region passes before its profiled window
// opens: nothing warms past the end of the window list, and a window longer
// than the region warms all of it.
func (w *windowed) thresholdFor(region int, expectedLen uint64) uint64 {
	if region >= len(w.windows) {
		return expectedLen
	}
	return expectedLen - min(w.windows[region], expectedLen)
}

func (w *windowed) BeginSkip(expectedLen uint64) {
	w.begin(w.thresholdFor(w.region, expectedLen))
	w.region++
}

// NewRegionCapture selects the profiled window for the explicit region index:
// producers run regions out of order, so the method's own region cursor —
// advanced by the consumer's BeginSkip — cannot be used. The windows slice is
// immutable after construction, so concurrent reads are safe.
func (w *windowed) NewRegionCapture(region int, expectedLen uint64) RegionCapture {
	return w.pool.prepare(nil, w.thresholdFor(region, expectedLen), expectedLen)
}

// --- Reverse State Reconstruction ---

// reverse holds the current region's skip log — and, once sealed, its plans —
// in cur, a regionCapture like any other. In-place observation logs into it
// through the same kernel captures use, and AdoptRegion swaps a producer's
// capture in for it.
//
// cur is not dead at EndSkip: ReconPredictor reads its plan's suffix and
// history arrays in place, on demand, throughout the hot window that follows.
// Its storage is reclaimed only at the next BeginSkip — where the paper's
// method discards the previous region's log anyway (§3) — which empties it
// for in-place reuse; AdoptRegion then returns the emptied capture to the
// free list in exchange for the adopted one. (A functional-warming capture,
// by contrast, is dead the moment adoptCapture has replayed it.)
type reverse struct {
	h     *mem.Hierarchy
	u     *bpred.Unit
	rp    *core.ReconPredictor
	spec  Spec
	label string
	// pool is the run's capture free list and the only thing NewRegionCapture
	// reads from concurrent producer goroutines.
	pool *capturePool
	cur  *regionCapture
	work Work // LoggedRecords excludes cur's, folded in at BeginSkip
}

func newReverse(h *mem.Hierarchy, u *bpred.Unit, s Spec) *reverse {
	r := &reverse{h: h, u: u, spec: s, label: s.Label()}
	recon := &reconConfig{percent: s.Percent, hcfg: h.Config()}
	if s.BPred {
		r.rp = core.NewReconPredictor(u)
		r.rp.SetNoInference(s.NoCounterInference)
		recon.geom = core.PredGeomOf(u)
	}
	r.pool = newCapturePool(s.Cache, s.BPred, newLineTracker(h.Config().L1I.LineBytes).lineMask, recon)
	r.cur = r.pool.prepare(nil, 0, 0)
	return r
}

func (r *reverse) Name() string { return r.label }

// SizeRegions implements RegionSizer: logs are sized for the longest region.
func (r *reverse) SizeRegions(longest uint64) { r.pool.longest = longest }

func (r *reverse) BeginSkip(expectedLen uint64) {
	// Storage is kept only for the current region (§3): the previous region's
	// log is dead from here on, so the predictor lets go of it first.
	r.collectPredWork()
	if r.rp != nil {
		r.rp.ReleaseRegion()
	}
	r.work.LoggedRecords += r.cur.logged
	r.pool.prepare(r.cur, 0, expectedLen)
}

// appendSkipRecords is the batched logging kernel shared by in-place
// observation and region captures: one sweep over the batch with the line
// tracker on locals, records appended straight onto the log slices — which
// the capture pool has already sized for the region, so the appends neither
// allocate nor copy. It returns how many records it appended.
func appendSkipRecords(log *trace.SkipLog, lines *lineTracker, cache, bp bool, ds []trace.DynInst) uint64 {
	mem, branches := log.Mem, log.Branches
	before := len(mem) + len(branches)
	mask, last, have := lines.lineMask, lines.last, lines.have
	for i := range ds {
		d := &ds[i]
		class := d.Op.Class()
		if cache {
			if line := d.PC & mask; !have || line != last {
				mem = append(mem, trace.MemRecord{Addr: d.PC, IsInstr: true})
				last, have = line, true
			}
			if class == isa.ClassLoad || class == isa.ClassStore {
				mem = append(mem, trace.MemRecord{Addr: d.EffAddr, IsStore: class == isa.ClassStore})
			}
		}
		if bp && class.IsControl() {
			branches = append(branches, trace.BranchRecord{PC: d.PC, NextPC: d.NextPC, Taken: d.Taken, Class: class})
		}
	}
	log.Mem, log.Branches = mem, branches
	if cache {
		lines.last, lines.have = last, have
	}
	return uint64(len(mem) + len(branches) - before)
}

// ObserveSkipBatch logs into the method's own capture.
func (r *reverse) ObserveSkipBatch(ds []trace.DynInst) { r.cur.ObserveSkipBatch(ds) }

// NewRegionCapture returns a capture for one skip region: an empty log and a
// reset line tracker, which is the method's own region-start state. Only the
// goroutine-safe pool is touched, so captures may be created concurrently.
func (r *reverse) NewRegionCapture(_ int, expectedLen uint64) RegionCapture {
	return r.pool.prepare(nil, 0, expectedLen)
}

// AdoptRegion installs a captured region — its plans when the capture was
// sealed, its log when not — as if the method had observed the region
// itself. The caller has already run BeginSkip for the region, which folded
// predictor work and emptied cur, so the emptied capture goes back to the
// free list and the adopted one takes its place.
func (r *reverse) AdoptRegion(c RegionCapture) {
	r.pool.put(r.cur)
	r.cur = c.(*regionCapture)
}

// EndSkip is the reverse pass. A capture the producer did not seal — the
// in-place one always — is sealed here, so there is one reconstruction path:
// plan from the log, apply the plan.
func (r *reverse) EndSkip() {
	c := r.cur
	if !c.sealed {
		c.Seal()
	}
	if r.spec.Cache {
		st := core.ApplyCacheRecon(r.h, &c.cachePlan)
		r.work.ReconScanned += st.ScannedRefs
		r.work.ReconApplied += st.Applied
	}
	if r.spec.BPred {
		r.rp.BeginRegionPlan(&c.predPlan)
		st := r.rp.Stats()
		r.work.ReconApplied += st.BTBInstalled + st.RASInstalled
	}
}

// collectPredWork folds the on-demand scanning performed during the previous
// cluster into the cumulative work counters.
func (r *reverse) collectPredWork() {
	if r.rp == nil {
		return
	}
	st := r.rp.Stats()
	r.work.ReconScanned += st.ScannedRecords
	r.work.ReconApplied += st.CountersExact + st.CountersInferred
}

func (r *reverse) Predictor() bpred.Predictor {
	if r.rp != nil {
		return r.rp
	}
	return r.u
}

func (r *reverse) Work() Work {
	w := r.work
	w.LoggedRecords += r.cur.logged
	if r.rp != nil {
		st := r.rp.Stats()
		w.ReconScanned += st.ScannedRecords
		w.ReconApplied += st.CountersExact + st.CountersInferred
	}
	return w
}
