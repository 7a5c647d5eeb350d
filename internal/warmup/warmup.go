// Package warmup implements the paper's warm-up policies (Table 2): a grid of
// direction by window, with one type per direction. forward applies each skip
// region's trailing window to the caches and predictor as it is observed: 0%
// of the region is None, p% fixed-period warming (FP), 100% SMARTS (S$, SBP,
// S$BP). reverse logs the same window — the newest p% of the region's
// instructions — and scans that log backwards at the region's end (R$, RBP,
// R$BP): Reverse State Reconstruction. Both report the work they do, the
// machine-independent cost metric used by the experiment harness.
package warmup

import (
	"fmt"
	"sync"

	"rsr/internal/bpred"
	"rsr/internal/core"
	"rsr/internal/mem"
	"rsr/internal/trace"
)

// Method is one warm-up policy attached to a sampled run; forward and reverse
// are its two implementations. A region is observed between BeginSkip, when
// its skip phase starts, and EndSkip, immediately before its cluster; the
// timing model then probes Predictor() during hot execution.
//
// ObserveSkipBatch shows a method a region's instructions as records; callers
// that feed whole regions (bench/replay.go, the oracles) use it. How a region
// is split into batches must not matter: any split leaves the method in the
// state that observing the region one instruction at a time would, which
// TestBatchScalarEquivalence pins against a per-instruction oracle kept in
// the tests. The region walker (sampling.RunRegions) builds no records for a
// cold phase: NewWindow tells its producers how many of a region's
// instructions pass before the window, which they run without any, and how
// to log the rest, which funcsim's window kernel does into trace.Windows that
// ObserveWindow takes in place of the batches, whatever the run's shard
// count.
//
// Region captures (NewRegionCapture/AdoptRegion) observe a region away from
// the method's shared state and install it later: a capture logs what its
// method's window lets through, and AdoptRegion replays the log in order
// (forward) or keeps it, or the plans Seal made of it, for EndSkip
// (reverse). The walker does not use them; they stay for bench/replay.go,
// which times that path, and go when the benchmark does (ROADMAP 5(b)).
//
// forward has one loop that touches the machine, apply: it replays a log of
// the window's records, whether a capture's, a hand-off's or a batch's.
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
	// NewWindow returns how many of a region of expectedLen instructions pass
	// before its window and an empty trace.Window set up to log the rest as
	// this method does. It is safe for concurrent use.
	NewWindow(expectedLen uint64) (lead uint64, w trace.Window)
	// ObserveWindow observes, between BeginSkip and EndSkip, w.Seen of the
	// current region's window instructions through the records logged of them
	// into w, which it leaves alone. Windows of one region arrive in order, in
	// place of ObserveSkipBatch calls; its lead is observed by no call.
	ObserveWindow(w *trace.Window)
	EndSkip()
	Predictor() bpred.Predictor
	Work() Work

	// NewRegionCapture returns a capture for a skip phase with the given
	// expected length; region, the phase's index, is read by no method. It
	// must be safe for concurrent use and may read only immutable method
	// configuration; the returned capture is confined to one goroutine until
	// it is handed to AdoptRegion. Only bench/replay.go calls it.
	NewRegionCapture(region int, expectedLen uint64) RegionCapture
	// AdoptRegion installs a fed capture, sealed or not, as if the method
	// had observed the region's stream itself. It must be called between
	// BeginSkip and EndSkip in place of the method's own ObserveSkipBatch
	// calls for that region, and leaves the method in exactly the state
	// direct observation would. Only bench/replay.go calls it.
	AdoptRegion(c RegionCapture)
}

// RegionCapture accumulates one skip region's observation product away from
// the method's shared state, so a region can be observed on a goroutine of
// its own while earlier regions are still being consumed. Feeding a capture
// the region's batches, sealing it, and adopting it is equivalent to feeding
// the method directly between BeginSkip and EndSkip.
//
// Seal finalizes the capture after its last batch, still on the producing
// goroutine: work that is a pure function of the captured stream — for the
// reverse method, the backward scan that materializes the cache and
// predictor warm-apply plans — runs there. Seal is optional (the method
// seals an unsealed capture itself at EndSkip, byte-identically) and must be
// called at most once, after the final ObserveSkipBatch. Like the methods
// that make and adopt captures, the interface stays only for bench/replay.go.
type RegionCapture interface {
	ObserveSkipBatch(ds []trace.DynInst)
	Seal()
}

// RegionSizer is implemented by a method that holds a skip region's window of
// observations at once (the reverse method's log). A run that knows its
// regions calls SizeRegions once, before the first BeginSkip or
// NewRegionCapture, with the longest cold phase it will present, and buffers
// are sized for that one's window from the start. Unannounced, a buffer is
// replaced whenever a longer region arrives, and what a run allocates depends
// on the order of its region lengths — 3x between cluster placements of one
// regimen.
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
	Percent int  // Fixed and Reverse: the window, the newest Percent of each region's instructions
	Cache   bool // warm the cache hierarchy
	BPred   bool // warm the branch predictor
}

// Label renders the paper's abbreviations — None, FP (p%), S$, SBP, S$BP,
// R$ (p%), RBP, R$BP (p%) — and every other field Validate accepts, so no two
// valid specs share a label: FP names its structures unless it warms both
// (FP$ (p%), FPBP (p%)), RBP its percentage unless it is 100.
func (s Spec) Label() string {
	switch s.Kind {
	case KindNone:
		return "None"
	case KindFixed:
		if s.Cache && s.BPred {
			return fmt.Sprintf("FP (%d%%)", s.Percent)
		}
		return fmt.Sprintf("FP%s (%d%%)", structSuffix(s.Cache, s.BPred), s.Percent)
	case KindSMARTS:
		return "S" + structSuffix(s.Cache, s.BPred)
	case KindReverse:
		base := "R" + structSuffix(s.Cache, s.BPred)
		if s.Cache || s.Percent != 100 {
			return fmt.Sprintf("%s (%d%%)", base, s.Percent)
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

// Validate rejects a spec no method can honour, and one that sets a field its
// kind does not read, which would run another spec's simulation under a new
// label and job hash: an unknown Kind; a Percent outside 0..100, or any on None
// or SMARTS; and a structure on None, or none on the other kinds. Call it
// wherever a Spec arrives from outside the program; New trusts its receiver.
func (s Spec) Validate() error {
	switch {
	case s.Kind > KindReverse:
		return fmt.Errorf("warmup: unknown Kind %d", s.Kind)
	case s.Percent < 0 || s.Percent > 100:
		return fmt.Errorf("warmup: %s: Percent %d outside 0..100", s.Label(), s.Percent)
	case s.Percent != 0 && (s.Kind == KindNone || s.Kind == KindSMARTS):
		return fmt.Errorf("warmup: %s: Percent %d on a kind that does not read it", s.Label(), s.Percent)
	case s.Kind == KindNone && (s.Cache || s.BPred):
		return fmt.Errorf("warmup: None: Cache or BPred set on the method that warms nothing")
	case s.Kind != KindNone && !s.Cache && !s.BPred:
		return fmt.Errorf("warmup: %s: warms neither Cache nor BPred", s.Label())
	}
	return nil
}

// New instantiates the method over the run's shared hierarchy and predictor.
// Every kind's window is a percentage of the region, and one rule places it:
// None's is 0%, SMARTS's 100, FP's and the reverse method's Percent.
func (s Spec) New(h *mem.Hierarchy, u *bpred.Unit) Method {
	percent := s.Percent
	switch s.Kind {
	case KindReverse:
		return newReverse(h, u, s)
	case KindNone:
		percent = 0
	case KindSMARTS:
		percent = 100
	}
	pool := newCapturePool(s.Cache, s.BPred, h, nil)
	return &forward{h: h, u: u, label: s.Label(), percent: percent, pool: pool, cur: pool.prepare(nil, 0, 0)}
}

// PercentThreshold places the window "the newest percent of the region's
// instructions". It is the one place a percentage becomes a position, and
// regionCapture.tail cuts every region at that position, whichever direction
// the method works in, and where sampling's functional traces mark a window's
// start. A window over 100% is the whole region.
func PercentThreshold(expectedLen uint64, percent int) uint64 {
	return expectedLen - min(expectedLen*uint64(percent)/100, expectedLen)
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

// regionCapture is one skip region as a method holds it — each method's
// current region (cur) and every capture NewRegionCapture hands out: the
// window's threshold and its log, a trace.Window, which also counts how much of
// the region has gone by and carries the fetch-line state. trace.Window.Append
// and funcsim's window kernel, held to it, are what fill one, which is what
// makes a capture's log byte-identical to in-place logging.
//
// A forward capture logs exactly the references the method would have applied
// — the window's, instruction fetches collapsed per line — and AdoptRegion
// replays that log against the shared state in order; one log record is one
// functional application, so the capture's record count is the region's
// WarmOps delta. (forward's own cur only stages: in place the window goes
// to the machine through a batch-sized log.) The reverse method logs the same records — its
// log is the window, not the region — and Seal runs the backward scans over
// all of the private log, materializing the cache and predictor warm-apply
// plans that shrink the consumer's EndSkip to O(applied) work.
//
// A capture is recycled whole through its method's capturePool, log and plan
// arrays included, so a steady-state region allocates nothing. One refinement
// keeps the reverse method's hand-off small: its plans are self-contained, so
// a sealed capture has no further use for its log — by far its largest part —
// and Seal detaches it for the next region to fill. A run then holds about
// one log per producer instead of one per region in flight.
type regionCapture struct {
	pool      *capturePool
	threshold uint64 // instructions of the region that pass before its window opens
	log       trace.Window
	logged    uint64 // the log's records, once Seal has detached it

	// expect is how many instructions the region is expected to log; fitted
	// reports that log has been given the capacity for them. Fitting waits
	// for the region's first records, so a capture that is only passed
	// through — the reverse method's emptied one, on its way back to the free
	// list at AdoptRegion — claims no storage.
	expect uint64
	fitted bool

	// Reverse captures only. sealed reports that the plans stand in for the
	// log, which Seal has detached, and logged for its length.
	sealed    bool
	cachePlan core.CacheReconPlan
	predPlan  core.PredReconPlan
}

// tail returns the part of ds inside the region's window — past threshold —
// and counts the rest as seen (Append counts what it logs): the batch form of
// "apply once seen exceeds threshold".
func (c *regionCapture) tail(ds []trace.DynInst) []trace.DynInst {
	skip := min(c.threshold-min(c.log.Seen, c.threshold), uint64(len(ds)))
	c.log.Seen += skip
	return ds[skip:]
}

func (c *regionCapture) ObserveSkipBatch(ds []trace.DynInst) {
	if warm := c.tail(ds); len(warm) > 0 {
		if !c.fitted {
			c.pool.fit(c)
		}
		c.log.Append(warm)
	}
}

// records is how many records the region has logged.
func (c *regionCapture) records() uint64 {
	if c.sealed {
		return c.logged
	}
	return uint64(c.log.Len())
}

// Seal moves the reverse scans producer-side: the apply/skip decisions of
// both reconstruction passes are pure functions of the captured log (plus,
// for the predictor, a stale GHR prefix the plan carries as fixups), so the
// plans are exact and EndSkip only replays their mutating subset. A forward
// capture has no scan to materialize — the log already is the warm-apply
// plan. Either way the pool learns the region's record density here, regions
// before the consumer sees it.
func (c *regionCapture) Seal() {
	p := c.pool
	c.logged = uint64(c.log.Len())
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
		core.PlanCacheRecon(pl, c.log.Mem, &c.cachePlan)
	}
	if p.bp {
		core.PlanPredRecon(p.recon.geom, c.log.Branches, &c.predPlan)
	}
	c.sealed = true
	c.log.Reset()
	p.mu.Lock()
	if pl != nil {
		p.planners = append(p.planners, pl)
	}
	if c.fitted { // a region that logged nothing has no storage to hand on
		p.logs = append(p.logs, c.log.SkipLog)
		c.log.SkipLog, c.fitted = trace.SkipLog{}, false
	}
	p.mu.Unlock()
}

// reconConfig is the immutable reverse-scan configuration Seal reads on
// producer goroutines, so planning never touches the shared machine.
type reconConfig struct {
	hcfg mem.HierarchyConfig
	geom core.PredGeom
}

// capturePool is one method's free list of region captures for one run.
// Producers draw captures concurrently while the consumer returns them, so
// everything below mu is guarded by it; the fields above are immutable. The
// lists never hold more than was once in flight together.
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
	recon     *reconConfig // nil for the forward method

	mu       sync.Mutex
	free     []*regionCapture
	logs     []trace.SkipLog      // emptied, detached from sealed reverse captures
	planners []*core.CachePlanner // cache-planning scratch, one per concurrent Seal
	longest  uint64               // the run's longest window once announced, else 0
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

func newCapturePool(cache, bp bool, h *mem.Hierarchy, recon *reconConfig) *capturePool {
	return &capturePool{cache: cache, bp: bp, lineMask: ^uint64(h.Config().L1I.LineBytes - 1), recon: recon}
}

// noteDensity records the density of the region c holds. Caller holds mu.
func (p *capturePool) noteDensity(c *regionCapture) {
	if c.log.Seen < c.threshold+1024 {
		return // too few logged instructions to extrapolate from
	}
	n := c.log.Seen - c.threshold
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
		c = &regionCapture{pool: p, log: p.window()}
	}
	c.threshold, c.logged, c.sealed = threshold, 0, false
	c.expect, c.fitted = expectedLen-threshold, false
	c.log.Seen, c.log.HaveLine = 0, false
	c.log.Reset()
	return c
}

// window returns an empty window that logs what the pool's method does.
func (p *capturePool) window() trace.Window {
	return trace.Window{Cache: p.cache, BPred: p.bp, LineMask: p.lineMask}
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
		c.log.SkipLog, p.logs[k-1] = p.logs[k-1], trace.SkipLog{}
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

// --- Forward: apply each region's trailing window as it is observed ---

// forward is Table 2's left half: None, FP and SMARTS differ only in the
// window, the newest percent of each region, which PercentThreshold places as
// it does for reverse. Like reverse it holds the current region in cur, of
// which it uses the threshold, the count seen and the fetch-line state, and
// whose log stages a batch observed in place. percent and pool, the run's
// capture free list, are all NewRegionCapture reads from concurrent producer
// goroutines.
type forward struct {
	h       *mem.Hierarchy
	u       *bpred.Unit
	label   string
	percent int
	pool    *capturePool
	cur     *regionCapture
	work    Work
}

// The forward method warms as it observes, so EndSkip has nothing left to do
// and the timing model probes the unit itself.
func (f *forward) Name() string               { return f.label }
func (f *forward) EndSkip()                   {}
func (f *forward) Predictor() bpred.Predictor { return f.u }
func (f *forward) Work() Work                 { return f.work }

func (f *forward) BeginSkip(expectedLen uint64) {
	c := f.cur
	c.threshold, c.log.Seen, c.log.HaveLine = PercentThreshold(expectedLen, f.percent), 0, false
}

// ObserveSkipBatch logs the batch's part in the window as a capture would and
// applies that log at once.
func (f *forward) ObserveSkipBatch(ds []trace.DynInst) {
	if ds = f.cur.tail(ds); len(ds) > 0 {
		f.cur.log.Append(ds)
		f.apply(&f.cur.log.SkipLog)
		f.cur.log.Reset()
	}
}

func (f *forward) NewWindow(expectedLen uint64) (uint64, trace.Window) {
	return PercentThreshold(expectedLen, f.percent), f.pool.window()
}

func (f *forward) ObserveWindow(w *trace.Window) { f.apply(&w.SkipLog) }

// apply replays a log of the window's records against the shared machine in
// logged order, one WarmOp each: the method's only loop that touches the
// machine. Cache and predictor state are independent structures, so two
// passes leave the state a per-record interleaving would.
func (f *forward) apply(log *trace.SkipLog) {
	for i := range log.Mem {
		r := &log.Mem[i]
		if r.IsInstr {
			f.h.WarmInst(r.Addr)
		} else {
			f.h.WarmData(r.Addr, r.IsStore)
		}
	}
	for i := range log.Branches {
		f.u.Update(log.Branches[i])
	}
	f.work.WarmOps += uint64(log.Len())
}

// NewRegionCapture places the window as BeginSkip does; only the goroutine-safe
// pool is touched, so captures may be created concurrently.
func (f *forward) NewRegionCapture(_ int, expectedLen uint64) RegionCapture {
	return f.pool.prepare(nil, PercentThreshold(expectedLen, f.percent), expectedLen)
}

// AdoptRegion applies the captured window and leaves cur where observing the
// region in place would have. Nothing reads the capture afterwards, so it goes
// straight back to the free list.
func (f *forward) AdoptRegion(rc RegionCapture) {
	c := rc.(*regionCapture)
	f.apply(&c.log.SkipLog)
	f.cur.log.Seen, f.cur.log.Line, f.cur.log.HaveLine = c.log.Seen, c.log.Line, c.log.HaveLine
	f.pool.put(c)
}

// --- Reverse State Reconstruction ---

// reverse holds the current region's skip log — and, once sealed, its plans —
// in cur, a regionCapture like any other. Observation logs into it —
// ObserveSkipBatch through the same kernel captures use, ObserveWindow by
// appending the window kernel's records — and AdoptRegion swaps a producer's
// capture in for it. PercentThreshold cuts the region where forward would: what passes
// before it is never logged, so the log a region ends with is exactly what the
// reverse scans read, and the stores, the storage and the scan's forward pass
// for the rest of the region are not paid for.
//
// cur is not dead at EndSkip: ReconPredictor reads its plan's log and
// history arrays in place, on demand, throughout the hot window that follows.
// Its storage is reclaimed only at the next BeginSkip — where the paper's
// method discards the previous region's log anyway (§3) — which empties it
// for in-place reuse; AdoptRegion then returns the emptied capture to the
// free list in exchange for the adopted one.
type reverse struct {
	h     *mem.Hierarchy
	u     *bpred.Unit
	rp    *core.ReconPredictor
	spec  Spec
	label string
	// pool is the run's capture free list and, with spec, the only thing
	// NewRegionCapture reads from concurrent producer goroutines.
	pool *capturePool
	cur  *regionCapture
	work Work // LoggedRecords excludes cur's, folded in at BeginSkip
}

func newReverse(h *mem.Hierarchy, u *bpred.Unit, s Spec) *reverse {
	r := &reverse{h: h, u: u, spec: s, label: s.Label()}
	recon := &reconConfig{hcfg: h.Config()}
	if s.BPred {
		r.rp = core.NewReconPredictor(u)
		recon.geom = core.PredGeomOf(u)
	}
	r.pool = newCapturePool(s.Cache, s.BPred, h, recon)
	r.cur = r.pool.prepare(nil, 0, 0)
	return r
}

func (r *reverse) Name() string { return r.label }

// SizeRegions implements RegionSizer: logs are sized for the window of the
// longest region, which is the longest window.
func (r *reverse) SizeRegions(longest uint64) {
	r.pool.longest = longest - PercentThreshold(longest, r.spec.Percent)
}

func (r *reverse) BeginSkip(expectedLen uint64) {
	// Storage is kept only for the current region (§3): the previous region's
	// log is dead from here on, so the predictor lets go of it first.
	r.addPredWork(&r.work)
	if r.rp != nil {
		r.rp.ReleaseRegion()
	}
	r.work.LoggedRecords += r.cur.records()
	r.pool.prepare(r.cur, PercentThreshold(expectedLen, r.spec.Percent), expectedLen)
}

// ObserveSkipBatch goes to the method's own capture.
func (r *reverse) ObserveSkipBatch(ds []trace.DynInst) { r.cur.ObserveSkipBatch(ds) }

func (r *reverse) NewWindow(expectedLen uint64) (uint64, trace.Window) {
	return PercentThreshold(expectedLen, r.spec.Percent), r.pool.window()
}

// ObserveWindow appends w's records to the current region's log, which then
// stands as the capture kernel would have left it.
func (r *reverse) ObserveWindow(w *trace.Window) {
	c := r.cur
	if !c.fitted {
		r.pool.fit(c)
	}
	c.log.Mem = append(c.log.Mem, w.Mem...)
	c.log.Branches = append(c.log.Branches, w.Branches...)
	c.log.Seen = max(c.log.Seen, c.threshold) + w.Seen
	c.log.Line, c.log.HaveLine = w.Line, w.HaveLine
}

// NewRegionCapture returns a capture for one skip region: an empty log and a
// reset line tracker, which is the method's own region-start state. Only the
// goroutine-safe pool is touched, so captures may be created concurrently.
func (r *reverse) NewRegionCapture(_ int, expectedLen uint64) RegionCapture {
	return r.pool.prepare(nil, PercentThreshold(expectedLen, r.spec.Percent), expectedLen)
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

// addPredWork adds to w the on-demand scanning performed since EndSkip, which
// BeginSkip folds into the cumulative counters.
func (r *reverse) addPredWork(w *Work) {
	if r.rp == nil {
		return
	}
	st := r.rp.Stats()
	w.ReconScanned += st.ScannedRecords
	w.ReconApplied += st.CountersExact + st.CountersInferred
}

func (r *reverse) Predictor() bpred.Predictor {
	if r.rp != nil {
		return r.rp
	}
	return r.u
}

func (r *reverse) Work() Work {
	w := r.work
	w.LoggedRecords += r.cur.records()
	r.addPredWork(&w)
	return w
}
