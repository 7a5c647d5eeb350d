package sampling

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"rsr/internal/core"
	"rsr/internal/funcsim"
	"rsr/internal/mem"
	"rsr/internal/prog"
	"rsr/internal/trace"
	"rsr/internal/warmup"
)

// TraceStore keeps functional traces across runs, each a pure function of its
// key (workload, regions, L1I line size), so results are byte-identical
// whether a run replays one or executes; and beside a trace, its reverse plans
// (TracePlan), one per geometry.
type TraceStore interface {
	// LoadTrace returns the trace stored under key, or nil.
	LoadTrace(key string) *Trace
	// LoadPlan returns the reverse plan of the trace stored under key for m's
	// geometry, or nil. A run asks for one only after LoadTrace has handed it
	// the trace, and only for a reverse method.
	LoadPlan(key string, m MachineConfig) *TracePlan
}

// Trace is one placement's functional trace. A placement — the regions a
// workload's run visits — fixes every instruction the run executes; the
// warm-up spec decides only which of them the method observes, and the
// machine only how a window collapses fetches (its L1I line size). So
// RecordTrace keeps, per region, the cold phase logged whole as a 100% Cache
// and BPred window logs it, with a mark where each percentage's window opens,
// and the hot phase's instructions; a run of the placement under any spec
// replays the trace, and the walker and the method receive the same stretches
// and batches as from execution. A trace is never written once recorded.
type Trace struct {
	regions  []Region
	lineMask uint64
	parts    []*tracePart
	bytes    int64 // the memory it holds
}

func (t *Trace) Bytes() int64 { return t.bytes }

// tracePart is one region of a trace; marks[p] is where a p% window opens, so
// marks[0] is the cold phase's end.
type tracePart struct {
	log   trace.SkipLog
	marks [101]windowMark
	hot   []trace.DynInst
}

// windowMark is a position in a cold phase: the records before it, the
// fetch-line state there and the PC of the instruction at it.
type windowMark struct {
	at, pc, line uint64
	mem, br      int
	haveLine     bool
}

// What a trace's records cost: a cold instruction logs memory and branch
// records, a hot one is one record.
const (
	memRecordBytes    = unsafe.Sizeof(trace.MemRecord{})
	branchRecordBytes = unsafe.Sizeof(trace.BranchRecord{})
	hotInstrBytes     = unsafe.Sizeof(trace.DynInst{})
	partBytes         = unsafe.Sizeof(tracePart{})
)

// mark returns the index of the first mark at at.
func (p *tracePart) mark(at uint64) int {
	return slices.IndexFunc(p.marks[:], func(m windowMark) bool { return m.at == at })
}

// opens reports whether a window opening at mark m of a cold phase of cold
// instructions logs a fetch there that the whole log collapsed into the line
// before: fresh logging logs a window's first fetch whatever line came
// before. An empty window logs nothing.
func (m *windowMark) opens(cold, lineMask uint64) bool {
	return m.at < cold && m.haveLine && m.pc&lineMask == m.line
}

// windowsAtMarks reports whether every window method opens on regions starts
// where a trace marks one, at a percentage of its cold phase.
func windowsAtMarks(regions []Region, method warmup.Method) bool {
	var pos uint64
	for _, r := range regions {
		cold := r.Start - pos
		lead, _ := method.NewWindow(cold)
		if d := cold - lead; lead > cold || d > 0 && warmup.PercentThreshold(cold, int((100*d+cold-1)/cold)) != lead {
			return false
		}
		pos = r.Start + r.Size
	}
	return true
}

// ErrTraceTooLarge is RecordTrace giving up on a trace that outgrew its byte
// limit: a placement's trace is a pure function of it, so recording it again
// under the same limit would give up again.
var ErrTraceTooLarge = errors.New("sampling: trace outgrew its byte limit")

// RecordTrace executes regions of p, as a run of them would, into their
// trace for m's L1I line size. It gives up, returning nil and why, when the
// workload halts or faults before the last region's end, when cancel closes
// (ErrCanceled), or as soon as what it holds passes limit bytes
// (ErrTraceTooLarge), which it checks between the cold phase's batches and
// before each hot phase, counting the records that phase will hold.
func RecordTrace(p *prog.Program, m MachineConfig, regions []Region, limit int64, cancel <-chan struct{}) (*Trace, error) {
	if err := ValidateRegions(regions, math.MaxUint64); err != nil {
		return nil, err
	}
	lineMask := ^uint64(m.Hier.L1I.LineBytes - 1)
	t := &Trace{regions: slices.Clone(regions), lineMask: lineMask}
	fs := funcsim.New(p)
	w := trace.Window{Cache: true, BPred: true, LineMask: lineMask}
	buf := make([]trace.DynInst, funcsim.BatchSize)
	stopped := Options{Cancel: cancel}.Canceled
	tooLarge := fmt.Errorf("%w (%d bytes)", ErrTraceTooLarge, limit)
	for _, reg := range regions {
		part, err := recordCold(fs, reg.Start-fs.Seq(), &w, limit-t.bytes, stopped)
		if err != nil {
			if errors.Is(err, ErrTraceTooLarge) {
				err = tooLarge
			}
			return nil, err
		}
		t.bytes += int64(uintptr(cap(part.log.Mem))*memRecordBytes + uintptr(cap(part.log.Branches))*branchRecordBytes + partBytes)
		if float64(t.bytes)+float64(reg.Size)*float64(hotInstrBytes) > float64(limit) { // before the hot phase's array
			return nil, tooLarge
		}
		t.bytes += int64(reg.Size) * int64(hotInstrBytes)
		part.hot = make([]trace.DynInst, 0, reg.Size)
		keep := func(b []trace.DynInst) { part.hot = append(part.hot, b...) }
		if ran, err := fs.RunBatches(reg.Size, buf, keep, stopped); err != nil {
			return nil, fmt.Errorf("sampling: hot phase: %w", err)
		} else if ran < reg.Size {
			return nil, fmt.Errorf("sampling: hot phase stopped after %d instructions", ran)
		}
		t.parts = append(t.parts, part)
	}
	return t, nil
}

// recordCold logs a cold phase of n instructions on fs whole into a new part
// through w, marking every window start. It gives up with ErrTraceTooLarge
// once w's records pass room bytes.
func recordCold(fs *funcsim.Sim, n uint64, w *trace.Window, room int64, stopped func() bool) (*tracePart, error) {
	w.Reset()
	w.Line, w.HaveLine = 0, false
	part := &tracePart{}
	var ran uint64
	for p := 100; p >= 0; p-- {
		at := warmup.PercentThreshold(n, p)
		for ran < at {
			w.Mem = slices.Grow(w.Mem, 2*funcsim.BatchSize)
			w.Branches = slices.Grow(w.Branches, funcsim.BatchSize)
			k, err := fs.SkipWindow(min(at-ran, funcsim.BatchSize), w)
			ran += k
			switch {
			case err != nil:
				return nil, fmt.Errorf("sampling: cold phase: %w", err)
			case fs.Halted() && ran != n:
				return nil, fmt.Errorf("sampling: workload halted after %d skipped instructions", ran)
			case stopped():
				return nil, ErrCanceled
			case int64(uintptr(len(w.Mem))*memRecordBytes+uintptr(len(w.Branches))*branchRecordBytes) > room:
				return nil, ErrTraceTooLarge
			}
		}
		part.marks[p] = windowMark{at: at, pc: fs.PC(), line: w.Line, mem: len(w.Mem), br: len(w.Branches), haveLine: w.HaveLine}
	}
	part.log = trace.SkipLog{Mem: slices.Clone(w.Mem), Branches: slices.Clone(w.Branches)}
	return part, nil
}

// TracePlan is a trace's reverse plan for one geometry: per region, one
// reverse pass over the cold phase's whole log, cut at each of the region's
// window marks (core.CutPlan). A reverse run that replays the trace applies
// its window's cut instead of logging and planning the window itself, and
// results stay byte-identical. A plan is never written once made.
type TracePlan struct {
	trace *Trace
	geom  PlanGeom
	parts []*core.CutPlan
	bytes int64
}

// Bytes is the memory p holds beyond its trace.
func (p *TracePlan) Bytes() int64 { return p.bytes }

// PlanGeom is what a trace's reverse plan depends on besides the trace: each
// cache's size, associativity and line size, and the predictor's history
// length and RAS depth. A store keys plans by it beside the trace's key.
type PlanGeom struct {
	L1I, L1D, L2          [3]int
	HistoryBits, RASDepth int
}

// PlanGeomOf returns m's plan geometry.
func PlanGeomOf(m MachineConfig) PlanGeom {
	c := func(c mem.CacheConfig) [3]int { return [3]int{c.SizeBytes, c.Assoc, c.LineBytes} }
	return PlanGeom{L1I: c(m.Hier.L1I), L1D: c(m.Hier.L1D), L2: c(m.Hier.L2),
		HistoryBits: m.Pred.Gshare.HistoryBits, RASDepth: m.Pred.RAS.Depth}
}

// PlanTrace makes t's reverse plan for m's geometry, region by region. It
// gives up with ErrCanceled when cancel closes.
func PlanTrace(t *Trace, m MachineConfig, cancel <-chan struct{}) (*TracePlan, error) {
	pl := core.NewCachePlanner(m.Hier)
	geom := core.PredGeom{HistoryBits: m.Pred.Gshare.HistoryBits, RASDepth: m.Pred.RAS.Depth}
	p := &TracePlan{trace: t, geom: PlanGeomOf(m), parts: make([]*core.CutPlan, len(t.parts))}
	stopped := Options{Cancel: cancel}.Canceled
	var marks [101]core.CutMark
	for i, part := range t.parts {
		if stopped() {
			return nil, ErrCanceled
		}
		for k := range marks {
			a := &part.marks[k]
			marks[k] = core.CutMark{Mem: a.mem, Br: a.br, Fetch: a.opens(part.marks[0].at, t.lineMask), FetchPC: a.pc}
		}
		p.parts[i] = core.PlanCuts(pl, geom, part.log.Mem, part.log.Branches, marks[:])
		p.bytes += p.parts[i].Bytes()
	}
	return p, nil
}

// loadTrace returns the trace opts's store holds for a run of regions under
// method on m, if the run can replay it.
func loadTrace(m MachineConfig, regions []Region, method warmup.Method, opts *Options) *Trace {
	if opts.Traces == nil || opts.TraceKey == "" || !windowsAtMarks(regions, method) {
		return nil
	}
	t := opts.Traces.LoadTrace(opts.TraceKey)
	if t == nil || t.lineMask != ^uint64(m.Hier.L1I.LineBytes-1) || !slices.Equal(t.regions, regions) {
		return nil
	}
	return t
}

// loadPlan returns the reverse plan opts's store holds of t for m's geometry,
// if method can take its cuts.
func loadPlan(m MachineConfig, t *Trace, method warmup.Method, opts *Options) *TracePlan {
	if _, ok := method.(warmup.Cutter); !ok || t == nil {
		return nil
	}
	p := opts.Traces.LoadPlan(opts.TraceKey, m)
	if p == nil || p.trace != t || p.geom != PlanGeomOf(m) {
		return nil
	}
	return p
}
