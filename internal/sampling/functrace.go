package sampling

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"rsr/internal/funcsim"
	"rsr/internal/prog"
	"rsr/internal/trace"
	"rsr/internal/warmup"
)

// TraceStore keeps functional traces across runs, each a pure function of its
// key (workload, regions, L1I line size), so results are byte-identical
// whether a run replays one or executes.
type TraceStore interface {
	// LoadTrace returns the trace stored under key, or nil.
	LoadTrace(key string) *Trace
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

// Bounds per instruction: a cold one logs two memory records and a branch at
// most, a hot one is one record.
const (
	coldInstrBytes = 2*unsafe.Sizeof(trace.MemRecord{}) + unsafe.Sizeof(trace.BranchRecord{})
	hotInstrBytes  = unsafe.Sizeof(trace.DynInst{})
	partBytes      = unsafe.Sizeof(tracePart{})
)

func (p *tracePart) mark(at uint64) *windowMark {
	i := slices.IndexFunc(p.marks[:], func(m windowMark) bool { return m.at == at })
	return &p.marks[i]
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

// RecordTrace executes regions of p, as a run of them would, into their
// trace for m's L1I line size. It gives up, returning nil and why, when the
// workload halts or faults before the last region's end, when cancel closes,
// or when the trace could outgrow limit bytes, which it checks before each
// region against the densest the region could be.
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
	for _, reg := range regions {
		cold := reg.Start - fs.Seq()
		worst := float64(cold)*float64(coldInstrBytes) + float64(reg.Size)*float64(hotInstrBytes) + float64(partBytes)
		if worst > float64(limit-t.bytes) {
			return nil, fmt.Errorf("sampling: trace could outgrow %d bytes", limit)
		}
		part, err := recordCold(fs, cold, &w, stopped)
		if err != nil {
			return nil, err
		}
		part.hot = make([]trace.DynInst, 0, reg.Size)
		keep := func(b []trace.DynInst) { part.hot = append(part.hot, b...) }
		if ran, err := fs.RunBatches(reg.Size, buf, keep, stopped); err != nil {
			return nil, fmt.Errorf("sampling: hot phase: %w", err)
		} else if ran < reg.Size {
			return nil, fmt.Errorf("sampling: hot phase stopped after %d instructions", ran)
		}
		t.parts = append(t.parts, part)
		t.bytes += int64(uintptr(cap(part.log.Mem))*unsafe.Sizeof(trace.MemRecord{}) +
			uintptr(cap(part.log.Branches))*unsafe.Sizeof(trace.BranchRecord{}) +
			uintptr(cap(part.hot))*hotInstrBytes + partBytes)
	}
	return t, nil
}

// recordCold logs a cold phase of n instructions on fs whole into a new part
// through w, marking every window start.
func recordCold(fs *funcsim.Sim, n uint64, w *trace.Window, stopped func() bool) (*tracePart, error) {
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
			}
		}
		part.marks[p] = windowMark{at: at, pc: fs.PC(), line: w.Line, mem: len(w.Mem), br: len(w.Branches), haveLine: w.HaveLine}
	}
	part.log = trace.SkipLog{Mem: slices.Clone(w.Mem), Branches: slices.Clone(w.Branches)}
	return part, nil
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

// sendWindow hands the walker method's window on a recorded part through r.
func (f *aheadFeed) sendWindow(r *ring, part *tracePart, method warmup.Method) bool {
	cold := part.marks[0].at
	lead, w := method.NewWindow(cold)
	return lead == cold || f.sendStretches(r, part, part.mark(lead), &part.marks[0], w, true)
}

// sendStretches hands the walker, in as many stretches as the slots need,
// what w logs of the instructions between marks a and b, cut from the whole
// log. With open set the window opens at a, where fresh logging logs a fetch
// whatever line came before: if the whole log did not, the first stretch
// starts with one. Any split will do, and every stretch carries b's line state
// (ObserveWindow reads the last one's). It reports whether the run goes on.
func (f *aheadFeed) sendStretches(r *ring, part *tracePart, a, b *windowMark, w trace.Window, open bool) bool {
	var mem []trace.MemRecord
	var br []trace.BranchRecord
	fetch := open && w.Cache && a.haveLine && a.pc&w.LineMask == a.line
	if w.Cache {
		mem = part.log.Mem[a.mem:b.mem]
		w.Line, w.HaveLine = b.line, b.haveLine
	}
	if w.BPred {
		br = part.log.Branches[a.br:b.br]
	}
	// A stretch counts one instruction, the last all that are left: a
	// stretch's records are those of one instruction at least.
	for left := b.at - a.at; left > 0; {
		s := f.get(r)
		log := s.win.SkipLog
		log.Reset()
		if fetch {
			log.Mem, fetch = append(log.Mem, trace.MemRecord{Addr: a.pc, IsInstr: true}), false
		}
		k, j := min(len(mem), cap(log.Mem)-len(log.Mem)), min(len(br), cap(log.Branches))
		log.Mem, mem = append(log.Mem, mem[:k]...), mem[k:]
		log.Branches, br = append(log.Branches, br[:j]...), br[j:]
		s.win = w
		s.win.SkipLog, s.win.Seen = log, 1
		if len(mem)+len(br) == 0 {
			s.win.Seen = left
		}
		left -= s.win.Seen
		f.send(r, s)
		if f.stopped() {
			return false
		}
	}
	return true
}
