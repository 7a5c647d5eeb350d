package sampling

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"rsr/internal/funcsim"
	"rsr/internal/prog"
	"rsr/internal/trace"
	"rsr/internal/warmup"
)

// The run-ahead feed is the walker's one feed. Functional execution reads
// nothing that warm-up or timing computes, so a producer goroutine owns the
// run's functional simulator and runs it region by region ahead of the
// walker, which meanwhile warms and times the region before. Each region
// crosses the feed's ring of slots in order: its window's records in
// stretches the window kernel logged (the lead before it runs through Skip
// and crosses as nothing), which the method observes as they come
// (ObserveWindow: forward applies them, reverse logs them and scans the log
// at EndSkip, as in place); then its hot phase's batches from RunBatch — or
// the error that ended its cold phase. Results are byte-identical to
// observing in place by the Method contract. A run whose trace store holds its
// placement's functional trace (Trace) executes nothing, so its feed has no
// producer and no ring: the walker reads each region where the trace holds
// it, the window as views of the part's log or its plan's cut, and the hot
// phase as views of the part's records.

// aheadSlots is a ring's size: enough batches that the producer finishes a
// 20K-instruction hot phase early and runs the next cold phase while the
// walker times the rest (at 8, hot-heavy's R$BP (20%) stalled on every
// boundary). Waking a parked goroutine costs tens of microseconds on a
// two-core host, so slots are large — a batch, or a stretch of about
// handoffInstrs instructions, whose log holds handoffMem memory records and
// half as many branches, enough at the densest workload's rates — and the
// walker hands emptied ones back half a ring at a time.
const (
	aheadSlots    = 16
	handoffInstrs = 8192
	handoffMem    = 4096
)

// aheadSlot is one hand-off of an executing run: a stretch of a window
// (win.Seen > 0); a batch of a hot phase (the region's last one flagged, a
// fault after its records in err); or, with neither, the error that ended a
// cold phase.
type aheadSlot struct {
	win  trace.Window
	recs []trace.DynInst
	last bool
	err  error
}

func newAheadSlot() *aheadSlot {
	return &aheadSlot{
		win:  trace.Window{SkipLog: trace.SkipLog{Mem: make([]trace.MemRecord, 0, handoffMem), Branches: make([]trace.BranchRecord, 0, handoffMem/2)}},
		recs: make([]trace.DynInst, funcsim.BatchSize),
	}
}

// spareSlots keeps slots, with their storage, from one run for the next: a
// run would otherwise allocate its ring afresh, more than many a short run
// allocates for everything else. It is not a sync.Pool, which drops what it
// holds at every second collection.
var spareSlots struct {
	sync.Mutex
	slots []*aheadSlot
}

// aheadFeed is the walker's end of the run-ahead feed: the producer's ring of
// slots, or the trace the run replays, and the walker's place in the run.
type aheadFeed struct {
	opts   *Options
	done   chan struct{}      // closed when the walker leaves
	wg     sync.WaitGroup     // the producer
	replay *Trace             // the trace this run replays, if any
	plan   *TracePlan         // the replayed trace's reverse plan, if the run cuts it
	part   int                // the replayed part of the next region
	rest   []trace.DynInst    // what the replayed hot phase has not yet delivered
	win    trace.Window       // the replayed window the method observes
	fetch  [1]trace.MemRecord // the fetch a replayed window logs where it opens

	slots   []*aheadSlot    // kept in spareSlots by stop
	full    chan *aheadSlot // producer → walker, in order; both sized to the
	free    chan *aheadSlot // ring (walker → producer), so no send waits for room
	emptied []*aheadSlot    // freed by the walker, not yet handed back

	pos     uint64     // where the functional simulator stands after the region before
	cur     *aheadSlot // the hot batch being timed
	fresh   bool       // cur, the hot phase's first batch, is not delivered yet
	failure error
}

// newAheadFeed returns the feed of a run over regions. One that replays replay,
// cutting plan, a plan of replay, for method's windows if it is not nil, reads
// the trace; any other fills the ring, spare slots first, and starts the
// producer.
func newAheadFeed(p *prog.Program, regions []Region, method warmup.Method, replay *Trace, plan *TracePlan, opts *Options) *aheadFeed {
	f := &aheadFeed{opts: opts, done: make(chan struct{}), replay: replay, plan: plan}
	if replay != nil {
		return f
	}
	f.full, f.free = make(chan *aheadSlot, aheadSlots), make(chan *aheadSlot, aheadSlots)
	spareSlots.Lock()
	k := max(0, len(spareSlots.slots)-aheadSlots)
	f.slots = slices.Clone(spareSlots.slots[k:])
	spareSlots.slots = spareSlots.slots[:k]
	spareSlots.Unlock()
	for len(f.slots) < aheadSlots {
		f.slots = append(f.slots, newAheadSlot())
	}
	for _, s := range f.slots {
		f.free <- s
	}
	f.wg.Add(1)
	go f.produce(p, regions, method)
	return f
}

// stop winds the producer down and, once it has returned, keeps the ring for
// the next run: nothing reads a slot after RunRegions returns.
func (f *aheadFeed) stop() {
	close(f.done)
	f.wg.Wait()
	for _, s := range f.slots {
		s.err = nil
	}
	spareSlots.Lock()
	defer spareSlots.Unlock()
	spareSlots.slots = append(spareSlots.slots, f.slots...)
}

func (f *aheadFeed) stopped() bool {
	select {
	case <-f.done:
		return true
	default:
		return f.opts.Canceled()
	}
}

// put hands an emptied slot back, half a ring at a time; handBack, all.
func (f *aheadFeed) put(s *aheadSlot) {
	if f.emptied = append(f.emptied, s); len(f.emptied) >= aheadSlots/2 {
		f.handBack()
	}
}

func (f *aheadFeed) handBack() {
	for _, s := range f.emptied {
		f.free <- s
	}
	f.emptied = f.emptied[:0]
}

// get takes an empty slot for the producer. After the walker has left, when
// nothing reads a slot any more, it lends any, so that the producer — which
// holds one at a time — runs on to its next poll and returns there.
func (f *aheadFeed) get() *aheadSlot {
	select {
	case s := <-f.free:
		return s
	case <-f.done:
		return f.slots[0]
	}
}

func (f *aheadFeed) send(s *aheadSlot) {
	select {
	case f.full <- s:
	case <-f.done:
	}
}

// recv takes the current region's next slot for the walker. Before it waits
// it hands back every emptied slot, which the producer may be waiting for.
func (f *aheadFeed) recv() (*aheadSlot, error) {
	select {
	case s := <-f.full:
		return s, nil
	default:
	}
	f.handBack()
	select {
	case s := <-f.full:
		return s, nil
	case <-f.opts.Cancel: // nil channel blocks; the producer always sends
		return nil, ErrCanceled
	}
}

// produce is the producer: the functional execution of the run's regions. A
// slot is the walker's once sent, so nothing is read from it afterwards.
func (f *aheadFeed) produce(p *prog.Program, regions []Region, method warmup.Method) {
	defer f.wg.Done()
	fs := funcsim.New(p)
	h := handoff{f: f}
	for _, reg := range regions {
		cold := reg.Start - fs.Seq()
		h.lead, h.w = method.NewWindow(cold)
		err := coldSkip(fs, cold, &h)
		h.flush()
		if errors.Is(err, ErrCanceled) {
			return
		}
		if err != nil {
			sl := f.get()
			sl.win.Seen, sl.recs, sl.last, sl.err = 0, sl.recs[:0], false, err
			f.send(sl)
			return
		}
		if !f.hot(fs, reg.Size) {
			return
		}
	}
}

// hot sends a hot phase of size instructions executed on fs in batches; an
// empty phase is one empty last batch. It reports whether the run goes on.
func (f *aheadFeed) hot(fs *funcsim.Sim, size uint64) bool {
	for n := uint64(0); ; {
		s := f.get()
		b := s.recs[:cap(s.recs)][:min(size-n, funcsim.BatchSize)]
		k, err := fs.RunBatch(b)
		n += uint64(k)
		last := err != nil || k < len(b) || n == size
		s.win.Seen, s.recs, s.last, s.err = 0, b[:k], last, err
		f.send(s)
		if err != nil || !last && f.stopped() {
			return false
		}
		if last {
			return true
		}
	}
}

// handoff is what the producer observes a region's cold phase through: the
// window kernel logs into one slot after another, each handed to the walker
// once it holds handoffInstrs instructions or is full, the fetch-line state
// carried from each to the next in w. lead is how many of the phase's
// instructions pass before the window.
type handoff struct {
	f    *aheadFeed
	lead uint64
	w    trace.Window
	s    *aheadSlot
}

func (h *handoff) window() *trace.Window {
	if h.s != nil && (h.s.win.Seen >= handoffInstrs || h.s.win.Full()) {
		h.flush()
	}
	if h.s == nil {
		h.s = h.f.get()
		log := h.s.win.SkipLog
		log.Reset()
		h.s.win = h.w
		h.s.win.SkipLog = log
	}
	return &h.s.win
}

// flush hands the stretch being logged, if any, to the walker. An empty one
// is a fault or halt at its start, which ends the run.
func (h *handoff) flush() {
	if h.s != nil && h.s.win.Seen > 0 {
		h.w.Line, h.w.HaveLine = h.s.win.Line, h.s.win.HaveLine
		h.f.send(h.s)
	}
	h.s = nil
}

// coldSkip executes n instructions on fs in batches of at most
// funcsim.BatchSize, polling for a stop between batches: the cold phase of a
// region. The lead before h's window runs through funcsim.Skip, which logs
// nothing, the rest through the window kernel into h's slots. A fault, a
// workload that halts short of n, and a stop (ErrCanceled) are errors.
func coldSkip(fs *funcsim.Sim, n uint64, h *handoff) error {
	lead := min(h.lead, n)
	var ran uint64
	for ran < n {
		chunk := min(n-ran, funcsim.BatchSize)
		var k uint64
		var err error
		if ran < lead {
			k, err = fs.Skip(min(chunk, lead-ran))
		} else {
			k, err = fs.SkipWindow(chunk, h.window())
		}
		ran += k
		if err != nil {
			return fmt.Errorf("sampling: cold phase: %w", err)
		}
		if fs.Halted() {
			break
		}
		if h.f.stopped() {
			return ErrCanceled
		}
	}
	if ran != n {
		return fmt.Errorf("sampling: workload halted after %d skipped instructions", ran)
	}
	return nil
}

// next makes r the current region and returns the length of its cold phase,
// which depends on where the region before ended: the producer runs to its
// start.
func (f *aheadFeed) next(r Region) uint64 {
	cold := r.Start - f.pos
	f.pos = r.Start
	return cold
}

// ingest has the method observe the region's window between the walker's
// BeginSkip and EndSkip: the stretches as they come, up to the hot phase's
// first batch, or the window a replayed part holds (observePart).
func (f *aheadFeed) ingest(method warmup.Method) error {
	if f.replay != nil {
		f.observePart(method)
		return nil
	}
	for {
		s, err := f.recv()
		if err != nil {
			return err
		}
		if s.win.Seen == 0 {
			if s.err != nil && !s.last {
				return s.err
			}
			f.cur, f.fresh = s, true
			return nil
		}
		method.ObserveWindow(&s.win)
		f.put(s)
	}
}

// observePart has method observe its window on the replayed trace's next part
// where the part holds it: the cut of the run's plan if it has one, else one
// window of views of the part's log from the window's mark, which no append
// of the method's reaches. If the window logs a fetch where it opens that the
// log does not hold, a window of that one record, held in the feed and
// counting no instruction, comes first.
func (f *aheadFeed) observePart(method warmup.Method) {
	i := f.part
	part := f.replay.parts[i]
	f.part, f.rest = i+1, part.hot
	b := &part.marks[0]
	lead, w := method.NewWindow(b.at)
	if lead == b.at {
		return
	}
	mark := part.mark(lead)
	if f.plan != nil {
		method.(warmup.Cutter).ObserveCut(f.plan.parts[i], mark)
		return
	}
	a := &part.marks[mark]
	if w.Cache && a.opens(b.at, w.LineMask) {
		f.fetch[0] = trace.MemRecord{Addr: a.pc, IsInstr: true}
		f.win = w
		f.win.Mem = f.fetch[:]
		method.ObserveWindow(&f.win)
	}
	w.Seen = b.at - a.at
	if w.Cache {
		w.Mem = part.log.Mem[a.mem:b.mem:b.mem]
		w.Line, w.HaveLine = b.line, b.haveLine
	}
	if w.BPred {
		w.Branches = part.log.Branches[a.br:b.br:b.br]
	}
	f.win = w
	method.ObserveWindow(&f.win)
}

// Fill delivers the current region's hot batches, or views of its replayed
// records, never running past the region's end: the feed is the timing
// model's ooo.Source.
func (f *aheadFeed) Fill(max uint64) []trace.DynInst {
	if f.replay != nil {
		if len(f.rest) == 0 || f.Stopped() {
			return nil
		}
		b := f.rest[:min(max, uint64(len(f.rest)))]
		f.rest, f.pos = f.rest[len(b):], f.pos+uint64(len(b))
		return b
	}
	if f.failure != nil || f.cur == nil || f.cur.last && !f.fresh {
		return nil
	}
	if f.Stopped() {
		return nil
	}
	if !f.fresh {
		f.put(f.cur)
		s, err := f.recv()
		if f.cur, f.failure = s, err; err != nil {
			return nil
		}
	}
	f.fresh, f.failure = false, f.cur.err
	f.pos += uint64(len(f.cur.recs))
	return f.cur.recs
}

// Stopped implements ooo.Stopper: a canceled run ends its hot phase with
// ErrCanceled.
func (f *aheadFeed) Stopped() bool {
	if f.opts.Canceled() {
		f.failure = ErrCanceled
		return true
	}
	return false
}

// err is the failure that ended the hot phase early, if any.
func (f *aheadFeed) err() error { return f.failure }

// release hands the region's last hot batch back: nothing of the region is
// read afterwards.
func (f *aheadFeed) release() {
	if f.cur != nil {
		f.put(f.cur)
		f.cur = nil
	}
}
