package sampling

import (
	"errors"
	"sync"
	"time"

	"rsr/internal/funcsim"
	"rsr/internal/prog"
	"rsr/internal/trace"
	"rsr/internal/warmup"
)

// The run-ahead feed is the walker's feed for a sequential run (Shards ≤ 1).
// Functional execution reads nothing that warm-up or timing computes, so a
// producer goroutine owns the run's functional simulator and runs it region
// by region ahead of the walker, which meanwhile warms and times the region
// before. Each region crosses a ring of slots in order: its window's records
// in stretches the window kernel logged (the lead before it runs through Skip
// and crosses as nothing), which the method observes as they come
// (ObserveWindow: forward applies them, reverse logs them and scans the log
// at EndSkip, as in place); then its hot phase's batches from RunBatch — or
// the error that ended its cold phase. Results are byte-identical to
// observing in place by the Method contract, and nothing selects this feed
// but the shard count.

// aheadSlots is the ring's size: enough batches that the producer finishes a
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

// aheadSlot is one hand-off: a stretch of a window (win.Seen > 0), a batch of
// a hot phase (the region's last one flagged, a fault after its records in
// err), or, with neither, the error that ended a cold phase.
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

// aheadFeed is the walker's end of the run-ahead feed.
type aheadFeed struct {
	opts    *Options
	ro      *runObs
	slots   []*aheadSlot    // the ring, kept in spareSlots by stop
	full    chan *aheadSlot // producer → walker, in order; both sized to the
	free    chan *aheadSlot // ring (walker → producer), so no send waits for room
	emptied []*aheadSlot    // freed by the walker, not yet handed back
	done    chan struct{}   // closed when the walker leaves
	exited  chan struct{}   // closed when the producer has returned

	pos     uint64     // where the functional simulator stands after the region before
	cur     *aheadSlot // the hot batch being timed
	fresh   bool       // cur, the hot phase's first batch, is not delivered yet
	failure error
	t0      time.Time // start of the current region's cold phase
}

func newAheadFeed(p *prog.Program, regions []Region, method warmup.Method, opts *Options, ro *runObs) *aheadFeed {
	f := &aheadFeed{
		opts: opts, ro: ro, done: make(chan struct{}), exited: make(chan struct{}),
		full: make(chan *aheadSlot, aheadSlots), free: make(chan *aheadSlot, aheadSlots),
	}
	spareSlots.Lock()
	k := max(0, len(spareSlots.slots)-aheadSlots)
	f.slots, spareSlots.slots = append(f.slots, spareSlots.slots[k:]...), spareSlots.slots[:k]
	spareSlots.Unlock()
	for len(f.slots) < aheadSlots {
		f.slots = append(f.slots, newAheadSlot())
	}
	for _, s := range f.slots {
		f.free <- s
	}
	go f.produce(funcsim.New(p), regions, method)
	return f
}

// stop winds the producer down and, once it has returned, keeps the ring for
// the next run: nothing reads a slot after RunRegions returns.
func (f *aheadFeed) stop() {
	close(f.done)
	<-f.exited
	for _, s := range f.slots {
		s.err = nil
	}
	spareSlots.Lock()
	spareSlots.slots = append(spareSlots.slots, f.slots...)
	spareSlots.Unlock()
}

func (f *aheadFeed) stopped() bool {
	select {
	case <-f.done:
		return true
	default:
		return f.opts.Canceled()
	}
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

// recv takes the next slot for the walker. Before it waits it hands back
// every emptied slot, which the producer may be waiting for.
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

// produce is the producer goroutine: the whole run's functional execution.
// A slot is the walker's once sent, so nothing is read from it afterwards.
func (f *aheadFeed) produce(fs *funcsim.Sim, regions []Region, method warmup.Method) {
	defer close(f.exited)
	var h handoff
	for _, reg := range regions {
		lead, w := method.NewWindow(reg.Start - fs.Seq())
		h = handoff{f: f, lead: lead, w: w}
		_, err := coldSkip(fs, reg.Start-fs.Seq(), &h, f.stopped)
		h.flush()
		if errors.Is(err, ErrCanceled) {
			return
		}
		if err != nil {
			s := f.get()
			s.win.Seen, s.recs, s.last, s.err = 0, s.recs[:0], false, err
			f.send(s)
			return
		}
		for n := uint64(0); n < reg.Size; {
			s := f.get()
			b := s.recs[:cap(s.recs)][:min(reg.Size-n, funcsim.BatchSize)]
			k, err := fs.RunBatch(b)
			n += uint64(k)
			last := err != nil || k < len(b) || n == reg.Size
			s.win.Seen, s.recs, s.last, s.err = 0, b[:k], last, err
			f.send(s)
			if err != nil || !last && f.stopped() {
				return
			}
			if last {
				break
			}
		}
	}
}

// handoff is the producer's skipObserver for one region: the window kernel
// logs into one slot after another, each handed to the walker once it holds
// handoffInstrs instructions or is full, the fetch-line state carried from
// each to the next in w.
type handoff struct {
	f    *aheadFeed
	lead uint64
	w    trace.Window
	s    *aheadSlot
}

func (h *handoff) SkipLead() uint64 { return h.lead }

func (h *handoff) Window() *trace.Window {
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

// next returns the region's cold length: the producer runs to its start.
func (f *aheadFeed) next(_ int, r Region) (uint64, error) {
	f.t0 = f.ro.begin()
	cold := r.Start - f.pos
	f.pos = r.Start
	return cold, nil
}

// ingest has the method observe the window's stretches as they come, up to
// the hot phase's first batch.
func (f *aheadFeed) ingest(ci int, method warmup.Method, cold uint64) (uint64, error) {
	for {
		s, err := f.recv()
		if err != nil {
			return 0, err
		}
		if s.win.Seen == 0 {
			if s.err != nil && !s.last {
				return 0, s.err
			}
			f.cur, f.fresh = s, true
			break
		}
		method.ObserveWindow(&s.win)
		f.put(s)
	}
	f.ro.coldDone(f.t0, ci, cold, method.Work())
	return cold, nil
}

func (f *aheadFeed) Fill(max uint64) []trace.DynInst {
	if f.failure != nil || f.cur == nil || f.cur.last && !f.fresh {
		return nil
	}
	if f.opts.Canceled() {
		f.failure = ErrCanceled
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

func (f *aheadFeed) err() error { return f.failure }

// release hands the region's last hot batch back.
func (f *aheadFeed) release() {
	if f.cur != nil {
		f.put(f.cur)
		f.cur = nil
	}
}
