package sampling

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"rsr/internal/funcsim"
	"rsr/internal/prog"
	"rsr/internal/trace"
	"rsr/internal/warmup"
)

// The run-ahead feed is the walker's one feed. Functional execution reads
// nothing that warm-up or timing computes, so producer goroutines own the
// run's functional simulators and run them region by region ahead of the
// walker, which meanwhile warms and times the region before. Each region
// crosses its producer's ring of slots in order: its window's records in
// stretches the window kernel logged (the lead before it runs through Skip
// and crosses as nothing), which the method observes as they come
// (ObserveWindow: forward applies them, reverse logs them and scans the log
// at EndSkip, as in place); then its hot phase's batches from RunBatch — or
// the error that ended its cold phase. Results are byte-identical to
// observing in place by the Method contract.
//
// At Shards ≤ 1 one producer executes the whole run. At Shards k > 1 the
// regions split into k contiguous ranges with a producer and a ring each: a
// checkpoint pre-pass (prepass) runs the workload without records to the
// start of every range after the first and seeds that range's producer with
// the architectural state there, so the producers execute their ranges at
// once, and the walker reads each region from its range's ring. Given a trace
// store that holds its placement's functional trace (Trace), one producer
// sends the same stretches and batches from the trace instead of executing,
// whatever the shard count: a replay executes nothing to spread.

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

// shardCount clamps the requested shard count to the cluster count: a range
// with no regions would idle, and one cluster cannot split.
func shardCount(requested, clusters int) int {
	return max(1, min(requested, clusters))
}

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
// run would otherwise allocate its rings afresh, more than many a short run
// allocates for everything else. It is not a sync.Pool, which drops what it
// holds at every second collection.
var spareSlots struct {
	sync.Mutex
	slots []*aheadSlot
}

// ring is one producer's hand-off to the walker.
type ring struct {
	slots   []*aheadSlot    // kept in spareSlots by stop
	full    chan *aheadSlot // producer → walker, in order; both sized to the
	free    chan *aheadSlot // ring (walker → producer), so no send waits for room
	emptied []*aheadSlot    // freed by the walker, not yet handed back
}

// newRing fills a ring with slots, spare ones first.
func newRing(spare *[]*aheadSlot) *ring {
	r := &ring{full: make(chan *aheadSlot, aheadSlots), free: make(chan *aheadSlot, aheadSlots)}
	for range aheadSlots {
		var s *aheadSlot
		if n := len(*spare); n > 0 {
			s, *spare = (*spare)[n-1], (*spare)[:n-1]
		} else {
			s = newAheadSlot()
		}
		r.slots = append(r.slots, s)
		r.free <- s
	}
	return r
}

// put hands an emptied slot back, half a ring at a time; handBack, all.
func (r *ring) put(s *aheadSlot) {
	if r.emptied = append(r.emptied, s); len(r.emptied) >= aheadSlots/2 {
		r.handBack()
	}
}

func (r *ring) handBack() {
	for _, s := range r.emptied {
		r.free <- s
	}
	r.emptied = r.emptied[:0]
}

// aheadFeed is the walker's end of the run-ahead feed.
type aheadFeed struct {
	opts   *Options
	ro     *runObs
	rings  []*ring
	firsts []int          // ring s carries regions firsts[s] to firsts[s+1]
	done   chan struct{}  // closed when the walker leaves
	wg     sync.WaitGroup // the producers and the pre-pass
	replay *Trace         // the trace this run replays, if any

	ri      int        // the current region's ring
	pos     uint64     // where the functional simulator stands after the region before
	cur     *aheadSlot // the hot batch being timed
	fresh   bool       // cur, the hot phase's first batch, is not delivered yet
	failure error
	t0      time.Time // start of the current region's cold phase
}

// newAheadFeed starts shards producers over regions — one, replaying it, if
// replay is not nil.
func newAheadFeed(p *prog.Program, regions []Region, method warmup.Method, shards int, replay *Trace, opts *Options, ro *runObs) *aheadFeed {
	f := &aheadFeed{opts: opts, ro: ro, done: make(chan struct{}), replay: replay}
	for s := range shards + 1 {
		f.firsts = append(f.firsts, s*len(regions)/shards)
	}
	spareSlots.Lock()
	k := max(0, len(spareSlots.slots)-shards*aheadSlots)
	spare := slices.Clone(spareSlots.slots[k:])
	spareSlots.slots = spareSlots.slots[:k]
	spareSlots.Unlock()
	for range shards {
		f.rings = append(f.rings, newRing(&spare))
	}
	var seeds []chan []*funcsim.Delta
	if shards > 1 {
		for range shards {
			seeds = append(seeds, make(chan []*funcsim.Delta, 1))
		}
		f.wg.Add(1)
		go f.prepass(p, regions, seeds)
	}
	f.wg.Add(shards)
	for s := range shards {
		go f.produce(s, p, regions, method, seeds)
	}
	return f
}

// stop winds the producers and the pre-pass down and, once they have
// returned, keeps the rings for the next run: nothing reads a slot after
// RunRegions returns.
func (f *aheadFeed) stop() {
	close(f.done)
	f.wg.Wait()
	spareSlots.Lock()
	defer spareSlots.Unlock()
	for _, r := range f.rings {
		for _, s := range r.slots {
			s.err = nil
		}
		spareSlots.slots = append(spareSlots.slots, r.slots...)
	}
}

func (f *aheadFeed) stopped() bool {
	select {
	case <-f.done:
		return true
	default:
		return f.opts.Canceled()
	}
}

// get takes an empty slot of r for its producer. After the walker has left,
// when nothing reads a slot any more, it lends any, so that the producer —
// which holds one at a time — runs on to its next poll and returns there.
func (f *aheadFeed) get(r *ring) *aheadSlot {
	select {
	case s := <-r.free:
		return s
	case <-f.done:
		return r.slots[0]
	}
}

func (f *aheadFeed) send(r *ring, s *aheadSlot) {
	select {
	case r.full <- s:
	case <-f.done:
	}
}

// recv takes the current region's next slot for the walker. Before it waits
// it hands back every emptied slot, which the producer may be waiting for.
func (f *aheadFeed) recv() (*aheadSlot, error) {
	r := f.rings[f.ri]
	select {
	case s := <-r.full:
		return s, nil
	default:
	}
	r.handBack()
	t0 := f.ro.begin()
	select {
	case s := <-r.full:
		f.ro.blocked(t0)
		return s, nil
	case <-f.opts.Cancel: // nil channel blocks; the producer always sends
		return nil, ErrCanceled
	}
}

// produce is producer s: the functional execution of its range of regions
// from the state its seed gives, or the replay of the whole run. A slot is
// the walker's once sent, so nothing is read from it afterwards.
func (f *aheadFeed) produce(s int, p *prog.Program, regions []Region, method warmup.Method, seeds []chan []*funcsim.Delta) {
	defer f.wg.Done()
	r := f.rings[s]
	var fs *funcsim.Sim // nil for a replay, which executes nothing
	if f.replay == nil {
		fs = funcsim.New(p)
	}
	if s > 0 {
		select {
		case chain := <-seeds[s]:
			for _, d := range chain {
				fs.ApplyDelta(d)
			}
		case <-f.done:
			return
		}
	}
	var st *shardTrace // a sharded run's producer times its cold phases
	if f.ro != nil && f.ro.parallel {
		st = newShardTrace(f.ro.tr, "shard")
	}
	h := handoff{f: f, r: r}
	for i := f.firsts[s]; i < f.firsts[s+1]; i++ {
		reg := regions[i]
		var part *tracePart
		var err error
		if f.replay != nil {
			part = f.replay.parts[i]
		} else {
			cold := reg.Start - fs.Seq()
			h.lead, h.w = method.NewWindow(cold)
			t0 := time.Now()
			var ran uint64
			ran, err = coldSkip(fs, cold, &h)
			h.flush()
			if st != nil {
				f.ro.producerCold(st, t0, i, s, ran)
			}
		}
		if errors.Is(err, ErrCanceled) {
			return
		}
		if err != nil {
			sl := f.get(r)
			sl.win.Seen, sl.recs, sl.last, sl.err = 0, sl.recs[:0], false, err
			f.send(r, sl)
			return
		}
		if f.replay != nil && !f.sendWindow(r, part, method) || !f.hot(r, fs, reg.Size, part) {
			return
		}
	}
}

// hot sends a hot phase of size instructions in batches, executed on fs or
// copied from a replayed part. It reports whether the run goes on.
func (f *aheadFeed) hot(r *ring, fs *funcsim.Sim, size uint64, part *tracePart) bool {
	for n := uint64(0); n < size; {
		s := f.get(r)
		b := s.recs[:cap(s.recs)][:min(size-n, funcsim.BatchSize)]
		var k int
		var err error
		if f.replay != nil {
			k = copy(b, part.hot[n:])
		} else {
			k, err = fs.RunBatch(b)
		}
		n += uint64(k)
		last := err != nil || k < len(b) || n == size
		s.win.Seen, s.recs, s.last, s.err = 0, b[:k], last, err
		f.send(r, s)
		if err != nil || !last && f.stopped() {
			return false
		}
		if last {
			break
		}
	}
	return true
}

// handoff is what a producer observes a region's cold phase through: the
// window kernel logs into one slot after another, each handed to the walker
// once it holds handoffInstrs instructions or is full, the fetch-line state
// carried from each to the next in w. lead is how many of the phase's
// instructions pass before the window.
type handoff struct {
	f    *aheadFeed
	r    *ring
	lead uint64
	w    trace.Window
	s    *aheadSlot
}

func (h *handoff) window() *trace.Window {
	if h.s != nil && (h.s.win.Seen >= handoffInstrs || h.s.win.Full()) {
		h.flush()
	}
	if h.s == nil {
		h.s = h.f.get(h.r)
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
		h.f.send(h.r, h.s)
	}
	h.s = nil
}

// coldSkip executes n instructions on fs in batches of at most
// funcsim.BatchSize, polling for a stop between batches: the cold phase of a
// region. The lead before h's window runs through funcsim.Skip, which logs
// nothing, the rest through the window kernel into h's slots. It returns how
// far it got; a fault, a workload that halts short of n, and a stop
// (ErrCanceled) are errors.
func coldSkip(fs *funcsim.Sim, n uint64, h *handoff) (uint64, error) {
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
			return ran, fmt.Errorf("sampling: cold phase: %w", err)
		}
		if fs.Halted() {
			break
		}
		if h.f.stopped() {
			return ran, ErrCanceled
		}
	}
	if ran != n {
		return ran, fmt.Errorf("sampling: workload halted after %d skipped instructions", ran)
	}
	return ran, nil
}

// next makes region ci current and returns the length of its cold phase,
// which depends on where the region before ended: its producer runs to its
// start.
func (f *aheadFeed) next(ci int, r Region) uint64 {
	f.t0 = f.ro.begin()
	for ci >= f.firsts[f.ri+1] {
		f.ri++
	}
	cold := r.Start - f.pos
	f.pos = r.Start
	return cold
}

// ingest has the method observe the window's stretches as they come, up to
// the hot phase's first batch, between the walker's BeginSkip and EndSkip,
// and returns how many instructions were skipped.
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
		f.rings[f.ri].put(s)
	}
	f.ro.coldDone(f.t0, ci, cold, method.Work())
	return cold, nil
}

// Fill delivers the current region's hot batches, never running past the
// region's end: the feed is the timing model's ooo.Source.
func (f *aheadFeed) Fill(max uint64) []trace.DynInst {
	if f.failure != nil || f.cur == nil || f.cur.last && !f.fresh {
		return nil
	}
	if f.opts.Canceled() {
		f.failure = ErrCanceled
		return nil
	}
	if !f.fresh {
		f.rings[f.ri].put(f.cur)
		s, err := f.recv()
		if f.cur, f.failure = s, err; err != nil {
			return nil
		}
	}
	f.fresh, f.failure = false, f.cur.err
	f.pos += uint64(len(f.cur.recs))
	return f.cur.recs
}

// err is the failure that ended the hot phase early, if any.
func (f *aheadFeed) err() error { return f.failure }

// release hands the region's last hot batch back: nothing of the region is
// read afterwards.
func (f *aheadFeed) release() {
	if f.cur != nil {
		f.rings[f.ri].put(f.cur)
		f.cur = nil
	}
}
