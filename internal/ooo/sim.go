package ooo

import (
	"errors"
	"fmt"
	"math/bits"

	"rsr/internal/bpred"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/trace"
)

// Result summarizes one timed region.
type Result struct {
	Instructions uint64
	Cycles       uint64
	Branches     uint64
	Mispredicts  uint64
	// Forwards counts loads satisfied by store-to-load forwarding in the
	// LSQ instead of a cache access.
	Forwards uint64
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// entry is one in-flight instruction. Fetch builds it in place in the ring
// slot it keeps until it retires; dispatch links it to its producers and
// enters it in the issue queue. Slots are recycled and never zeroed, so a
// field read in a ring needs a store on that path.
type entry struct {
	d          trace.DynInst
	fetchReady uint64 // cycle the instruction left fetch
	doneCycle  uint64
	// readyAt is the latest doneCycle of the producers that have issued; the
	// entry may issue from then once pending is 0.
	readyAt uint64
	class   isa.Class
	// pending counts what the entry still waits for: producers in the window
	// that have not issued, or (a load) the older store whose unknown address
	// blocks it. Each such producer holds the entry on its wake list.
	pending uint8
	issued  bool
	mispred bool
	inLSQ   bool
	// wakeHead is the first node of this entry's wake list, noLink if empty:
	// the consumers it wakes when it issues. A node is a consumer's ring
	// position times two plus which of the consumer's two links (next)
	// continues the list. A load blocked by a store waits on the store's list
	// through link 0, which its producers no longer use by then.
	wakeHead uint16
	next     [2]uint16
	iqIdx    uint16 // the entry's index in iq while it waits there
}

// noLink ends a wake list.
const noLink = ^uint16(0)

// Sim is the timing model. It persists microarchitectural state only through
// the hierarchy and predictor it is given; the pipeline itself is drained
// between clusters (the paper's architectural checkpoint copy).
type Sim struct {
	cfg  Config
	hier *mem.Hierarchy
	pred bpred.Predictor
	// Fetch-path constants of the hierarchy, read once at New: Config()
	// returns the whole HierarchyConfig by value.
	lineShift uint   // log2 of the L1I line size
	l1Hit     uint64 // L1 hit latency in cycles

	cycle uint64

	// One ring holds the reorder buffer and, behind it, the fetch queue:
	// count dispatched entries from head (the oldest's seq is headSeq), then
	// fqCount fetched ones. Dispatch moves the boundary between them.
	rob     []entry
	head    int
	count   int
	fqCount int
	headSeq uint64

	// Issue queue: ring positions of dispatched, un-issued entries, and beside
	// each the cycle it may issue from (^0 while it waits on a producer or a
	// store). Its order, dispatch order broken by swap-removes, decides which
	// ready entries win the issue width, so it is part of what defines results.
	iq   []int
	iqAt []uint64

	lastWriter [isa.NumRegs]uint64 // seq+1 of the newest producer
	lsqCount   int

	unresolved    int      // in-flight unresolved branches
	resolves      []uint64 // ring of pending resolution cycles (nondecreasing)
	resHead       int
	resCount      int
	fetchResumeAt uint64
	blockedOnSeq  uint64 // seq+1 of the mispredicted branch blocking fetch
	lastFetchLine uint64
	haveFetchLine bool

	// Batched instruction feed for the current SimulateSource call: fetch
	// consumes cur record by record and refills it from src one batch at a
	// time, so the per-instruction cost is an array index instead of an
	// interface (or closure) dispatch.
	src    Source
	cur    []trace.DynInst
	curIdx int

	res Result
	err error // why the last SimulateSource stopped short (ErrNoProgress)

	// stopper is src if it is a Stopper; poll counts loop iterations down
	// to its next poll. They come last so that no field the stages read
	// moves.
	stopper Stopper
	poll    int
}

// ErrNoProgress ends a region whose machine can never move again: a cycle in
// which no stage moved and no event is pending. A valid model never reaches
// it; a scheduler fault such as a lost wake does, and would otherwise spin.
var ErrNoProgress = errors.New("ooo: no progress")

// Source supplies committed dynamic instructions to the timing model in
// batches. Fill returns the next batch, at most max records (the caller's
// remaining instruction budget — sources backed by a live functional
// simulator must not execute past it); an empty batch ends the stream. The
// returned slice is only valid until the next Fill.
type Source interface {
	Fill(max uint64) []trace.DynInst
}

// Stopper is a Source that can end a region early. SimulateSource asks
// Stopped once every stopPoll loop iterations, so a long hot window hears a
// cancel even while it calls Fill rarely or never; a true answer ends the
// region where it stands, and the source says why.
type Stopper interface {
	Stopped() bool
}

// stopPoll is how many SimulateSource loop iterations pass between Stopped
// calls: at tens of nanoseconds an iteration, a poll every few milliseconds.
const stopPoll = 1 << 16

// New builds a timing model over the given memory hierarchy and predictor.
// cfg must pass Validate.
func New(cfg Config, hier *mem.Hierarchy, pred bpred.Predictor) *Sim {
	hc := hier.Config()
	return &Sim{
		cfg:       cfg,
		hier:      hier,
		pred:      pred,
		lineShift: uint(bits.TrailingZeros(uint(hc.L1I.LineBytes))),
		l1Hit:     hc.L1HitCycles,
		rob:       make([]entry, cfg.ROBSize+cfg.FetchQueueSize),
		iq:        make([]int, 0, cfg.IQSize),
		iqAt:      make([]uint64, 0, cfg.IQSize),
		resolves:  make([]uint64, cfg.ROBSize+cfg.FetchQueueSize),
	}
}

// SimulateSource retires up to n instructions fed from src and returns the
// region's timing. The stream ends early when src returns an empty batch.
// The pipeline starts and ends empty; cycle counting spans first fetch to
// last retire. A cycle in which no stage moves is followed by the next event
// (nextEvent) rather than the next cycle; the skipped cycles could have moved
// nothing either, so every result is the one stepping each cycle would give.
// A cycle with no next event ends the region early with ErrNoProgress (Err).
func (s *Sim) SimulateSource(n uint64, src Source) Result {
	s.reset()
	s.src = src
	var pulled uint64
	streamDone := false
	s.stopper, _ = src.(Stopper)
	s.poll = stopPoll

	for {
		if s.poll--; s.poll == 0 && s.stopped() {
			break
		}
		moved := s.retire() + s.issue() + s.dispatch()
		if !streamDone && pulled < n {
			f := s.fetch(n-pulled, &streamDone)
			pulled += f
			moved += int(f)
		}
		if s.count == 0 && s.fqCount == 0 && (streamDone || pulled >= n) {
			break
		}
		if moved == 0 {
			next := s.nextEvent()
			if next == never {
				s.err = s.noProgress()
				break
			}
			s.cycle = next
		} else {
			s.cycle++
		}
	}
	s.res.Cycles = s.cycle
	s.src, s.stopper = nil, nil
	s.cur = nil
	s.curIdx = 0
	return s.res
}

// stopped restarts the countdown to the next poll and asks the source, if it
// is a Stopper, whether to stop.
func (s *Sim) stopped() bool {
	s.poll = stopPoll
	return s.stopper != nil && s.stopper.Stopped()
}

// Err reports why the last SimulateSource ended short of its budget and its
// stream: nil, or ErrNoProgress wrapped with the cycle, the ROB head and the
// issue-queue depth at which the machine stopped.
func (s *Sim) Err() error { return s.err }

// noProgress builds the wedged region's error, off the per-cycle path.
func (s *Sim) noProgress() error {
	return fmt.Errorf("%w: cycle %d, ROB head seq %d, %d in the ROB, IQ depth %d",
		ErrNoProgress, s.cycle, s.headSeq, s.count, len(s.iq))
}

// never is nextEvent's answer when no event is pending.
const never = ^uint64(0)

// nextEvent returns the first cycle after the current one at which a stage
// can move, for a cycle in which none did, or never if there is none. Time
// alone changes what the stages read at four kinds of event: an issued
// instruction completes (retire reads the head's doneCycle, select an entry's
// readyAt, its producers' latest), the fetch-queue head clears the front end
// (dispatch), a branch resolves and frees its checkpoint, and a fetch stall
// ends (fetch). Everything else changes only when a stage moves.
// A branch resolves at its own doneCycle and cannot retire before it, so the
// ROB scan covers the third kind; a time-dependent condition added to a stage
// must add its event here.
func (s *Sim) nextEvent() uint64 {
	now := s.cycle
	next := sooner(never, now, s.fetchResumeAt)
	if s.fqCount > 0 {
		next = sooner(next, now, s.rob[wrap(s.head+s.count, len(s.rob))].fetchReady+s.cfg.FrontEndDelay)
	}
	// Dispatch stores doneCycle 0, so only issued entries are candidates.
	for k, pos := 0, s.head; k < s.count && next > now+1; k++ {
		next = sooner(next, now, s.rob[pos].doneCycle)
		pos = wrap(pos+1, len(s.rob))
	}
	return next
}

// sooner returns t if it lies after now and before next, else next.
func sooner(next, now, t uint64) uint64 {
	if t > now && t < next {
		return t
	}
	return next
}

// wrap folds a ring position in [0, 2n) back into [0, n). Every ring here
// (ROB and fetch queue, resolve ring) advances by less than its length at a
// time, so a compare and a subtract replace the hardware divide that
// `% len(ring)` costs on sizes the compiler cannot see.
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

func (s *Sim) reset() {
	s.cycle = 0
	s.hier.Drain() // region time restarts; prior in-flight traffic is gone
	s.head, s.count, s.headSeq = 0, 0, 0
	s.iq, s.iqAt = s.iq[:0], s.iqAt[:0]
	s.fqCount = 0
	for i := range s.lastWriter {
		s.lastWriter[i] = 0
	}
	s.lsqCount = 0
	s.unresolved = 0
	s.resHead, s.resCount = 0, 0
	s.fetchResumeAt = 0
	s.blockedOnSeq = 0
	s.haveFetchLine = false
	s.res = Result{}
	s.err = nil
}

// fetch pulls up to FetchWidth instructions this cycle, honouring the
// instruction cache, taken-branch fetch breaks, misprediction stalls, and
// the checkpoint limit. It returns how many instructions it consumed.
func (s *Sim) fetch(budget uint64, streamDone *bool) uint64 {
	// Release checkpoints for branches that have resolved by now.
	for s.resCount > 0 && s.resolves[s.resHead] <= s.cycle {
		s.resHead = wrap(s.resHead+1, len(s.resolves))
		s.resCount--
		s.unresolved--
	}
	if s.blockedOnSeq != 0 || s.cycle < s.fetchResumeAt {
		return 0
	}
	var fetched uint64
	for int(fetched) < s.cfg.FetchWidth && fetched < budget {
		if s.fqCount == s.cfg.FetchQueueSize {
			break // fetch queue full
		}
		if s.unresolved >= s.cfg.MaxBranches {
			break // out of checkpoints: cannot fetch past another branch
		}
		if s.curIdx == len(s.cur) {
			// Refill from the source, clamped to the instructions this region
			// may still consume so live sources never over-execute.
			s.cur = s.src.Fill(budget - fetched)
			s.curIdx = 0
			if len(s.cur) == 0 {
				*streamDone = true
				break
			}
		}
		d := &s.cur[s.curIdx]
		s.curIdx++
		// The entry is built in its ring slot, which is claimed (by
		// fqCount++) only once it is complete.
		e := &s.rob[wrap(s.head+s.count+s.fqCount, len(s.rob))]
		e.d, e.class, e.fetchReady, e.mispred = *d, d.Op.Class(), s.cycle, false
		e.doneCycle, e.readyAt, e.pending, e.issued = 0, 0, 0, false
		e.inLSQ = e.class == isa.ClassLoad || e.class == isa.ClassStore
		e.wakeHead = noLink

		// Instruction cache: access once per line crossed.
		line := d.PC >> s.lineShift
		if !s.haveFetchLine || line != s.lastFetchLine {
			done := s.hier.AccessInst(s.cycle, d.PC)
			s.lastFetchLine = line
			s.haveFetchLine = true
			if done > s.cycle+s.l1Hit {
				// Miss: this instruction arrives late; fetch stalls.
				e.fetchReady = done
				s.fetchResumeAt = done
			}
		}

		takenBreak := false
		if e.class.IsControl() {
			s.res.Branches++
			p := s.pred.Predict(d.PC, e.class)
			mispred := p.Taken != d.Taken ||
				(d.Taken && (!p.TargetKnown || p.Target != d.NextPC))
			e.mispred = mispred
			s.unresolved++
			if mispred {
				s.res.Mispredicts++
				s.blockedOnSeq = d.Seq + 1
			}
			if p.Taken || d.Taken {
				takenBreak = true
			}
		}

		s.fqCount++
		fetched++
		if e.mispred {
			break // fetch cannot proceed past an unresolved mispredict
		}
		if takenBreak {
			break // taken branch ends the fetch group
		}
		if s.unresolved >= s.cfg.MaxBranches {
			break // checkpoint limit
		}
		if s.fetchResumeAt > s.cycle {
			break // icache miss in progress
		}
	}
	return fetched
}

// dispatch moves decoded instructions into the ROB/IQ/LSQ in order and
// returns how many it moved. An entry moves by the ring's boundary; dispatch
// links it to the producers it waits for.
func (s *Sim) dispatch() int {
	n := 0
	for ; n < s.cfg.DispatchWidth && s.fqCount > 0; n++ {
		pos := wrap(s.head+s.count, len(s.rob))
		e := &s.rob[pos]
		if e.fetchReady+s.cfg.FrontEndDelay > s.cycle {
			break
		}
		if s.count == s.cfg.ROBSize || len(s.iq) == s.cfg.IQSize {
			break
		}
		if e.inLSQ && s.lsqCount == s.cfg.LSQSize {
			break
		}

		if s.count == 0 {
			s.headSeq = e.d.Seq
		}
		// lastWriter[ZeroReg] is never written: it reads as no producer.
		s.link(e, pos, 0, s.lastWriter[e.d.Rs1])
		s.link(e, pos, 1, s.lastWriter[e.d.Rs2])
		if writesRd(e.class) && e.d.Rd != isa.ZeroReg {
			s.lastWriter[e.d.Rd] = e.d.Seq + 1
		}
		if e.inLSQ {
			s.lsqCount++
		}
		e.iqIdx = uint16(len(s.iq))
		s.iq = append(s.iq, pos)
		at := e.readyAt
		if e.pending > 0 {
			at = ^uint64(0)
		}
		s.iqAt = append(s.iqAt, at)
		s.count++
		s.fqCount--
	}
	return n
}

// link makes e, at ring position pos, depend through its link k on the
// producer with dependence token dep (seq+1; 0 = none): a producer that has
// issued folds its doneCycle into e.readyAt, one still waiting takes e onto
// its wake list. A retired producer holds nothing up.
func (s *Sim) link(e *entry, pos, k int, dep uint64) {
	if dep == 0 || dep-1 < s.headSeq {
		return
	}
	p := &s.rob[wrap(s.head+int(dep-1-s.headSeq), len(s.rob))]
	if p.issued {
		e.readyAt = max(e.readyAt, p.doneCycle)
		return
	}
	e.next[k], p.wakeHead = p.wakeHead, uint16(pos<<1|k)
	e.pending++
}

// wake walks the wake list of p, which has just issued: each consumer stops
// waiting for it and, once it waits for nothing, may issue from its readyAt.
// A register consumer cannot use p's value before p's doneCycle; a load a
// store blocked needs only the store's address, known now.
func (s *Sim) wake(p *entry) {
	at := p.doneCycle
	if p.class == isa.ClassStore {
		at = 0
	}
	for n := p.wakeHead; n != noLink; {
		c := &s.rob[n>>1]
		n = c.next[n&1]
		c.readyAt = max(c.readyAt, at)
		if c.pending--; c.pending == 0 {
			s.iqAt[c.iqIdx] = c.readyAt
		}
	}
	p.wakeHead = noLink
}

// issue selects up to IssueWidth ready instructions in issue-queue order,
// computes their completion times and returns how many it issued. The eight
// universal FUs are fully pipelined, so the issue width is the binding
// constraint. The scan reads iqAt alone until it finds an entry that may
// issue.
func (s *Sim) issue() int {
	issued := 0
	limit := min(s.cfg.IssueWidth, s.cfg.NumFUs)
	for i := 0; i < len(s.iq) && issued < limit; {
		if s.iqAt[i] > s.cycle {
			i++
			continue
		}
		pos := s.iq[i]
		e := &s.rob[pos]
		if st := s.execute(e); st != nil {
			// Conservative memory disambiguation: the load waits for the
			// older store whose address is still unknown.
			e.next[0], st.wakeHead = st.wakeHead, uint16(pos<<1)
			e.pending = 1
			s.iqAt[i] = ^uint64(0)
			i++
			continue
		}
		s.wake(e)
		// Swap-remove from the issue queue.
		last := len(s.iq) - 1
		s.iq[i], s.iqAt[i] = s.iq[last], s.iqAt[last]
		s.rob[s.iq[i]].iqIdx = uint16(i)
		s.iq, s.iqAt = s.iq[:last], s.iqAt[:last]
		issued++
	}
	return issued
}

// execute issues e, whose producers are all done: it computes its completion
// cycle and, for a branch, its resolution. A load that an older store with an
// unknown address blocks does not issue; execute returns that store.
func (s *Sim) execute(e *entry) *entry {
	switch e.class {
	case isa.ClassLoad:
		forward, avail, blocker := s.lsqScan(e)
		if blocker != nil {
			return blocker
		}
		if forward {
			e.doneCycle = max(s.cycle+1, avail)
			s.res.Forwards++
		} else {
			e.doneCycle = s.hier.AccessLoad(s.cycle+1, e.d.EffAddr)
		}
	case isa.ClassStore:
		e.doneCycle = s.hier.AccessStore(s.cycle+1, e.d.EffAddr)
	default:
		e.doneCycle = s.cycle + Latency(e.class)
	}
	e.issued = true
	if e.class.IsControl() {
		s.resolves[wrap(s.resHead+s.resCount, len(s.resolves))] = e.doneCycle
		s.resCount++
		if e.mispred && s.blockedOnSeq == e.d.Seq+1 {
			s.fetchResumeAt = max(s.fetchResumeAt, e.doneCycle+s.cfg.BranchPenalty)
			s.blockedOnSeq = 0
			s.haveFetchLine = false // redirect refetches the line
		}
	}
	return nil
}

// lsqScan walks the load's older in-window entries youngest-first,
// implementing conservative disambiguation and store-to-load forwarding: the
// first older store encountered blocks the load if its address is still
// unknown (un-issued; it is returned); an issued store to the same word
// forwards its value; older stores beyond a forwarding match are superseded
// by it.
func (s *Sim) lsqScan(e *entry) (forward bool, availCycle uint64, blocker *entry) {
	word := e.d.EffAddr &^ 7
	off := int(e.d.Seq - s.headSeq)
	for k := off - 1; k >= 0; k-- {
		p := &s.rob[wrap(s.head+k, len(s.rob))]
		if p.class != isa.ClassStore {
			continue
		}
		if !p.issued {
			return false, 0, p
		}
		if p.d.EffAddr&^7 == word {
			return true, p.doneCycle, nil
		}
	}
	return false, 0, nil
}

// retire commits up to RetireWidth completed instructions in order, training
// the branch predictor at retirement as the paper specifies, and returns how
// many it committed.
func (s *Sim) retire() int {
	n := 0
	for ; n < s.cfg.RetireWidth && s.count > 0; n++ {
		e := &s.rob[s.head]
		if !e.issued || e.doneCycle > s.cycle {
			break
		}
		if e.class.IsControl() {
			s.pred.Update(trace.BranchRecord{
				PC: e.d.PC, NextPC: e.d.NextPC, Taken: e.d.Taken, Class: e.class,
			})
		}
		if e.inLSQ {
			s.lsqCount--
		}
		s.res.Instructions++
		s.head = wrap(s.head+1, len(s.rob))
		s.count--
		s.headSeq = e.d.Seq + 1
	}
	return n
}
