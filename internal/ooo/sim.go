package ooo

import (
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

// entry is one in-flight instruction. A fetch-queue slot carries only what
// fetch knows (d, class, fetchReady, mispred); dispatch stores every other
// field when it moves the instruction into its ROB slot. Slots are recycled
// and never zeroed, so a field read in a ring needs a store on that path.
type entry struct {
	d          trace.DynInst
	class      isa.Class
	fetchReady uint64 // cycle the instruction left fetch
	doneCycle  uint64
	dep1, dep2 uint64 // producing seq + 1; 0 = none
	// waitStore is the seq+1 of the un-issued older store currently blocking
	// this load's disambiguation (0 = none); it lets blocked loads recheck
	// in O(1) instead of rescanning the window every cycle.
	waitStore uint64
	issued    bool
	done      bool
	mispred   bool
	inLSQ     bool
}

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

	// Reorder buffer as a ring; rob[0]'s seq is headSeq.
	rob     []entry
	head    int
	count   int
	headSeq uint64

	// Issue queue: ring positions of dispatched, un-issued entries.
	iq []int

	// Fetch queue: fetched, not yet in ROB.
	fq      []entry
	fqHead  int
	fqCount int

	lastWriter [isa.NumRegs]uint64 // seq+1 of the newest producer
	lsqCount   int

	unresolved     int      // in-flight unresolved branches
	resolves       []uint64 // ring of pending resolution cycles (nondecreasing)
	resHead        int
	resCount       int
	fetchResumeAt  uint64
	blockedOnSeq   uint64 // seq+1 of the mispredicted branch blocking fetch
	lastFetchLine  uint64
	haveFetchLine  bool
	retiredSeqPlus uint64 // seq+1 of the last retired instruction

	// Batched instruction feed for the current SimulateSource call: fetch
	// consumes cur record by record and refills it from src one batch at a
	// time, so the per-instruction cost is an array index instead of an
	// interface (or closure) dispatch.
	src    Source
	cur    []trace.DynInst
	curIdx int

	res Result
}

// Source supplies committed dynamic instructions to the timing model in
// batches. Fill returns the next batch, at most max records (the caller's
// remaining instruction budget — sources backed by a live functional
// simulator must not execute past it); an empty batch ends the stream. The
// returned slice is only valid until the next Fill.
type Source interface {
	Fill(max uint64) []trace.DynInst
}

// New builds a timing model over the given memory hierarchy and predictor.
func New(cfg Config, hier *mem.Hierarchy, pred bpred.Predictor) *Sim {
	hc := hier.Config()
	return &Sim{
		cfg:       cfg,
		hier:      hier,
		pred:      pred,
		lineShift: uint(bits.TrailingZeros(uint(hc.L1I.LineBytes))),
		l1Hit:     hc.L1HitCycles,
		rob:       make([]entry, cfg.ROBSize),
		iq:        make([]int, 0, cfg.IQSize),
		fq:        make([]entry, cfg.FetchQueueSize),
		resolves:  make([]uint64, cfg.ROBSize+cfg.FetchQueueSize),
	}
}

// SimulateSource retires up to n instructions fed from src and returns the
// region's timing. The stream ends early when src returns an empty batch.
// The pipeline starts and ends empty; cycle counting spans first fetch to
// last retire. A cycle in which no stage moves is followed by the next event
// (nextEvent) rather than the next cycle; the skipped cycles could have moved
// nothing either, so every result is the one stepping each cycle would give.
func (s *Sim) SimulateSource(n uint64, src Source) Result {
	s.reset()
	s.src = src
	var pulled uint64
	streamDone := false

	for {
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
			s.cycle = s.nextEvent()
		} else {
			s.cycle++
		}
	}
	s.res.Cycles = s.cycle
	s.src = nil
	s.cur = nil
	s.curIdx = 0
	return s.res
}

// nextEvent returns the first cycle after the current one at which a stage
// can move, for a cycle in which none did. Time alone changes what the stages
// read at four kinds of event: an issued instruction completes (retire reads
// the head's doneCycle, ready its producers'), the fetch-queue head clears the
// front end (dispatch), a branch resolves and frees its checkpoint, and a
// fetch stall ends (fetch). Everything else changes only when a stage moves.
// A branch resolves at its own doneCycle and cannot retire before it, so the
// ROB scan covers the third kind; a time-dependent condition added to a stage
// must add its event here.
func (s *Sim) nextEvent() uint64 {
	now := s.cycle
	next := sooner(^uint64(0), now, s.fetchResumeAt)
	if s.fqCount > 0 {
		next = sooner(next, now, s.fq[s.fqHead].fetchReady+s.cfg.FrontEndDelay)
	}
	// Dispatch stores doneCycle 0, so only issued entries are candidates.
	for k, pos := 0, s.head; k < s.count && next > now+1; k++ {
		next = sooner(next, now, s.rob[pos].doneCycle)
		pos = wrap(pos+1, len(s.rob))
	}
	if next == ^uint64(0) {
		return now + 1 // nothing pending: step, as a stalled machine would
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
// (ROB, fetch queue, resolve ring) advances by less than its length at a
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
	s.iq = s.iq[:0]
	s.fqHead, s.fqCount = 0, 0
	for i := range s.lastWriter {
		s.lastWriter[i] = 0
	}
	s.lsqCount = 0
	s.unresolved = 0
	s.resHead, s.resCount = 0, 0
	s.fetchResumeAt = 0
	s.blockedOnSeq = 0
	s.haveFetchLine = false
	s.retiredSeqPlus = 0
	s.res = Result{}
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
		if s.fqCount == len(s.fq) {
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
		// The entry is built in its fetch-queue slot, which is claimed (by
		// fqCount++) only once it is complete.
		e := &s.fq[wrap(s.fqHead+s.fqCount, len(s.fq))]
		e.d, e.class, e.fetchReady, e.mispred = *d, d.Op.Class(), s.cycle, false

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
// returns how many it moved.
func (s *Sim) dispatch() int {
	n := 0
	for ; n < s.cfg.DispatchWidth && s.fqCount > 0; n++ {
		e := &s.fq[s.fqHead]
		if e.fetchReady+s.cfg.FrontEndDelay > s.cycle {
			break
		}
		if s.count == len(s.rob) || len(s.iq) == s.cfg.IQSize {
			break
		}
		isMem := e.class == isa.ClassLoad || e.class == isa.ClassStore
		if isMem && s.lsqCount == s.cfg.LSQSize {
			break
		}

		if s.count == 0 {
			s.headSeq = e.d.Seq
			s.head = 0
		}
		// The one copy of the instruction, field by field into its ROB slot
		// (a whole-struct assignment of the 104-byte entry is a duffcopy).
		pos := wrap(s.head+s.count, len(s.rob))
		ent := &s.rob[pos]
		ent.d, ent.class, ent.mispred = e.d, e.class, e.mispred
		ent.dep1, ent.dep2 = s.depFor(e.d.Rs1), s.depFor(e.d.Rs2)
		ent.doneCycle, ent.waitStore = 0, 0
		ent.issued, ent.done, ent.inLSQ = false, false, isMem
		if writesRd(e.class) && e.d.Rd != isa.ZeroReg {
			s.lastWriter[e.d.Rd] = e.d.Seq + 1
		}
		if isMem {
			s.lsqCount++
		}
		s.count++
		s.iq = append(s.iq, pos)

		s.fqHead = wrap(s.fqHead+1, len(s.fq))
		s.fqCount--
	}
	return n
}

// depFor returns the dependence token (seq+1) for a source register.
func (s *Sim) depFor(r uint8) uint64 {
	if r == isa.ZeroReg {
		return 0
	}
	return s.lastWriter[r]
}

// ready reports whether dependence token dep is satisfied at the current
// cycle.
func (s *Sim) ready(dep uint64) bool {
	if dep == 0 || dep <= s.retiredSeqPlus {
		return true
	}
	seq := dep - 1
	if seq < s.headSeq {
		return true // retired
	}
	off := seq - s.headSeq
	if off >= uint64(s.count) {
		return false // producer not dispatched yet
	}
	p := &s.rob[wrap(s.head+int(off), len(s.rob))]
	return p.done && p.doneCycle <= s.cycle
}

// issue selects up to IssueWidth ready instructions, computes their
// completion times and returns how many it issued. The eight universal FUs
// are fully pipelined, so the issue width is the binding constraint.
func (s *Sim) issue() int {
	issued := 0
	limit := s.cfg.IssueWidth
	if s.cfg.NumFUs < limit {
		limit = s.cfg.NumFUs
	}
	for i := 0; i < len(s.iq) && issued < limit; {
		pos := s.iq[i]
		e := &s.rob[pos]
		// O(1) disambiguation recheck first: a load blocked on a known store
		// skips the dependence checks entirely.
		if e.waitStore != 0 && !s.storeIssued(e.waitStore) {
			i++
			continue
		}
		if !s.ready(e.dep1) || !s.ready(e.dep2) {
			i++
			continue
		}
		switch e.class {
		case isa.ClassLoad:
			e.waitStore = 0
			forward, avail, blocked := s.lsqScan(e)
			if blocked {
				// Conservative memory disambiguation: an older store's
				// address is still unknown.
				i++
				continue
			}
			if forward {
				done := s.cycle + 1
				if avail > done {
					done = avail
				}
				e.doneCycle = done
				s.res.Forwards++
				break
			}
			e.doneCycle = s.hier.AccessLoad(s.cycle+1, e.d.EffAddr)
		case isa.ClassStore:
			e.doneCycle = s.hier.AccessStore(s.cycle+1, e.d.EffAddr)
		default:
			e.doneCycle = s.cycle + Latency(e.class)
		}
		e.issued = true
		e.done = true
		if e.class.IsControl() {
			s.resolves[wrap(s.resHead+s.resCount, len(s.resolves))] = e.doneCycle
			s.resCount++
			if e.mispred && s.blockedOnSeq == e.d.Seq+1 {
				resume := e.doneCycle + s.cfg.BranchPenalty
				if resume > s.fetchResumeAt {
					s.fetchResumeAt = resume
				}
				s.blockedOnSeq = 0
				s.haveFetchLine = false // redirect refetches the line
			}
		}
		// Swap-remove from the issue queue.
		s.iq[i] = s.iq[len(s.iq)-1]
		s.iq = s.iq[:len(s.iq)-1]
		issued++
	}
	return issued
}

// lsqScan walks the load's older in-window entries youngest-first,
// implementing conservative disambiguation and store-to-load forwarding: the
// first older store encountered blocks the load if its address is still
// unknown (un-issued); an issued store to the same word forwards its value;
// older stores beyond a forwarding match are superseded by it.
func (s *Sim) lsqScan(e *entry) (forward bool, availCycle uint64, blocked bool) {
	word := e.d.EffAddr &^ 7
	off := int(e.d.Seq - s.headSeq)
	for k := off - 1; k >= 0; k-- {
		p := &s.rob[wrap(s.head+k, len(s.rob))]
		if p.class != isa.ClassStore {
			continue
		}
		if !p.issued {
			e.waitStore = p.d.Seq + 1
			return false, 0, true
		}
		if p.d.EffAddr&^7 == word {
			return true, p.doneCycle, false
		}
	}
	return false, 0, false
}

// storeIssued reports whether the store with dependence token tok (seq+1)
// has issued (retired stores count as issued).
func (s *Sim) storeIssued(tok uint64) bool {
	seq := tok - 1
	if seq < s.headSeq {
		return true
	}
	off := seq - s.headSeq
	if off >= uint64(s.count) {
		return true // defensive: not in the window anymore
	}
	return s.rob[wrap(s.head+int(off), len(s.rob))].issued
}

// retire commits up to RetireWidth completed instructions in order, training
// the branch predictor at retirement as the paper specifies, and returns how
// many it committed.
func (s *Sim) retire() int {
	n := 0
	for ; n < s.cfg.RetireWidth && s.count > 0; n++ {
		e := &s.rob[s.head]
		if !e.issued || !e.done || e.doneCycle > s.cycle {
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
		s.retiredSeqPlus = e.d.Seq + 1
		s.res.Instructions++
		s.head = wrap(s.head+1, len(s.rob))
		s.count--
		s.headSeq = e.d.Seq + 1
	}
	return n
}
