package ooo

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"rsr/internal/bpred"
	"rsr/internal/funcsim"
	"rsr/internal/isa"
	"rsr/internal/mem"
	"rsr/internal/trace"
	"rsr/internal/workload"
)

// simulateEveryCycle is SimulateSource's loop advancing one cycle per
// iteration, idle or not, with the polling scheduler the wake lists replaced:
// the reference the event-skipping, producer-driven loop must match on every
// result, statistic and trained structure.
func (s *Sim) simulateEveryCycle(n uint64, src Source) Result {
	s.reset()
	s.src = src
	o := newPolling(len(s.rob))
	var pulled uint64
	streamDone := false

	for {
		s.retire()
		s.issuePolling(o)
		o.dispatch(s)
		if !streamDone && pulled < n {
			pulled += s.fetch(n-pulled, &streamDone)
		}
		if s.count == 0 && s.fqCount == 0 && (streamDone || pulled >= n) {
			break
		}
		s.cycle++
	}
	s.res.Cycles = s.cycle
	s.src = nil
	s.cur = nil
	s.curIdx = 0
	return s.res
}

// polling is the oracle's scheduler state: dependence tokens (producer seq +
// 1; 0 = none) by ring position, assigned by a shadow of dispatch's register
// map, and the token of the store a load last found blocking it.
type polling struct {
	lastWriter       [isa.NumRegs]uint64
	dep1, dep2, wait []uint64
}

func newPolling(ring int) *polling {
	return &polling{dep1: make([]uint64, ring), dep2: make([]uint64, ring), wait: make([]uint64, ring)}
}

// dispatch runs the model's dispatch and gives each entry it moved its
// dependence tokens.
func (o *polling) dispatch(s *Sim) {
	before := s.count
	s.dispatch()
	for k := before; k < s.count; k++ {
		pos := wrap(s.head+k, len(s.rob))
		d := &s.rob[pos].d
		o.dep1[pos], o.dep2[pos], o.wait[pos] = o.lastWriter[d.Rs1], o.lastWriter[d.Rs2], 0
		if writesRd(s.rob[pos].class) && d.Rd != isa.ZeroReg {
			o.lastWriter[d.Rd] = d.Seq + 1
		}
	}
}

// ready reports whether dependence token dep is satisfied at the current
// cycle.
func (s *Sim) ready(dep uint64) bool {
	if dep == 0 {
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
	return p.issued && p.doneCycle <= s.cycle
}

// storeIssued reports whether the store with dependence token tok has issued
// (retired stores count as issued).
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

// issuePolling is issue as it was before wake lists: every cycle it scans the
// whole issue queue in order and re-derives each entry's readiness from its
// producers' ROB slots.
func (s *Sim) issuePolling(o *polling) int {
	issued := 0
	limit := min(s.cfg.IssueWidth, s.cfg.NumFUs)
	for i := 0; i < len(s.iq) && issued < limit; {
		pos := s.iq[i]
		if o.wait[pos] != 0 && !s.storeIssued(o.wait[pos]) {
			i++
			continue
		}
		if !s.ready(o.dep1[pos]) || !s.ready(o.dep2[pos]) {
			i++
			continue
		}
		o.wait[pos] = 0
		if st := s.execute(&s.rob[pos]); st != nil {
			o.wait[pos] = st.d.Seq + 1
			i++
			continue
		}
		last := len(s.iq) - 1
		s.iq[i], s.iqAt[i] = s.iq[last], s.iqAt[last]
		s.iq, s.iqAt = s.iq[:last], s.iqAt[:last]
		issued++
	}
	return issued
}

// loopOutcome is everything a run leaves behind that the two loops must
// agree on: each region's Result, the caches' and buses' statistics, the
// predictor's update counts, and the full cache and predictor contents.
type loopOutcome struct {
	Results []Result
	Caches  [3]mem.Stats
	Buses   [2]mem.BusStats
	Updates bpred.UpdateCounts
	Hier    mem.HierarchyState
	Pred    bpred.UnitState
	Err     error // the Sim.Err that ended a region early, if any
}

// runLoop times the given regions back to back on one Sim over a fresh
// default hierarchy and predictor, fed from one source, with loop.
func runLoop(cfg Config, regions []uint64, src Source, loop func(*Sim, uint64, Source) Result) loopOutcome {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	u := bpred.NewUnit(bpred.DefaultConfig())
	sim := New(cfg, h, u)
	var out loopOutcome
	for _, n := range regions {
		out.Results = append(out.Results, loop(sim, n, src))
		if out.Err = sim.Err(); out.Err != nil {
			break
		}
	}
	out.Caches = [3]mem.Stats{h.L1I.Stats(), h.L1D.Stats(), h.L2.Stats()}
	out.Buses = [2]mem.BusStats{h.L1Bus.Stats(), h.MemBus.Stats()}
	out.Updates = u.UpdateCounts()
	out.Hier = h.State()
	out.Pred = u.State()
	return out
}

// checkLoops runs the regions under SimulateSource and under
// simulateEveryCycle, each on its own source from mkSrc, and fails on any
// difference.
func checkLoops(t *testing.T, label string, cfg Config, regions []uint64, mkSrc func() Source) {
	t.Helper()
	got := runLoop(cfg, regions, mkSrc(), (*Sim).SimulateSource)
	if got.Err != nil {
		t.Errorf("%s (cfg %+v): %v", label, cfg, got.Err)
		return
	}
	want := runLoop(cfg, regions, mkSrc(), (*Sim).simulateEveryCycle)
	if reflect.DeepEqual(got, want) {
		return
	}
	t.Errorf("%s (cfg %+v): event-skipping, producer-driven loop differs from the every-cycle polling loop\n"+
		" results %v\n    want %v\n caches equal %v, buses equal %v, updates equal %v, cache contents equal %v, predictor equal %v",
		label, cfg, got.Results, want.Results, got.Caches == want.Caches, got.Buses == want.Buses,
		got.Updates == want.Updates, reflect.DeepEqual(got.Hier, want.Hier), reflect.DeepEqual(got.Pred, want.Pred))
}

// sliceSource feeds a fixed stream in batches of at most batch records.
type sliceSource struct {
	insts []trace.DynInst
	batch int
}

func (s *sliceSource) Fill(max uint64) []trace.DynInst {
	k := min(uint64(s.batch), max, uint64(len(s.insts)))
	out := s.insts[:k]
	s.insts = s.insts[k:]
	return out
}

// TestSimulateMatchesEveryCycle holds the event-skipping loop with wake-list
// scheduling to the one-cycle polling reference on three kinds of input:
// goldenRegions' scenario on every workload under both golden
// configurations; TestFuzzRandomStreams' forty shrunk configurations, whose
// draws reach BranchPenalty and FrontEndDelay 0 (where the next event is the
// very next cycle), through the single-record feed; and the same streams
// split into two regions and fed in batches.
func TestSimulateMatchesEveryCycle(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"odd", oddConfig()}} {
		for _, name := range workload.Names() {
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p := w.Build()
			var srcs []*batchSource
			checkLoops(t, c.name+"/"+name, c.cfg, []uint64{20_000, 20_000, 20_000}, func() Source {
				fs := funcsim.New(p)
				if n, err := fs.Skip(100_000); err != nil || n != 100_000 {
					t.Fatalf("%s: skipped %d, %v", name, n, err)
				}
				src := &batchSource{fs: fs, buf: make([]trace.DynInst, funcsim.BatchSize)}
				srcs = append(srcs, src)
				return src
			})
			for _, src := range srcs {
				if src.err != nil {
					t.Fatalf("%s: %v", name, src.err)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		cfg, stream := randomCase(rng)
		n := uint64(len(stream))
		checkLoops(t, "single-record", cfg, []uint64{n}, func() Source {
			return &funcSource{next: streamOf(stream)}
		})
		checkLoops(t, "batched", cfg, []uint64{n / 3, n - n/3}, func() Source {
			return &sliceSource{insts: stream, batch: 1 + trial%64}
		})
	}
}

// fuzzCase turns fuzz input into a machine, a stream and a feed: the first
// sixteen bytes size every structure and width over the ranges randomCase
// draws from, the stream's length, where it splits into two regions and the
// feed's batch size; the rest seed randomStream.
func fuzzCase(data []byte) (Config, []trace.DynInst, []uint64, int) {
	var b [16]byte
	copy(b[:], data)
	cfg := DefaultConfig()
	cfg.ROBSize = 2 + int(b[0])%63
	cfg.IQSize = 1 + int(b[1])%cfg.ROBSize
	cfg.LSQSize = 1 + int(b[2])%cfg.ROBSize
	cfg.FetchWidth = 1 + int(b[3])%8
	cfg.DispatchWidth = 1 + int(b[4])%8
	cfg.IssueWidth = 1 + int(b[5])%4
	cfg.RetireWidth = 1 + int(b[6])%4
	cfg.NumFUs = 1 + int(b[7])%8
	cfg.MaxBranches = 1 + int(b[8])%8
	cfg.FetchQueueSize = 1 + int(b[9])%16
	cfg.BranchPenalty = uint64(b[10]) % 20
	cfg.FrontEndDelay = uint64(b[11]) % 6
	n := 1 + uint64(binary.LittleEndian.Uint16(b[12:]))%3000
	split := n * uint64(b[14]) / 255
	batch := 1 + int(b[15])%64

	h := fnv.New64a()
	if len(data) > len(b) {
		h.Write(data[len(b):])
	}
	stream := randomStream(rand.New(rand.NewSource(int64(h.Sum64()))), int(n))
	return cfg, stream, []uint64{split, n - split}, batch
}

// FuzzSimulateMatchesEveryCycle holds the event-skipping loop with wake-list
// scheduling to the one-cycle polling reference on generated machines and
// streams.
func FuzzSimulateMatchesEveryCycle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{62, 31, 63, 7, 7, 3, 3, 7, 7, 15, 5, 3, 0xb8, 0x0b, 128, 63, 'r', 's', 'r'})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, stream, regions, batch := fuzzCase(data)
		checkLoops(t, "fuzz", cfg, regions, func() Source {
			return &sliceSource{insts: stream, batch: batch}
		})
	})
}
