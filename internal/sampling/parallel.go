// Parallel cluster simulation: the RSR observation that between-cluster
// state is reconstructible from region-local logs makes the expensive parts
// of a sampled run — cold functional execution, skip-log capture, and the
// reverse scan that plans reconstruction — independent per cluster.
// The sharded feed fans those parts out over shard goroutines seeded from
// architectural checkpoints; each producer also seals its capture, running
// the backward scan over its private log and materializing a warm-apply
// plan. Only what genuinely touches shared microarchitectural state —
// applying the plan and detailed simulation — runs on the single consumer,
// the region walker (RunRegions), in strict cluster order, with an ordered
// prefetcher keeping the next region staged so the walker's only idle time
// is true starvation (and is measured as such). Results are byte-identical
// to the sequential feed by construction; see DESIGN.md "Parallel cluster
// simulation" for the determinism argument and for why the consumer's
// remaining work cannot overlap itself.

package sampling

import (
	"errors"
	"fmt"
	"time"

	"rsr/internal/funcsim"
	"rsr/internal/obs"
	"rsr/internal/prog"
	"rsr/internal/trace"
	"rsr/internal/warmup"
)

// shardCount clamps the requested shard count to the cluster count: a shard
// with no regions would idle, and one cluster cannot split.
func shardCount(requested, clusters int) int {
	return max(1, min(requested, clusters))
}

// shardWindow bounds how many produced-but-unconsumed regions each shard
// may hold. A region product carries the region's skip log and the
// materialized hot instruction records, so the window is what keeps peak
// memory at O(shards × window × region product) instead of O(clusters).
const shardWindow = 8

// inFlight bounds how many region products, and how many of the method's
// region captures, exist at once. Per shard: the window and the one its
// producer is filling. On the consumer side: the product the prefetcher
// holds, the one it has staged, the one being simulated — and one capture
// more than products, the reverse method's previous region, whose log the
// predictor reads until the next BeginSkip. That is shards×(window+1)+4,
// which shards×(window+3) covers from two shards up. The product free list
// is this long, so it never turns a product away.
func inFlight(shards int) int { return shards * (shardWindow + 3) }

// prepassChunk is the cancellation-poll granularity of the checkpoint
// pre-pass (pure functional skipping at full interpreter speed).
const prepassChunk = 1 << 16

// regionProduct is everything a shard precomputes for one cluster region:
// the cold-phase observation capture, the region's actual geometry, and the
// materialized instruction records the consumer replays through the timing
// model for the hot phase.
//
// Products are recycled through a per-run free list with their records slab.
// The consumer returns one once the region's hot phase has retired — the
// timing model holds no reference to a source's records after SimulateSource
// returns. The capture is not the product's to recycle: AdoptRegion hands it
// to the method, which knows when its log is dead.
type regionProduct struct {
	cold    uint64 // cold-phase length from the region's actual geometry
	coldRan uint64 // instructions actually cold-skipped
	coldDur time.Duration
	sealDur time.Duration // shard-side reverse-scan planning time (0 if unsealed)
	err     error         // cold-phase failure (fault or premature halt)

	capture warmup.RegionCapture
	records []trace.DynInst // committed hot stream, in order
	recErr  error           // execution fault hit while materializing records
}

// failed reports that the run stops at this region: the pipeline's goroutines
// wind down after handing such a product on.
func (p *regionProduct) failed() bool { return p.err != nil || p.recErr != nil }

// replaySource feeds the timing model the records a shard materialized,
// chunked at the sequential path's batch size so cancellation polls keep
// the same cadence. A materialization fault surfaces only after every
// earlier record is delivered — exactly when the live functional simulator
// would have hit it.
type replaySource struct {
	records []trace.DynInst
	pos     int
	final   error // surfaced at exhaustion (nil for halt / end of stream)
	failure error
	opts    *Options
}

func (rp *replaySource) Fill(max uint64) []trace.DynInst {
	if rp.failure != nil {
		return nil
	}
	if rp.opts.Canceled() {
		rp.failure = ErrCanceled
		return nil
	}
	rem := len(rp.records) - rp.pos
	if rem == 0 {
		rp.failure = rp.final
		return nil
	}
	n := int(min(uint64(rem), max, funcsim.BatchSize))
	b := rp.records[rp.pos : rp.pos+n]
	rp.pos += n
	return b
}

// shardTrace records spans for one pipeline goroutine (the pre-pass or a
// shard producer) on a trace track of its own.
type shardTrace struct {
	tr  *obs.Tracer
	tid int64
	cat string
}

func newShardTrace(tr *obs.Tracer, cat string) shardTrace {
	st := shardTrace{tr: tr, cat: cat}
	if tr != nil {
		st.tid = tr.NextTID()
	}
	return st
}

func (s *shardTrace) span(name string, t0 time.Time, args ...obs.SpanArg) {
	if s.tr == nil {
		return
	}
	s.tr.Record(name, s.cat, s.tid, t0, time.Since(t0), args...)
}

// shardFeed is the walker's sharded feed: the consumer end of the pipeline
// newShardFeed starts. Closing done winds every pipeline goroutine down.
type shardFeed struct {
	replaySource
	ro    *runObs
	done  chan struct{}
	ready chan *regionProduct // the prefetcher's output, in cluster order
	free  chan *regionProduct // products handed back for reuse
	prod  *regionProduct      // the current region's
}

// newShardFeed starts the pipeline over regions and returns its consumer
// end. method is the run's warm-up method; region capture is part of the
// Method contract, so any method shards.
//
// Pipeline shape: one pre-pass goroutine runs pure functional simulation
// ahead of everything, capturing an architectural checkpoint (registers +
// dirty-page delta) at each shard boundary and handing shard s its
// checkpoint chain as soon as it exists, so shard s starts after only
// s/shards of the pre-pass rather than all of it. Each shard goroutine then
// seeds a private functional simulator from its chain and walks its
// contiguous region range: cold-skip with observation into a RegionCapture,
// sealing (the shard-side reverse scan that turns the capture's log into a
// warm-apply plan), then materialization of the hot record stream. A
// prefetcher merges the shard outputs into cluster order one region ahead of
// the walker, which adopts each capture into the shared method, applies its
// plan, and replays the materialized records through the shared timing model.
func newShardFeed(p *prog.Program, regions []Region, method warmup.Method, shards int, opts *Options, ro *runObs) *shardFeed {
	firstOf := func(s int) int { return s * len(regions) / shards }

	// Planned absolute position at each shard's first region: the position
	// the sequential run reaches there absent a halt. A halt earlier in the
	// run parks the pre-pass simulator at the halt point instead, which is
	// also exactly where the sequential run's position would be stuck.
	seedPos := make([]uint64, shards)
	for s := 1; s < shards; s++ {
		prev := regions[firstOf(s)-1]
		seedPos[s] = prev.Start + prev.Size
	}

	done := make(chan struct{})
	stopped := func() bool {
		if opts.Canceled() {
			return true
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	seeds := make([]chan []*funcsim.Delta, shards)
	outs := make([]chan *regionProduct, shards)
	for s := range seeds {
		seeds[s] = make(chan []*funcsim.Delta, 1)
		outs[s] = make(chan *regionProduct, shardWindow)
	}
	// The product free list: every product in flight fits, so a put never
	// blocks and a get falls back to allocation only while the pipeline fills.
	free := make(chan *regionProduct, inFlight(shards))

	var ckptDur *obs.Histogram
	if opts.Instr != nil {
		ckptDur = opts.Instr.phaseDur.With(PhaseCheckpoint)
	}

	// Checkpoint pre-pass: pure functional skipping, no logging, no timing
	// model — the fastest way to learn the architectural state at each
	// shard boundary. Checkpoints are cumulative deltas; shard s receives
	// the chain [1..s] and applies it in order onto a fresh simulator.
	//
	// When a checkpoint store holds the chain for this run's key — captured
	// by an earlier run here or on another node — the pre-pass is skipped
	// entirely and shards seed from the stored deltas. The chain is a pure
	// function of the key, so the loaded deltas are the ones the local
	// pre-pass would have captured and results stay byte-identical.
	go func() {
		str := newShardTrace(opts.Tracer, "pre-pass")
		if opts.Checkpoints != nil && opts.CheckpointKey != "" {
			t0 := time.Now()
			if chain := opts.Checkpoints.LoadCheckpoints(opts.CheckpointKey); len(chain) == shards-1 {
				str.span("checkpoint-load", t0, obs.SpanArg{Key: "shards", Val: int64(shards)})
				for s := 0; s < shards; s++ {
					c := append([]*funcsim.Delta(nil), chain[:s]...)
					select {
					case seeds[s] <- c:
					case <-done:
						return
					}
				}
				return
			}
		}
		fs := funcsim.New(p)
		chain := make([]*funcsim.Delta, 0, shards)
		for s := 0; s < shards; s++ {
			for fs.Seq() < seedPos[s] && !fs.Halted() {
				n := min(seedPos[s]-fs.Seq(), prepassChunk)
				ran, err := fs.Skip(n)
				// A fault or halt parks the pre-pass here; the shard that
				// owns the faulting region reproduces the failure itself,
				// and the consumer surfaces the earliest one in cluster
				// order, so later shards just seed from the parked state.
				if err != nil || ran < n {
					break
				}
				if stopped() {
					return
				}
			}
			if s > 0 {
				t0 := time.Now()
				d := fs.CaptureDelta()
				chain = append(chain, d)
				if ckptDur != nil {
					ckptDur.Observe(time.Since(t0).Seconds())
				}
				str.span(PhaseCheckpoint, t0,
					obs.SpanArg{Key: "shard", Val: int64(s)},
					obs.SpanArg{Key: "pages", Val: int64(len(d.Pages))},
					obs.SpanArg{Key: "position", Val: int64(d.Seq)})
			}
			c := append([]*funcsim.Delta(nil), chain...)
			select {
			case seeds[s] <- c:
			case <-done:
				return
			}
		}
		// Persist the complete chain so identical runs — here or on other
		// nodes — skip their pre-pass. Shards only ever read the deltas, so
		// handing the slice to the store is safe.
		if opts.Checkpoints != nil && opts.CheckpointKey != "" && len(chain) == shards-1 {
			opts.Checkpoints.StoreCheckpoints(opts.CheckpointKey, chain)
		}
	}()

	// Shard producers: region-local work only. Geometry derives from the
	// private simulator's actual position (fs.Seq()), not the plan, so a
	// halted workload yields the same degenerate regions the sequential run
	// sees.
	for s := 0; s < shards; s++ {
		go func(s, first, last int) {
			str := newShardTrace(opts.Tracer, "shard")
			var chain []*funcsim.Delta
			select {
			case chain = <-seeds[s]:
			case <-done:
				return
			}
			fs := funcsim.New(p)
			for _, d := range chain {
				fs.ApplyDelta(d)
			}
			for i := first; i < last; i++ {
				var prod *regionProduct
				select {
				case prod = <-free:
				default:
					prod = new(regionProduct)
				}
				if !produceRegion(prod, fs, i, regions[i], method, stopped) {
					return // canceled
				}
				str.span(PhaseColdSkip, time.Now().Add(-prod.coldDur-prod.sealDur),
					obs.SpanArg{Key: "cluster", Val: int64(i)},
					obs.SpanArg{Key: "shard", Val: int64(s)},
					obs.SpanArg{Key: "instructions", Val: int64(prod.coldRan)})
				if prod.sealDur > 0 {
					str.span(PhaseReverseScan, time.Now().Add(-prod.sealDur),
						obs.SpanArg{Key: "cluster", Val: int64(i)},
						obs.SpanArg{Key: "shard", Val: int64(s)})
				}
				// Once sent, the product is the consumer's, which recycles it:
				// read nothing from it afterwards.
				failed := prod.failed()
				select {
				case outs[s] <- prod:
				case <-done:
					return
				}
				if failed {
					return // the consumer stops at this region
				}
			}
		}(s, firstOf(s), firstOf(s+1))
	}

	// Ordered prefetcher: merge the shard outputs into cluster order one
	// region ahead of the consumer. Holding the next product in a buffered
	// channel frees the producing shard's window slot a region early, and —
	// more importantly — lets the consumer's blocking receive measure true
	// starvation rather than shard-merge bookkeeping. After forwarding an
	// errored product it stops, exactly like the producer that made it.
	ready := make(chan *regionProduct, 1)
	go func() {
		defer close(ready)
		for s := 0; s < shards; s++ {
			for ci := firstOf(s); ci < firstOf(s+1); ci++ {
				var prod *regionProduct
				select {
				case prod = <-outs[s]:
				case <-done:
					return
				}
				failed := prod.failed() // read before the hand-off, as above
				select {
				case ready <- prod:
				case <-done:
					return
				}
				if failed {
					return
				}
			}
		}
	}()

	return &shardFeed{replaySource: replaySource{opts: opts}, ro: ro, done: done, ready: ready, free: free}
}

// next receives region ci's product from the prefetcher. The receive is the
// only place the walker can idle, so its blocking time is the pipeline's
// measured starvation.
func (f *shardFeed) next(ci int, _ Region) (uint64, error) {
	tw := f.ro.begin()
	var ok bool
	select {
	case f.prod, ok = <-f.ready:
	case <-f.opts.Cancel: // nil channel blocks; products always arrive
		return 0, ErrCanceled
	}
	if !ok {
		// The prefetcher closed without a product for this region: a
		// producer stopped on a failure that earlier regions absorbed
		// cleanly, or cancellation raced the receive.
		if f.opts.Canceled() {
			return 0, ErrCanceled
		}
		return 0, fmt.Errorf("sampling: shard pipeline ended before cluster %d", ci)
	}
	f.ro.waitDone(tw, ci)
	return f.prod.cold, nil
}

// ingest adopts the shard's capture — and its sealed plan — in place of the
// cold work, and points the source at the shard's materialized records.
func (f *shardFeed) ingest(_ int, method warmup.Method, _ uint64) (uint64, error) {
	prod := f.prod
	if prod.err != nil {
		return 0, prod.err
	}
	ta := f.ro.begin()
	method.AdoptRegion(prod.capture)
	f.ro.coldAdopted(prod.coldDur, prod.sealDur, ta, prod.coldRan, method.Work())
	f.records, f.pos, f.final = prod.records, 0, prod.recErr
	return prod.coldRan, nil
}

func (f *shardFeed) err() error { return f.failure }

// release recycles the product: the timing model holds no reference to a
// source's records after SimulateSource returns.
func (f *shardFeed) release() {
	f.records = nil
	select {
	case f.free <- f.prod:
	default: // cannot happen while inFlight holds; dropping is harmless
	}
	f.prod = nil
}

// produceRegion runs one region's shard-side work on a private functional
// simulator, filling prod (recycled or new): cold-skip the region with
// observation into a capture drawn from the method's free list, seal the
// capture (running the reverse scan and planning reconstruction on this
// shard, off the consumer's critical path), then materialize the committed
// records of the hot phase straight into prod's slab. The cold loop is the
// run-ahead feed's (coldSkip), failure modes included; a failure travels in
// prod, and only cancellation reports false. In steady state — captures and
// products coming back from the consumer — it allocates nothing.
func produceRegion(prod *regionProduct, fs *funcsim.Sim, region int, reg Region, method warmup.Method, stopped func() bool) bool {
	cold := reg.Start - fs.Seq()

	*prod = regionProduct{cold: cold, records: prod.records[:0]}
	capture := method.NewRegionCapture(region, cold)
	t0 := time.Now()
	ran, err := coldSkip(fs, cold, capture, stopped)
	prod.coldRan, prod.coldDur = ran, time.Since(t0)
	if errors.Is(err, ErrCanceled) {
		return false
	}
	if err != nil {
		prod.err = err
		return true
	}
	prod.capture = capture
	t0 = time.Now()
	capture.Seal()
	prod.sealDur = time.Since(t0)

	// Materialize the committed hot stream. The timing model's result
	// depends only on the record sequence, never on Fill chunk sizes, so
	// replaying this slice is equivalent to live functional feeding. On a
	// fault the records committed before it are kept, exactly as the live
	// stream would have delivered them.
	need := int(reg.Size)
	if cap(prod.records) < need {
		prod.records = make([]trace.DynInst, need)
	}
	records := prod.records[:need]
	n := 0
	for n < need {
		b := records[n:min(n+funcsim.BatchSize, need)] // the cold loop's cancellation cadence
		k, err := fs.RunBatch(b)
		n += k
		if err != nil {
			prod.recErr = err
			break
		}
		if k < len(b) {
			break // halted: the consumer sees a short (or empty) stream
		}
		if stopped() {
			return false
		}
	}
	prod.records = records[:n]
	return true
}
