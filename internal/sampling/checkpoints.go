package sampling

import (
	"time"

	"rsr/internal/funcsim"
	"rsr/internal/obs"
	"rsr/internal/prog"
)

// CheckpointStore shares pre-pass checkpoint chains across runs — and,
// through the cluster fabric's content-addressed store, across nodes. A
// chain is the sequence of cumulative architectural deltas a sharded run's
// pre-pass captures at its range boundaries; it is a pure function
// of its key (workload, total length, regimen, seed, shard count), which
// makes sharing sound: every pre-pass for a key captures identical deltas,
// so load/store races and duplicated writes are benign, and a loaded chain
// seeds producers into exactly the state the local pre-pass would have
// computed — results stay byte-identical either way.
//
// Both methods are best-effort: a store that loses entries or refuses
// writes costs a recomputed pre-pass, never correctness.
type CheckpointStore interface {
	// LoadCheckpoints returns the chain stored under key, or nil when the
	// store has no (usable) entry.
	LoadCheckpoints(key string) []*funcsim.Delta

	// StoreCheckpoints persists a freshly captured chain under key. The
	// chain's deltas must be treated as immutable once handed over: the
	// caller keeps feeding them to producer goroutines.
	StoreCheckpoints(key string, chain []*funcsim.Delta)
}

// prepassChunk is the cancellation-poll granularity of the checkpoint
// pre-pass (pure functional skipping at full interpreter speed).
const prepassChunk = 1 << 16

// shardTrace records spans for one goroutine of a sharded run — the pre-pass
// or a producer — on a trace track of its own.
type shardTrace struct {
	tr  *obs.Tracer
	tid int64
	cat string
}

func newShardTrace(tr *obs.Tracer, cat string) *shardTrace {
	st := &shardTrace{tr: tr, cat: cat}
	if tr != nil {
		st.tid = tr.NextTID()
	}
	return st
}

func (s *shardTrace) span(name string, t0 time.Time, dur time.Duration, args ...obs.SpanArg) {
	if s.tr != nil {
		s.tr.Record(name, s.cat, s.tid, t0, dur, args...)
	}
}

// prepass seeds a sharded run's producers: it runs p without records to the
// start of each range after the first, captures a checkpoint there — the
// architectural delta since the one before — and hands producer s the chain
// of the first s, so range s starts after s/k of the pre-pass rather than all
// of it. A chain the store holds under the run's key stands in for the whole
// pre-pass; one the pre-pass captures is stored there.
func (f *aheadFeed) prepass(p *prog.Program, regions []Region, seeds []chan []*funcsim.Delta) {
	defer f.wg.Done()
	opts, shards := f.opts, len(seeds)
	st := newShardTrace(opts.Tracer, "pre-pass")
	keyed := opts.Checkpoints != nil && opts.CheckpointKey != ""
	if keyed {
		t0 := time.Now()
		if chain := opts.Checkpoints.LoadCheckpoints(opts.CheckpointKey); len(chain) == shards-1 {
			st.span("checkpoint-load", t0, time.Since(t0), obs.SpanArg{Key: "shards", Val: int64(shards)})
			for s := 1; s < shards; s++ {
				seeds[s] <- chain[:s:s]
			}
			return
		}
	}
	var ckptDur *obs.Histogram
	if opts.Instr != nil {
		ckptDur = opts.Instr.phaseDur.With(PhaseCheckpoint)
	}
	fs := funcsim.New(p)
	var chain []*funcsim.Delta
	for s := 1; s < shards; s++ {
		prev := regions[f.firsts[s]-1]
		for end := prev.Start + prev.Size; fs.Seq() < end && !fs.Halted(); {
			n := min(end-fs.Seq(), prepassChunk)
			// A fault or halt parks the pre-pass here: the producer whose
			// range holds it meets it too, and the walker reaches that range
			// first, so later ranges just start from the parked state.
			if ran, err := fs.Skip(n); err != nil || ran < n {
				break
			}
			if f.stopped() {
				return
			}
		}
		t0 := time.Now()
		d := fs.CaptureDelta()
		chain = append(chain, d)
		dur := time.Since(t0)
		ckptDur.Observe(dur.Seconds())
		st.span(PhaseCheckpoint, t0, dur,
			obs.SpanArg{Key: "shard", Val: int64(s)},
			obs.SpanArg{Key: "pages", Val: int64(len(d.Pages))},
			obs.SpanArg{Key: "position", Val: int64(d.Seq)})
		seeds[s] <- chain[:s:s]
	}
	// Producers only read the deltas, so the store may keep the chain.
	if keyed {
		opts.Checkpoints.StoreCheckpoints(opts.CheckpointKey, chain)
	}
}
