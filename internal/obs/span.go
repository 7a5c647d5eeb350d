package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanArg is one integer annotation on a span (instruction counts, cluster
// indices, applied-reference counts). Fixed-size args keep span recording
// allocation-free.
type SpanArg struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// maxSpanArgs bounds annotations per span; extra Arg calls are dropped.
const maxSpanArgs = 4

// spanRecord is one completed span in the ring buffer.
type spanRecord struct {
	name  string
	cat   string
	sweep string // distributed sweep tag; "" outside a scoped tracer
	tid   int64
	start time.Duration // since the tracer epoch
	dur   time.Duration
	args  [maxSpanArgs]SpanArg
	nargs int
}

// tracerState is the shared mutable half of a Tracer: the span ring and the
// track-ID counter. Every Scoped view of one tracer records into the same
// state, so a process keeps a single ring no matter how many sweeps flow
// through it.
type tracerState struct {
	nextTID atomic.Int64

	mu      sync.Mutex
	ring    []spanRecord
	next    uint64 // total spans recorded; next % len(ring) is the write slot
	dropped uint64 // spans overwritten after the ring wrapped
}

// Tracer records named phase spans into a fixed-capacity ring buffer and
// exports them as Chrome trace-event JSON (loadable in chrome://tracing or
// https://ui.perfetto.dev). When the ring wraps, the oldest spans are
// overwritten: a long run keeps its most recent history, which is the
// window being debugged. A nil *Tracer discards all spans at the cost of
// one branch. All methods are safe for concurrent use.
//
// A Tracer is a view over shared state: Scoped returns a second view that
// stamps every span it records with a distributed sweep ID, while writing
// into the same ring. The sweep tag is what lets a coordinator pull one
// sweep's spans out of a worker's ring that is concurrently serving other
// traffic.
type Tracer struct {
	epoch time.Time
	now   func() time.Time // the clock the tests' Begin/End spans read; time.Now by default
	sweep string           // stamped on every span this view records

	state *tracerState
}

// DefaultTraceCapacity is the span ring size used when NewTracer is given a
// non-positive capacity: enough for every per-cluster phase of a full
// Table-2 matrix run.
const DefaultTraceCapacity = 1 << 16

// NewTracer returns a tracer whose epoch is "now".
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{epoch: time.Now(), now: time.Now,
		state: &tracerState{ring: make([]spanRecord, 0, capacity)}}
}

// Scoped returns a view of the same tracer that stamps sweep onto every span
// it records. Views share the ring, the track-ID
// counter, and the epoch, so scoped spans interleave naturally with unscoped
// ones. A nil tracer scopes to nil; an empty sweep returns the receiver.
func (t *Tracer) Scoped(sweep string) *Tracer {
	if t == nil || sweep == "" || sweep == t.sweep {
		return t
	}
	v := *t
	v.sweep = sweep
	return &v
}

// Sweep returns the sweep ID this view stamps, "" for the root view.
func (t *Tracer) Sweep() string {
	if t == nil {
		return ""
	}
	return t.sweep
}

// NextTID hands out a fresh logical track ID. Chrome's trace viewer nests
// overlapping spans that share a track, so each concurrent unit of work (a
// sampled run, an engine job) should record its spans under its own TID.
func (t *Tracer) NextTID() int64 {
	if t == nil {
		return 0
	}
	return t.state.nextTID.Add(1)
}

// Record commits an already-measured span: start is the wall-clock phase
// start and dur its length. It is the hook for callers that time phases
// themselves (e.g. the sampling controller, which shares one clock read
// between its duration histograms and its spans). At most four args are
// kept.
func (t *Tracer) Record(name, cat string, tid int64, start time.Time, dur time.Duration, args ...SpanArg) {
	if t == nil {
		return
	}
	rec := spanRecord{name: name, cat: cat, sweep: t.sweep, tid: tid,
		start: start.Sub(t.epoch), dur: dur}
	rec.nargs = copy(rec.args[:], args)
	t.commit(rec)
}

// commit appends one completed span, overwriting the oldest once the ring
// is full.
func (t *Tracer) commit(rec spanRecord) {
	st := t.state
	st.mu.Lock()
	if len(st.ring) < cap(st.ring) {
		st.ring = append(st.ring, spanRecord{})
	} else {
		st.dropped++
	}
	st.ring[st.next%uint64(cap(st.ring))] = rec
	st.next++
	st.mu.Unlock()
}

// Len reports how many spans are currently held (at most the capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.state.mu.Lock()
	defer t.state.mu.Unlock()
	return len(t.state.ring)
}

// Dropped reports how many spans were overwritten after the ring wrapped.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.state.mu.Lock()
	defer t.state.mu.Unlock()
	return t.state.dropped
}

// snapshotRing copies the held spans out under the lock.
func (t *Tracer) snapshotRing() []spanRecord {
	if t == nil {
		return nil
	}
	t.state.mu.Lock()
	defer t.state.mu.Unlock()
	return append([]spanRecord(nil), t.state.ring...)
}

// SpanDump is one completed span in wire form: absolute unix-nano timestamps
// instead of epoch-relative offsets, so rings from different processes can be
// merged into one trace on their shared wall clock. Serialized by a worker's
// GET /v1/trace and consumed by the coordinator's sweep-trace aggregation.
type SpanDump struct {
	Name  string    `json:"name"`
	Cat   string    `json:"cat"`
	Sweep string    `json:"sweep,omitempty"`
	TID   int64     `json:"tid"`
	Start int64     `json:"start_unix_ns"`
	Dur   int64     `json:"dur_ns"`
	Args  []SpanArg `json:"args,omitempty"`
}

// Dump exports the held spans with absolute timestamps, keeping only those
// stamped with the given sweep ID (sweep "" keeps everything).
func (t *Tracer) Dump(sweep string) []SpanDump {
	var out []SpanDump
	for _, r := range t.snapshotRing() {
		if sweep != "" && r.sweep != sweep {
			continue
		}
		d := SpanDump{
			Name:  r.name,
			Cat:   r.cat,
			Sweep: r.sweep,
			TID:   r.tid,
			Start: t.epoch.Add(r.start).UnixNano(),
			Dur:   r.dur.Nanoseconds(),
		}
		if r.nargs > 0 {
			d.Args = append(d.Args, r.args[:r.nargs]...)
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteChromeTrace renders the held spans as Chrome trace-event JSON:
// an object with a traceEvents array of complete ("ph":"X") events,
// timestamps and durations in microseconds since the tracer epoch, sorted
// by start time. Load the file via chrome://tracing or ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.snapshotRing()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	for i := range spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		r := &spans[i]
		writeTraceEvent(bw, SpanDump{Name: r.name, Cat: r.cat, Sweep: r.sweep, TID: r.tid,
			Start: r.start.Nanoseconds(), Dur: r.dur.Nanoseconds(), Args: r.args[:r.nargs]}, 1)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// writeTraceEvent emits one complete ("ph":"X") event: d.Start is its
// timestamp in nanoseconds from the trace's origin. Span names and
// categories are identifier-like in this codebase, but method labels (e.g.
// `R$BP (20%)`) flow into cat, so strings are escaped.
func writeTraceEvent(bw *bufio.Writer, d SpanDump, pid int) {
	bw.WriteString(`{"name":`)
	writeJSONString(bw, d.Name)
	bw.WriteString(`,"cat":`)
	writeJSONString(bw, d.Cat)
	bw.WriteString(`,"ph":"X","pid":`)
	bw.WriteString(strconv.Itoa(pid))
	bw.WriteString(`,"tid":`)
	bw.WriteString(strconv.FormatInt(d.TID, 10))
	bw.WriteString(`,"ts":`)
	writeMicros(bw, d.Start)
	bw.WriteString(`,"dur":`)
	writeMicros(bw, d.Dur)
	if len(d.Args) > 0 || d.Sweep != "" {
		bw.WriteString(`,"args":{`)
		for i, a := range d.Args {
			if i > 0 {
				bw.WriteByte(',')
			}
			writeJSONString(bw, a.Key)
			bw.WriteByte(':')
			bw.WriteString(strconv.FormatInt(a.Val, 10))
		}
		if d.Sweep != "" {
			if len(d.Args) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(`"sweep":`)
			writeJSONString(bw, d.Sweep)
		}
		bw.WriteByte('}')
	}
	bw.WriteByte('}')
}

// writeMicros renders a nanosecond count as fractional microseconds
// (Chrome's trace unit), keeping sub-microsecond spans visible.
func writeMicros(bw *bufio.Writer, ns int64) {
	bw.WriteString(strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64))
}

// writeJSONString emits a JSON string literal with minimal escaping.
func writeJSONString(bw *bufio.Writer, s string) {
	bw.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			bw.WriteByte('\\')
			bw.WriteByte(c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			bw.WriteString(`\u00`)
			bw.WriteByte(hex[c>>4])
			bw.WriteByte(hex[c&0xf])
		default:
			bw.WriteByte(c)
		}
	}
	bw.WriteByte('"')
}
