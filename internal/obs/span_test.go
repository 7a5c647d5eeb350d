package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// Span is an in-progress phase measurement returned by Begin: how the tests
// time a span on the tracer's own clock (production callers time phases
// themselves and call Record). It is a value type: copying is cheap and no
// allocation occurs on the begin/end path.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	tid   int64
	start time.Duration
	args  [maxSpanArgs]SpanArg
	nargs int
}

// Begin starts a span named name in category cat on track tid. End records
// it; an unfinished span is simply never recorded.
func (t *Tracer) Begin(name, cat string, tid int64) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, cat: cat, tid: tid, start: t.now().Sub(t.epoch)}
}

// Arg annotates the span with an integer value (shown in the trace viewer's
// detail pane). At most four args are kept; extras are dropped.
func (s Span) Arg(key string, val int64) Span {
	if s.t == nil || s.nargs >= maxSpanArgs {
		return s
	}
	s.args[s.nargs] = SpanArg{Key: key, Val: val}
	s.nargs++
	return s
}

// End completes the span and commits it to the ring buffer.
func (s Span) End() {
	t := s.t
	if t == nil {
		return
	}
	end := t.now().Sub(t.epoch)
	t.commit(spanRecord{name: s.name, cat: s.cat, sweep: t.sweep, tid: s.tid,
		start: s.start, dur: end - s.start, args: s.args, nargs: s.nargs})
}

// fakeClock makes span timing deterministic: every call advances by step.
// The race test reads it from several goroutines.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

func testTracer(capacity int) *Tracer {
	tr := NewTracer(capacity)
	clk := &fakeClock{t: tr.epoch, step: time.Millisecond}
	tr.now = clk.now
	return tr
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := testTracer(16)
	tid := tr.NextTID()
	sp := tr.Begin("cold-skip", "sampling", tid).Arg("cluster", 0).Arg("instructions", 1000)
	sp.End()
	tr.Begin("hot-sim", "sampling", tid).End()
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}

	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Cat  string           `json:"cat"`
			Ph   string           `json:"ph"`
			PID  int              `json:"pid"`
			TID  int64            `json:"tid"`
			TS   float64          `json:"ts"`
			Dur  float64          `json:"dur"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "cold-skip" || ev.Cat != "sampling" || ev.Ph != "X" || ev.TID != tid {
		t.Fatalf("bad event: %+v", ev)
	}
	if ev.Args["cluster"] != 0 || ev.Args["instructions"] != 1000 {
		t.Fatalf("args lost: %+v", ev.Args)
	}
	// The fake clock steps 1ms per call: Begin then End = 1ms duration.
	if ev.Dur != 1000 {
		t.Fatalf("dur = %v µs, want 1000", ev.Dur)
	}
	if doc.TraceEvents[1].TS <= ev.TS {
		t.Fatal("events must be sorted by start time")
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := testTracer(4)
	for i := 0; i < 10; i++ {
		tr.Begin("s", "t", 1).Arg("i", int64(i)).End()
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	// The newest spans (6..9) survive.
	for _, want := range []string{`"i":6`, `"i":9`} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("missing %s in %s", want, sb.String())
		}
	}
	if strings.Contains(sb.String(), `"i":5`) {
		t.Fatal("overwritten span still present")
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("x", "y", tr.NextTID()).Arg("k", 1)
	sp.End()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must hold nothing")
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "traceEvents") {
		t.Fatalf("nil tracer must still write a valid document, got %q", sb.String())
	}
}

func TestSpanEscaping(t *testing.T) {
	tr := testTracer(4)
	tr.Begin(`R$BP ("20%")`, "warm\nup", 1).End()
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("escaping broke JSON: %v\n%s", err, sb.String())
	}
}

// TestWriteChromeTraceBytesPinned holds WriteChromeTrace's output for a fixed
// ring to the bytes it wrote before its event writer was shared with
// WriteMergedChromeTrace: the spans are recorded out of start order, one is
// sweep-tagged, one carries the maximum four args, one a name that needs
// escaping, and one lasts less than a microsecond.
func TestWriteChromeTraceBytesPinned(t *testing.T) {
	tr := NewTracer(8)
	at := func(d time.Duration) time.Time { return tr.epoch.Add(d) }
	tr.Record("cold-skip", "R$BP (20%)", 1, at(1500*time.Microsecond), 2*time.Millisecond,
		SpanArg{Key: "instr", Val: 40000}, SpanArg{Key: "cluster", Val: 3})
	tr.Record("hot-sim", "S$BP", 2, at(250*time.Nanosecond), 999*time.Nanosecond)
	tr.Scoped("sweep-7").Record("job", "engine", 3, at(42*time.Microsecond+7*time.Nanosecond), time.Second,
		SpanArg{Key: "a", Val: -1}, SpanArg{Key: "b", Val: 2}, SpanArg{Key: "c", Val: 3}, SpanArg{Key: "d", Val: 4})
	tr.Record(`say "hi"\`, "warm\nup", 4, at(0), 0)
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `{"traceEvents":[{"name":"say \"hi\"\\","cat":"warm\u000aup","ph":"X","pid":1,"tid":4,"ts":0.000,"dur":0.000},{"name":"hot-sim","cat":"S$BP","ph":"X","pid":1,"tid":2,"ts":0.250,"dur":0.999},{"name":"job","cat":"engine","ph":"X","pid":1,"tid":3,"ts":42.007,"dur":1000000.000,"args":{"a":-1,"b":2,"c":3,"d":4,"sweep":"sweep-7"}},{"name":"cold-skip","cat":"R$BP (20%)","ph":"X","pid":1,"tid":1,"ts":1500.000,"dur":2000.000,"args":{"instr":40000,"cluster":3}}]}` + "\n"
	if got := sb.String(); got != want {
		t.Fatalf("WriteChromeTrace wrote\n%q\nwant\n%q", got, want)
	}
}
