package sampling

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"rsr/internal/bpred"
	"rsr/internal/mem"
	"rsr/internal/prog"
	"rsr/internal/trace"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// producerRunning reports whether a run-ahead producer goroutine exists,
// waiting up to a second for one that is on its way out.
func producerRunning() bool {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*aheadFeed).produce") {
			return false
		}
		if time.Now().After(deadline) {
			return true
		}
	}
}

// cancelAfter returns a cancel channel closed after d.
func cancelAfter(d time.Duration) chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(d, func() { close(ch) })
	return ch
}

// TestRunAheadProducerEnds: RunRegions joins its run-ahead producer however
// the run ends — after success, a fault inside a window, a halt inside a lead,
// and a cancel inside a lead or a window, executing or replaying a trace —
// and each ends as it would have with the functional simulator on the walker.
func TestRunAheadProducerEnds(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gcc := w.Build()
	spec := func(label string) warmup.Spec {
		s, err := warmup.SpecByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	far := []Region{{Start: 5_000_000_000, Size: 2000}} // about 25 s of cold phase
	for _, c := range []struct {
		name    string
		p       *prog.Program
		label   string
		regions []Region
		cancel  chan struct{}
		want    string // error text, "" for success
	}{
		{"success", gcc, "R$BP (20%)", []Region{{Start: 10_000, Size: 2000}, {Start: 50_000, Size: 2000}}, nil, ""},
		{"fault in a window", faultAt(t, gcc, 30_000), "S$BP", []Region{{Start: 1000, Size: 500}, {Start: 40_000, Size: 500}}, nil, "sampling: cold phase: funcsim: unknown opcode"},
		{"halt in a lead", haltingProgram(5000), "None", []Region{{Start: 1000, Size: 200}, {Start: 20_000, Size: 200}}, nil, "sampling: workload halted after"},
		{"cancel in a lead", gcc, "R$BP (20%)", far, cancelAfter(2 * time.Millisecond), ErrCanceled.Error()},
		{"cancel in a window", gcc, "S$BP", far, cancelAfter(2 * time.Millisecond), ErrCanceled.Error()},
	} {
		res, err := RunRegions(c.p, DefaultMachine(), c.regions, spec(c.label).New, Options{Cancel: c.cancel})
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), c.want) || res != nil):
			t.Errorf("%s: got %v, %v; want an error starting %q", c.name, res, err, c.want)
		}
		if c.cancel != nil && !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: %v is not ErrCanceled", c.name, err)
		}
		if producerRunning() {
			t.Errorf("%s: the run-ahead producer outlived RunRegions", c.name)
		}
	}

	// Replaying a trace starts no producer: none runs while the method
	// observes a window or ends a cold phase, and the run ends as an
	// executing one does, after success and after a cancel while the method
	// observes a window or the timing model reads a hot phase.
	regions := []Region{{Start: 400_000, Size: 20_000}, {Start: 800_000, Size: 20_000}}
	store := recordTrace(t, gcc, regions)
	for _, c := range []struct {
		name, label, at string
	}{
		{"replay success", "R$BP (20%)", ""},
		{"replay cancel in a window", "S$BP", "window"},
		{"replay cancel in a hot phase", "R$BP (20%)", "hot"},
	} {
		cancel := make(chan struct{})
		var m *cancelingMethod
		mk := func(h *mem.Hierarchy, u *bpred.Unit) warmup.Method {
			m = &cancelingMethod{Method: spec(c.label).New(h, u), at: c.at, cancel: cancel, probe: true}
			return m
		}
		before := store.replayed
		res, err := RunRegions(gcc, DefaultMachine(), regions, mk, Options{Cancel: cancel, Traces: store, TraceKey: "k"})
		switch {
		case store.replayed != before+1:
			t.Errorf("%s: the run did not replay the trace", c.name)
		case m.probes == 0 || m.producer:
			t.Errorf("%s: a run-ahead producer ran during the replay (%d probes)", c.name, m.probes)
		case c.at == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.at != "" && (!errors.Is(err, ErrCanceled) || res != nil):
			t.Errorf("%s: got %v, %v; want ErrCanceled", c.name, res, err)
		}
		if producerRunning() {
			t.Errorf("%s: the run-ahead producer outlived RunRegions", c.name)
		}
	}
}

// cancelingMethod closes cancel when the walker first reaches at: a window's
// first stretch, or the hot phase after the first cold phase. With probe set,
// it looks for a run-ahead producer at each window and each hot phase, and
// producer says whether it found one.
type cancelingMethod struct {
	warmup.Method
	at       string
	cancel   chan struct{}
	closed   bool
	probe    bool
	probes   int
	producer bool
}

func (m *cancelingMethod) ObserveWindow(w *trace.Window) {
	m.Method.ObserveWindow(w)
	m.fire("window")
}

func (m *cancelingMethod) EndSkip() {
	m.Method.EndSkip()
	m.fire("hot")
}

func (m *cancelingMethod) fire(at string) {
	if m.probe {
		m.probes++
		m.producer = m.producer || producerRunning()
	}
	if m.at == at && !m.closed {
		m.closed = true
		close(m.cancel)
	}
}

// TestRunAheadAllocationBudget pins the sequential run's steady state: a run
// over three times the regions allocates no more than the standing
// population — the machine, the functional simulator's pages, and the
// captures and logs of the regions in flight — and a quarter on top for logs
// and plans refitted while the density estimate settles. The ring itself is
// kept from run to run, so once warm a run allocates none of it. The last arm
// replays its placement's trace and cuts its plan, both made off the count,
// and reads them in place.
func TestRunAheadAllocationBudget(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	const stratum = 50_000
	for _, arm := range []struct {
		label  string
		replay bool
	}{{"S$BP", false}, {"R$BP (20%)", false}, {"None", false}, {"R$BP (20%)", true}} {
		spec, err := warmup.SpecByLabel(arm.label)
		if err != nil {
			t.Fatal(err)
		}
		name := arm.label
		if arm.replay {
			name += ", replayed"
		}
		run := func(clusters int) uint64 {
			reg := Regimen{ClusterSize: 2000, NumClusters: clusters}
			total := uint64(clusters) * stratum
			var opts Options
			if arm.replay {
				regions, err := reg.Regions(total, 2007)
				if err != nil {
					t.Fatal(err)
				}
				store := recordTrace(t, p, regions)
				store.LoadPlan("k", DefaultMachine())
				opts = Options{Traces: store, TraceKey: "k"}
			}
			return allocatedBy(func() {
				if _, err := runSampled(p, DefaultMachine(), reg, total, 2007, spec.New, opts); err != nil {
					t.Fatalf("%s clusters=%d: %v", name, clusters, err)
				}
			})
		}
		run(50) // the ring
		standing, long := run(50), run(150)
		t.Logf("%s: 50 regions %.2f MB, 150 regions %.2f MB", name, float64(standing)/1e6, float64(long)/1e6)
		if long > standing+standing/4 {
			t.Errorf("%s: 150 regions allocate %d bytes against %d for 50: the run-ahead feed allocates per region", name, long, standing)
		}
	}
}
