package sampling

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"rsr/internal/prog"
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
// and a cancel inside a lead or a window — and each ends as it would have
// with the functional simulator on the walker.
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
}

// TestRunAheadAllocationBudget pins the sequential run's steady state: a run
// over three times the regions allocates no more than the standing
// population — the machine, the functional simulator's pages, and the
// captures and logs of the regions in flight — and a quarter on top for logs
// and plans refitted while the density estimate settles. The ring itself is
// kept from run to run, so once warm a run allocates none of it.
func TestRunAheadAllocationBudget(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	const stratum = 50_000
	for _, label := range []string{"S$BP", "R$BP (20%)", "None"} {
		spec, err := warmup.SpecByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		run := func(clusters int) uint64 {
			reg := Regimen{ClusterSize: 2000, NumClusters: clusters}
			return allocatedBy(func() {
				if _, err := runSampled(p, DefaultMachine(), reg, uint64(clusters)*stratum, 2007, spec.New, Options{}); err != nil {
					t.Fatalf("%s clusters=%d: %v", label, clusters, err)
				}
			})
		}
		run(50) // the ring
		standing, long := run(50), run(150)
		t.Logf("%s: 50 regions %.2f MB, 150 regions %.2f MB", label, float64(standing)/1e6, float64(long)/1e6)
		if long > standing+standing/4 {
			t.Errorf("%s: 150 regions allocate %d bytes against %d for 50: the run-ahead feed allocates per region", label, long, standing)
		}
	}
}
