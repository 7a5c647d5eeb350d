package sampling

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// closedChan returns an already-closed cancel channel: the run must observe
// it at the first batch-boundary poll.
func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// TestRunFullOptsCancelPreClosed pins the earliest cancel point: a
// pre-closed channel aborts before any instruction retires, and no partial
// state escapes — the returned FullResult is the zero value.
func TestRunFullOptsCancelPreClosed(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFullOpts(w.Build(), DefaultMachine(), 1_000_000, Options{Cancel: closedChan()})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !reflect.DeepEqual(res, FullResult{}) {
		t.Errorf("partial state escaped a canceled full run: %+v", res)
	}
}

// TestRunFullOptsCancelMidRun fires cancellation while the batched loop is
// underway: the poll between batches must abort the run promptly, again
// with only the zero value escaping.
func TestRunFullOptsCancelMidRun(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		close(cancel)
	}()
	begin := time.Now()
	// Far more instructions than 2ms allows: the cancel lands between
	// batches, never at a clean end.
	res, err := RunFullOpts(w.Build(), DefaultMachine(), 500_000_000, Options{Cancel: cancel})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !reflect.DeepEqual(res, FullResult{}) {
		t.Errorf("partial state escaped a canceled full run: %+v", res)
	}
	if took := time.Since(begin); took > 10*time.Second {
		t.Errorf("cancel took %v to abort the run", took)
	}
}

// TestRunSampledOptsCancelMidRun does the same for the sampled controller,
// where the poll also runs at cluster boundaries; the result pointer must
// be nil, not a half-filled RunResult. Both cold kernels are polled: S$BP's
// window kernel and None's record-free lead.
func TestRunSampledOptsCancelMidRun(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	spec := warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true}
	reg := Regimen{ClusterSize: 2000, NumClusters: 50}
	cancel := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		close(cancel)
	}()
	begin := time.Now()
	res, err := RunSampledOpts(w.Build(), DefaultMachine(), reg, 500_000_000, 1, spec, Options{Cancel: cancel})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Errorf("partial state escaped a canceled sampled run: %+v", res)
	}
	if took := time.Since(begin); took > 10*time.Second {
		t.Errorf("cancel took %v to abort the run", took)
	}

	// None runs its whole cold phase as a lead, without records, and S$BP as a
	// window, through the window kernel and hand-offs to the walker: the poll
	// between their batches must abort a cold phase far longer than 2ms too
	// (unpolled, this one would run for about 25 s).
	for _, long := range []warmup.Spec{{Kind: warmup.KindNone}, spec} {
		cancelLong := make(chan struct{})
		go func() {
			time.Sleep(2 * time.Millisecond)
			close(cancelLong)
		}()
		begin = time.Now()
		res, err = RunRegions(w.Build(), DefaultMachine(), []Region{{Start: 5_000_000_000, Size: 2000}}, long.New, Options{Cancel: cancelLong})
		if !errors.Is(err, ErrCanceled) || res != nil {
			t.Fatalf("canceled %s cold phase: got %v, %v; want nil, ErrCanceled", long.Label(), res, err)
		}
		if took := time.Since(begin); took > 10*time.Second {
			t.Errorf("cancel took %v to abort a %s cold phase", took, long.Label())
		}
	}

	// The cancel must not have perturbed later runs (fresh-state contract):
	// the same call, uncanceled at a small total, matches a reference run.
	small := uint64(400_000)
	regSmall := Regimen{ClusterSize: 2000, NumClusters: 10}
	got, err := RunSampledOpts(w.Build(), DefaultMachine(), regSmall, small, 1, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSampled(w.Build(), DefaultMachine(), regSmall, small, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	got.Elapsed, want.Elapsed = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Error("a canceled run perturbed a later run's results")
	}
}

// TestCancelReachesHotWindow: a cancel that comes in the middle of a hot
// window of several seconds ends the run with ErrCanceled within a second.
func TestCancelReachesHotWindow(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	spec := warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}
	cancel := make(chan struct{})
	var canceled time.Time
	go func() {
		time.Sleep(300 * time.Millisecond) // the 1,000-instruction cold phase is long over
		canceled = time.Now()
		close(cancel)
	}()
	// 200M instructions in the timing model take about 15 s.
	res, err := RunRegions(w.Build(), DefaultMachine(), []Region{{Start: 1000, Size: 200_000_000}}, spec.New, Options{Cancel: cancel})
	end := time.Now()
	<-cancel // orders the write of canceled before the read
	took := end.Sub(canceled)
	if !errors.Is(err, ErrCanceled) || res != nil {
		t.Fatalf("canceled hot window: got %v, %v; want nil, ErrCanceled", res, err)
	}
	if took > time.Second {
		t.Errorf("the run ended %v after the cancel", took)
	}
}
