package engine

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rsr/internal/obs"
	"rsr/internal/regimen"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// TestStrategyJobMatchesDirectRun is the strategy arm's contract: for every
// registered strategy, the Outcome an engine job returns is the one
// Strategy.Run returns for the same inputs (Elapsed aside), on a plain engine
// and on one whose registry and tracer record every pass, which must not
// perturb it — and it survives the disk cache: a
// fresh engine on the same directory serves every job from it, equal again
// after the JSON round trip.
func TestStrategyJobMatchesDirectRun(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	spec := warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}
	dir := t.TempDir()
	ctx := context.Background()

	outcome := func(e *Engine, j Job) regimen.Outcome {
		t.Helper()
		res, err := e.Run(ctx, j)
		if err != nil {
			t.Fatalf("%s: %v", j.Label(), err)
		}
		if res.Outcome == nil || res.Sampled != nil || res.Selection <= 0 || res.Selection > res.Outcome.Elapsed {
			t.Fatalf("%s: result %+v: want an Outcome alone, its selection time within Elapsed", j.Label(), res)
		}
		if res.IPC() != res.Outcome.Estimate.IPC {
			t.Errorf("%s: Result.IPC() = %v, want the outcome's estimate %v", j.Label(), res.IPC(), res.Outcome.Estimate.IPC)
		}
		out := *res.Outcome
		out.Elapsed = 0
		return out
	}

	var jobs []Job
	var want []regimen.Outcome
	for _, s := range regimen.All() {
		j := sampledJob("twolf", spec)
		j.Strategy = s.Name()
		jobs = append(jobs, j)
		direct, err := s.Run(regimen.Params{Program: p, Machine: j.Machine, Regimen: j.Regimen,
			Total: j.Total, Seed: j.Seed, Warmup: j.Warmup})
		if err != nil {
			t.Fatalf("%s direct: %v", s.Name(), err)
		}
		direct.Elapsed = 0
		want = append(want, *direct)
	}

	cold := New(Options{Workers: 2, CacheDir: dir})
	instrumented := New(Options{Workers: 1, Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(0)})
	for i, j := range jobs {
		if got := outcome(cold, j); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: engine outcome differs from Strategy.Run\n got %+v\nwant %+v", j.Label(), got, want[i])
		}
		if got := outcome(instrumented, j); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s with metrics and spans on: engine outcome differs from Strategy.Run", j.Label())
		}
	}
	cold.Close()
	instrumented.Close()

	warm := New(Options{Workers: 2, CacheDir: dir})
	defer warm.Close()
	for i, j := range jobs {
		if got := outcome(warm, j); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s from the disk cache: outcome differs from Strategy.Run\n got %+v\nwant %+v", j.Label(), got, want[i])
		}
	}
	if s := warm.Stats(); s.CacheMisses != 0 || s.DiskHits != int64(len(jobs)) {
		t.Errorf("fresh engine on the same CacheDir: %d misses, %d disk hits; want 0 and %d", s.CacheMisses, s.DiskHits, len(jobs))
	}
}

// TestStrategyIsIdentity pins what the Strategy field does to a job's
// address: a registered name separates the job from the unnamed one and from
// every other strategy's; empty, it is absent from the job's JSON and so from
// its hash (TestJobHashPinned holds that hash to a literal), and
// regimen.PaperDesign is the unnamed job (TestPaperDesignIsOneJob). An
// unregistered name is refused at Submit, and a named job is not held to
// Regimen.Validate — SimPoint takes a budget larger than the workload.
func TestStrategyIsIdentity(t *testing.T) {
	unnamed := sampledJob("twolf", warmup.Spec{Kind: warmup.KindNone})
	b, err := json.Marshal(unnamed)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Strategy") {
		t.Errorf("unnamed job marshals a Strategy key: %s", b)
	}
	seen := map[string]string{unnamed.Hash(): "(unnamed)"}
	for _, s := range regimen.All() {
		j := unnamed
		j.Strategy = s.Name()
		if other, dup := seen[j.Hash()]; dup {
			t.Errorf("strategy %s shares its hash with %s", s.Name(), other)
		}
		seen[j.Hash()] = s.Name()
		if err := j.Validate(); err != nil {
			t.Errorf("strategy %s: %v", s.Name(), err)
		}
	}

	// A deleted strategy's name is refused like any other unknown name, with
	// the names that are registered.
	for _, name := range []string{"no-such-strategy", "repeated-subsampling"} {
		bogus := unnamed
		bogus.Strategy = name
		if err := bogus.Validate(); err == nil || !strings.Contains(err.Error(), "unknown strategy") ||
			!strings.Contains(err.Error(), strings.Join(regimen.Names(), " ")) {
			t.Errorf("strategy %q: Validate = %v, want an unknown-strategy error listing %v", name, err, regimen.Names())
		}
	}
	oversized := unnamed
	oversized.Regimen.NumClusters = 1000 // 1000 x 2000 > 400k
	if err := oversized.Validate(); err == nil {
		t.Error("unnamed job with a budget past the workload validated")
	}
	oversized.Strategy = "simpoint"
	if err := oversized.Validate(); err != nil {
		t.Errorf("simpoint job with a budget past the workload: %v", err)
	}
}

// TestPaperDesignIsOneJob: regimen.PaperDesign and the empty name are two
// spellings of one job — one content address, one label, one execution — and
// the result is the unnamed job's RunResult, not an Outcome.
func TestPaperDesignIsOneJob(t *testing.T) {
	unnamed := sampledJob("twolf", warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true})
	named := unnamed
	named.Strategy = regimen.PaperDesign
	if named.Hash() != unnamed.Hash() || named.Label() != unnamed.Label() {
		t.Fatalf("%s: hash %.12s label %q; unnamed: hash %.12s label %q",
			regimen.PaperDesign, named.Hash(), named.Label(), unnamed.Hash(), unnamed.Label())
	}
	if err := named.Validate(); err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2})
	defer e.Close()
	ctx := context.Background()
	var results []*Result
	for _, j := range []Job{unnamed, named} {
		res, err := e.Run(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if results[0] != results[1] || results[1].Sampled == nil || results[1].Outcome != nil {
		t.Errorf("results %+v and %+v: want one shared RunResult", results[0], results[1])
	}
	if s := e.Stats(); s.Done != 1 || s.CacheMisses != 1 {
		t.Errorf("stats %+v: want the job run once", s)
	}
}
