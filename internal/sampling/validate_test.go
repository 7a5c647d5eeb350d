package sampling

import (
	"strings"
	"testing"
	"time"

	"rsr/internal/bpred"
	"rsr/internal/mem"
	"rsr/internal/ooo"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// TestZeroWidthMachineRefused: with FetchWidth or ROBSize 0 the timing model
// never fetches or never dispatches, so it soon stops asking its source for
// batches, where the cancel poll sits: unrefused, such a run spins for good.
// Both entry points return an error at once instead.
func TestZeroWidthMachineRefused(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	for name, zero := range map[string]func(*ooo.Config){
		"FetchWidth": func(c *ooo.Config) { c.FetchWidth = 0 },
		"ROBSize":    func(c *ooo.Config) { c.ROBSize = 0 },
	} {
		m := DefaultMachine()
		zero(&m.CPU)
		errs := make(chan error, 2)
		go func() {
			_, err := RunFullOpts(w.Build(), m, 100_000, Options{})
			errs <- err
		}()
		go func() {
			_, err := RunRegions(w.Build(), m, []Region{{Start: 1000, Size: 2000}}, warmup.Spec{}.New, Options{})
			errs <- err
		}()
		deadline := time.After(10 * time.Second)
		for range 2 {
			select {
			case err := <-errs:
				if err == nil || !strings.Contains(err.Error(), name) {
					t.Errorf("%s 0: err = %v, want a refusal naming %s", name, err, name)
				}
			case <-deadline:
				t.Fatalf("%s 0: a run did not return within 10 s", name)
			}
		}
	}
}

// TestRegimenValidateBoundaries pins Validate's accept/reject boundary: the
// single NumClusters*ClusterSize <= total check subsumes the per-stratum
// bound (floor(total/N) >= ClusterSize follows from it), so exact fits are
// accepted and one instruction less is rejected.
func TestRegimenValidateBoundaries(t *testing.T) {
	cases := []struct {
		name  string
		r     Regimen
		total uint64
		ok    bool
	}{
		{"zero cluster size", Regimen{ClusterSize: 0, NumClusters: 10}, 1000, false},
		{"zero cluster count", Regimen{ClusterSize: 100, NumClusters: 0}, 1000, false},
		{"negative cluster count", Regimen{ClusterSize: 100, NumClusters: -1}, 1000, false},
		{"exact fit", Regimen{ClusterSize: 100, NumClusters: 10}, 1000, true},
		{"one short", Regimen{ClusterSize: 100, NumClusters: 10}, 999, false},
		{"single cluster spans all", Regimen{ClusterSize: 1000, NumClusters: 1}, 1000, true},
		{"single cluster too big", Regimen{ClusterSize: 1001, NumClusters: 1}, 1000, false},
		{"uneven strata still fit", Regimen{ClusterSize: 3, NumClusters: 3}, 10, true},
		{"generous slack", Regimen{ClusterSize: 2000, NumClusters: 50}, 20_000_000, true},
		{"product wraps uint64", Regimen{ClusterSize: 1 << 63, NumClusters: 2}, 1_000_000, false},
	}
	for _, c := range cases {
		err := c.r.Validate(c.total)
		if c.ok && err != nil {
			t.Errorf("%s: Validate(%d) = %v, want accept", c.name, c.total, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: Validate(%d) accepted, want reject", c.name, c.total)
		}
	}
}

// TestPositionsRejectsOverflowingRegimen is the regression for the wrapped
// product: Validate used to accept it and Positions then panicked in
// rand.Int63n on the negative slack.
func TestPositionsRejectsOverflowingRegimen(t *testing.T) {
	if _, err := Positions(1_000_000, Regimen{ClusterSize: 1 << 63, NumClusters: 2}, 1); err == nil {
		t.Fatal("Positions accepted a regimen whose clusters exceed the workload")
	}
}

func TestValidateRegions(t *testing.T) {
	ok := []Region{{Start: 0, Size: 10}, {Start: 10, Size: 10}, {Start: 90, Size: 10}}
	if err := ValidateRegions(ok, 100); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		regions []Region
		total   uint64
		want    string
	}{
		{"overlap", []Region{{Start: 0, Size: 20}, {Start: 10, Size: 10}}, 100, "overlapping"},
		{"unsorted", []Region{{Start: 50, Size: 10}, {Start: 0, Size: 10}}, 100, "behind the simulated position"},
		{"zero-size", []Region{{Start: 0, Size: 0}}, 100, "zero size"},
		{"past-end", []Region{{Start: 95, Size: 10}}, 100, "past the workload"},
		{"starts past end", []Region{{Start: 101, Size: 1}}, 100, "past the workload"},
		{"end wraps uint64", []Region{{Start: 50, Size: ^uint64(0) - 10}}, 100, "past the workload"},
	}
	for _, tc := range cases {
		err := ValidateRegions(tc.regions, tc.total)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestRunRegionsRejectsBadRegions: the walker validates its own input, so an
// out-of-order or wrapping list errors instead of wrapping the skip distance.
func TestRunRegionsRejectsBadRegions(t *testing.T) {
	p := syntheticWorkload()
	for name, regions := range map[string][]Region{
		"out of order": {{Start: 5000, Size: 100}, {Start: 1000, Size: 100}},
		"end wraps":    {{Start: 1000, Size: ^uint64(0)}},
	} {
		if res, err := RunRegions(p, DefaultMachine(), regions, warmup.Spec{}.New, Options{}); err == nil || res != nil {
			t.Errorf("%s: RunRegions = %v, %v; want an error and no result", name, res, err)
		}
	}
}

// TestRunSampledRefusesOutOfRangeWarmup: the spec is the caller's (rsr.RunSampled
// passes it straight through), and out of range it used to mean two things —
// FP (150%) warmed nothing, R$BP (150%) everything. Both entry points refuse it.
func TestRunSampledRefusesOutOfRangeWarmup(t *testing.T) {
	p, reg := syntheticWorkload(), Regimen{ClusterSize: 500, NumClusters: 4}
	for _, c := range []struct {
		spec warmup.Spec
		want string
	}{
		{warmup.Spec{Kind: warmup.KindFixed, Percent: 150, Cache: true, BPred: true}, "Percent"},
		{warmup.Spec{Kind: warmup.KindReverse, Percent: -1, Cache: true}, "Percent"},
		{warmup.Spec{Kind: warmup.Kind(7)}, "Kind"},
	} {
		if res, err := RunSampled(p, DefaultMachine(), reg, 40_000, 1, c.spec); err == nil || res != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RunSampled(%+v) = %v, %v; want a refusal naming %s", c.spec, res, err, c.want)
		}
		if res, err := RunSampledOpts(p, DefaultMachine(), reg, 40_000, 1, c.spec, Options{}); err == nil || res != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RunSampledOpts(%+v) = %v, %v; want a refusal naming %s", c.spec, res, err, c.want)
		}
	}
}

// sizedMethod records what the walker announced as the longest cold phase and
// the longest one it then began, plus whether any came before the announcement.
type sizedMethod struct {
	warmup.Method
	announced, longest uint64
	calls              int
	early              bool
}

func (s *sizedMethod) SizeRegions(longest uint64) { s.announced, s.calls = longest, s.calls+1 }

func (s *sizedMethod) BeginSkip(expectedLen uint64) {
	s.early = s.early || s.calls == 0
	s.longest = max(s.longest, expectedLen)
	s.Method.BeginSkip(expectedLen)
}

// TestRunRegionsAnnouncesLongest: a warmup.RegionSizer hears the longest cold
// phase once, before the first region, and it is the longest the run then
// presents.
func TestRunRegionsAnnouncesLongest(t *testing.T) {
	p := syntheticWorkload()
	regions := []Region{{Start: 3000, Size: 500}, {Start: 12_000, Size: 500}, {Start: 14_000, Size: 500}, {Start: 20_000, Size: 500}}
	var sm *sizedMethod
	mk := func(h *mem.Hierarchy, u *bpred.Unit) warmup.Method {
		sm = &sizedMethod{Method: warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}.New(h, u)}
		return sm
	}
	if _, err := RunRegions(p, DefaultMachine(), regions, mk, Options{}); err != nil {
		t.Fatal(err)
	}
	const want = 8500
	if sm.calls != 1 || sm.early || sm.announced != want || sm.longest != want {
		t.Errorf("announced %d in %d calls (a region first: %v), longest begun %d; want %d once, first", sm.announced, sm.calls, sm.early, sm.longest, want)
	}
}
