package main

import (
	"testing"
	"time"
)

// tens returns 10, 20, ..., 10n in descending order, so the tests also
// cover the sort.
func tens(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(10 * (i + 1))
	}
	return xs
}

func TestQuartileIndexing(t *testing.T) {
	cases := []struct {
		n                int
		p25, median, p75 float64
	}{
		{n: 5, p25: 20, median: 30, p75: 40},  // indices 1 and 3
		{n: 7, p25: 20, median: 40, p75: 60},  // indices 1 and 5
		{n: 11, p25: 30, median: 60, p75: 90}, // indices 2 and 8
		{n: 1, p25: 10, median: 10, p75: 10},  // a single round is its own quartile
		{n: 2, p25: 10, median: 15, p75: 20},  // two rounds: min and max
		{n: 8, p25: 20, median: 45, p75: 70},  // even n: indices 1 and 6, median of the middle pair
	}
	for _, c := range cases {
		q := quartilesOf(tens(c.n))
		if q.P25 != c.p25 || q.Median != c.median || q.P75 != c.p75 || q.Min != 10 {
			t.Errorf("n=%d: got p25 %v median %v p75 %v min %v, want %v %v %v 10", c.n, q.P25, q.Median, q.P75, q.Min, c.p25, c.median, c.p75)
		}
	}
	if q := quartilesOf(nil); q != (quartiles{}) {
		t.Errorf("no rounds: got %+v, want zeros", q)
	}
}

func TestQuietQuartileHeadline(t *testing.T) {
	rep := newReport([]metricDef{{Name: "t", Unit: "s"}, {Name: "r", Unit: "1/s"}})
	rep.setSeconds("t", tens(11))
	rep.setRate("r", tens(11))
	if got := rep.Readings["t"].Value; got != 30 {
		t.Errorf("a timing's headline is p25: got %v, want 30", got)
	}
	if got := rep.Readings["r"].Value; got != 90 {
		t.Errorf("a rate's headline is p75: got %v, want 90", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := tens(20) // 10..200
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {100, 200}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v: got %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsEachChildOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Dur: 100 * ms},           // root
		{ID: 2, Parent: 1, Dur: 60 * ms}, // child with children of its own
		{ID: 3, Parent: 2, Dur: 25 * ms}, // grandchild: leaves the root alone
		{ID: 4, Parent: 2, Dur: 25 * ms}, // second grandchild
		{ID: 5, Parent: 1, Dur: 30 * ms}, // second child
		{ID: 6, Dur: 7 * ms},             // a second root
		{ID: 7, Parent: 6, Dur: 7 * ms},  // covering it entirely
		{ID: 8, Parent: 5, Dur: 0},       // an empty span changes nothing
	}
	want := map[int64]time.Duration{1: 10 * ms, 2: 10 * ms, 3: 25 * ms, 4: 25 * ms, 5: 30 * ms, 6: 0, 7: 7 * ms, 8: 0}
	got := selfTimes(spans)
	var total time.Duration
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, got[id], w)
		}
		total += got[id]
	}
	if total != 107*ms {
		t.Errorf("self times sum to %v, want the roots' 107ms", total)
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) reading { return reading{Value: v, N: 11, P25: v, Median: v, P75: v * 1.01} }
	noisy := func(v float64) reading { return reading{Value: v, N: 11, P25: v, Median: v, P75: v * 1.3} }
	cases := []struct {
		name   string
		a, b   reading
		better string
		bound  float64
		exact  bool
		want   string
	}{
		{"slower within bound", steady(1), steady(1.05), "lower", 0.10, false, verdictPass},
		{"slower beyond bound", steady(1), steady(1.2), "lower", 0.10, false, verdictFail},
		{"faster", steady(1), steady(0.5), "lower", 0.10, false, verdictPass},
		{"rate dropped beyond bound", steady(100), steady(80), "higher", 0.10, false, verdictFail},
		{"rate rose", steady(100), steady(150), "higher", 0.10, false, verdictPass},
		{"beyond bound but the rounds spread wider than the bound", noisy(1), steady(1.2), "lower", 0.10, false, verdictUnresolved},
		{"exact and equal", reading{Value: 3.25}, reading{Value: 3.25}, "lower", 0, true, verdictPass},
		{"exact and better is still a change", reading{Value: 3.25}, reading{Value: 3.2}, "lower", 0.5, true, verdictFail},
	}
	for _, c := range cases {
		if got, _ := judge(c.a, c.b, c.better, c.bound, c.exact); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}
