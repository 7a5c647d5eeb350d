package main

import (
	"math"
	"sort"
	"time"
)

// quartiles are order statistics of one metric's per-round values.
type quartiles struct {
	P25, Median, P75, Min float64
}

// quartilesOf picks the quartiles as order statistics, each rounded towards
// the quiet side: p25 is element (n-1)/4 of the ascending values and p75 its
// mirror image, so n = 5, 7, 11 give indices (1,3), (1,5), (2,8). Host
// interference on this kind of machine is one-sided — it only ever makes a
// round slower — so the quiet quartile (p25 of seconds, p75 of rates)
// repeats between sets of rounds where the median does not; README.md has
// the measurements behind the rule.
func quartilesOf(xs []float64) quartiles {
	if len(xs) == 0 {
		return quartiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	k := (n - 1) / 4
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return quartiles{P25: s[k], Median: med, P75: s[n-1-k], Min: s[0]}
}

// spreadPct is the interquartile range as a percentage of the median.
func spreadPct(xs []float64) float64 {
	q := quartilesOf(xs)
	return 100 * ratio(q.P75-q.P25, q.Median)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// ratio is a/b, 0 when the denominator is 0 (a layer the workload never
// entered reads 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// calibrationSink keeps the calibration loop's result live.
var calibrationSink uint64

// calibrate times a fixed pure-ALU xorshift loop. It touches no memory, so
// its round-to-round spread (host_jitter_pct) separates CPU-side noise —
// frequency changes, a stolen core — from the memory-side interference the
// quiet-quartile rule is built for; a set of rounds with high jitter is
// unreliable whatever its quartiles say.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink += x
	return time.Since(t0).Seconds()
}

// clockCost measures what one timed call costs the traced run, for a timer
// that reads time.Since(epoch) before and after the call: inner is the part
// of the pair that lands inside the measured interval, pair the wall clock
// the whole pair takes. The predictor shim times every Predict, where these
// tens of nanoseconds are as large as the call itself, so the replay
// subtracts inner from the shim's reading and books pair-inner as tracing
// overhead instead of leaving it in the timing model's self time.
func clockCost(epoch time.Time) (inner, pair time.Duration) {
	const n = 200000
	var in time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a := time.Since(epoch)
		in += time.Since(epoch) - a
	}
	return in / n, time.Since(t0) / n
}

// span is one completed interval of the layer replay.
type span struct {
	ID, Parent int64 // Parent 0 = a root
	Name       string
	Layer      string
	Track      int64
	Dur        time.Duration
}

// selfTimes returns each span's duration minus the durations of its direct
// children. The replay's children never overlap one another, so subtracting
// each child once is exactly the part of the interval the children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.Dur
		if s.Parent != 0 {
			self[s.Parent] -= s.Dur
		}
	}
	return self
}
