// Package simpoint implements the selection half of the SimPoint baseline
// the paper compares against (§5, Figure 9): basic-block-vector profiling at
// a configurable interval size, k-means clustering of the vectors, and the
// choice of one representative simulation point per cluster with a weight
// proportional to cluster population. Simulating the chosen intervals and
// weighting their IPC is the regimen package's SimPoint strategy, which runs
// them through the same region walker as every other sampling strategy.
package simpoint

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rsr/internal/funcsim"
	"rsr/internal/prog"
	"rsr/internal/sampling"
	"rsr/internal/trace"
)

// Interval is one profiling window's basic-block vector: instruction counts
// attributed to each basic-block leader PC, normalized to sum to one.
type Interval struct {
	Index  int
	Vector map[uint64]float64
}

// Profile executes the first `total` instructions of p functionally,
// recording a normalized basic-block vector for every window of
// intervalSize instructions. A basic block begins at the target (or
// fall-through) of every control transfer.
//
// Only whole windows are profiled: the trailing partial interval of
// total%intervalSize instructions is never executed and appears in no
// vector. The second return value is the covered instruction count —
// the instructions actually profiled, n*intervalSize for the n returned
// intervals — so estimators can account for the dropped tail instead of
// silently assuming the profile spans `total`.
//
// stop, when non-nil, is polled after every instruction batch; once it
// reports true the pass ends with sampling.ErrCanceled.
func Profile(p *prog.Program, total, intervalSize uint64, stop func() bool) ([]Interval, uint64, error) {
	if intervalSize == 0 || total < intervalSize {
		return nil, 0, errors.New("simpoint: interval size must be positive and at most the total length")
	}
	fs := funcsim.New(p)
	buf := make([]trace.DynInst, funcsim.BatchSize)
	n := int(total / intervalSize)
	intervals := make([]Interval, 0, n)
	counts := make(map[uint64]uint64)
	leader := p.Entry
	var covered uint64

	flush := func() {
		v := make(map[uint64]float64, len(counts))
		for pc, c := range counts {
			v[pc] = float64(c) / float64(intervalSize)
		}
		intervals = append(intervals, Interval{Index: len(intervals), Vector: v})
		counts = make(map[uint64]uint64)
	}

	for i := 0; i < n; i++ {
		ran, err := fs.RunBatches(intervalSize, buf, func(ds []trace.DynInst) {
			for k := range ds {
				counts[leader]++
				if ds[k].IsBranch() {
					leader = ds[k].NextPC
				}
			}
			covered += uint64(len(ds))
		}, stop)
		switch {
		case err != nil:
			return nil, covered, fmt.Errorf("simpoint: profiling: %w", err)
		case stop != nil && stop():
			return nil, covered, sampling.ErrCanceled
		case ran != intervalSize:
			return nil, covered, fmt.Errorf("simpoint: workload halted during profiling interval %d", i)
		}
		flush()
	}
	return intervals, covered, nil
}

// Point is one chosen simulation point.
type Point struct {
	IntervalIndex int
	// Weight is the fraction of profiled intervals its cluster covers.
	Weight float64
}

// Pick clusters the interval vectors with seeded k-means (k-means++
// initialization, Euclidean distance) and returns one representative point
// per non-empty cluster, sorted by interval index. k is clamped to the
// number of intervals.
func Pick(intervals []Interval, k int, seed int64) []Point {
	_, points := Clusters(intervals, k, seed)
	return points
}

// Clusters is the k-means machinery behind Pick, additionally exposing the
// per-interval cluster assignment (assign[i] is interval i's cluster id in
// [0,k)) so phase-aware regimens can stratify by BBV cluster. The points are
// exactly what Pick returns for the same inputs.
func Clusters(intervals []Interval, k int, seed int64) (assign []int, points []Point) {
	if len(intervals) == 0 || k <= 0 {
		return nil, nil
	}
	if k > len(intervals) {
		k = len(intervals)
	}
	rng := rand.New(rand.NewSource(seed))

	// Index every basic-block leader once and hold each interval as a
	// sorted sparse vector over that dictionary, with centroids dense. A
	// distance then costs O(nnz) adds in fixed index order instead of
	// O(nnz) hash probes in random map order — both the k-means hot loop
	// (intervals × k × iterations distance calls) and the determinism
	// contract depend on this: float addition is not associative, so
	// accumulating over `range` of a map would make distances (and, on
	// near-ties, assignments) vary run to run.
	seen := map[uint64]struct{}{}
	for _, iv := range intervals {
		for pc := range iv.Vector {
			seen[pc] = struct{}{}
		}
	}
	keys := make([]uint64, 0, len(seen))
	for pc := range seen {
		keys = append(keys, pc)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	index := make(map[uint64]int, len(keys))
	for i, pc := range keys {
		index[pc] = i
	}
	dim := len(keys)

	vecs := make([]sparseVec, len(intervals))
	for i, iv := range intervals {
		pcs := make([]uint64, 0, len(iv.Vector))
		for pc := range iv.Vector {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(a, b int) bool { return pcs[a] < pcs[b] })
		s := sparseVec{idx: make([]int32, len(pcs)), val: make([]float64, len(pcs))}
		for j, pc := range pcs {
			s.idx[j] = int32(index[pc])
			s.val[j] = iv.Vector[pc]
		}
		vecs[i] = s
	}

	// k-means++ initialization.
	centroids := make([][]float64, 0, k)
	norms := make([]float64, 0, k)
	addCentroid := func(i int) {
		c := vecs[i].dense(dim)
		centroids = append(centroids, c)
		norms = append(norms, norm2(c))
	}
	addCentroid(rng.Intn(len(intervals)))
	d2 := make([]float64, len(intervals))
	for len(centroids) < k {
		var sum float64
		for i := range intervals {
			best := math.Inf(1)
			for ci, c := range centroids {
				if d := distSD(vecs[i], c, norms[ci]); d < best {
					best = d
				}
			}
			d2[i] = best
			sum += best
		}
		if sum == 0 {
			// All remaining points coincide with centroids; duplicate one.
			addCentroid(rng.Intn(len(intervals)))
			continue
		}
		r := rng.Float64() * sum
		idx := 0
		for i := range d2 {
			r -= d2[i]
			if r <= 0 {
				idx = i
				break
			}
		}
		addCentroid(idx)
	}

	assign = make([]int, len(intervals))
	for iter := 0; iter < 25; iter++ {
		changed := false
		for i := range intervals {
			best, bestD := 0, math.Inf(1)
			for ci, c := range centroids {
				if d := distSD(vecs[i], c, norms[ci]); d < bestD {
					best, bestD = ci, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		sums := make([][]float64, k)
		ns := make([]int, k)
		for i := range vecs {
			c := assign[i]
			ns[c]++
			if sums[c] == nil {
				sums[c] = make([]float64, dim)
			}
			s := vecs[i]
			for j, ix := range s.idx {
				sums[c][ix] += s.val[j]
			}
		}
		for ci := range centroids {
			if ns[ci] == 0 {
				continue
			}
			inv := 1 / float64(ns[ci])
			for j := range sums[ci] {
				sums[ci][j] *= inv
			}
			centroids[ci] = sums[ci]
			norms[ci] = norm2(sums[ci])
		}
	}

	// Representative per cluster: the member closest to the centroid.
	repIdx := make([]int, k)
	repDist := make([]float64, k)
	counts := make([]int, k)
	for i := range repIdx {
		repIdx[i] = -1
		repDist[i] = math.Inf(1)
	}
	for i := range intervals {
		c := assign[i]
		counts[c]++
		if d := distSD(vecs[i], centroids[c], norms[c]); d < repDist[c] {
			repDist[c] = d
			repIdx[c] = i
		}
	}
	for c := 0; c < k; c++ {
		if repIdx[c] < 0 {
			continue
		}
		points = append(points, Point{
			IntervalIndex: intervals[repIdx[c]].Index,
			Weight:        float64(counts[c]) / float64(len(intervals)),
		})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].IntervalIndex < points[j].IntervalIndex })
	return assign, points
}

// sparseVec is one interval's vector over the Clusters dictionary: parallel
// index/value arrays sorted by index.
type sparseVec struct {
	idx []int32
	val []float64
}

func (s sparseVec) dense(dim int) []float64 {
	c := make([]float64, dim)
	for j, ix := range s.idx {
		c[ix] = s.val[j]
	}
	return c
}

func norm2(c []float64) float64 {
	var n float64
	for _, x := range c {
		n += x * x
	}
	return n
}

// distSD is squared Euclidean distance between a sparse vector and a dense
// centroid with cached squared norm: ‖a−c‖² = ‖c‖² + Σ_{k∈a} a_k(a_k − 2c_k).
// Rounding can push an exact-match distance a hair below zero; clamping keeps
// the k-means++ weights non-negative.
func distSD(s sparseVec, c []float64, cNorm float64) float64 {
	d := cNorm
	for j, ix := range s.idx {
		v := s.val[j]
		d += v * (v - 2*c[ix])
	}
	if d < 0 {
		d = 0
	}
	return d
}
