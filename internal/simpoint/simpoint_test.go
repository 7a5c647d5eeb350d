package simpoint

import (
	"math"
	"testing"

	"rsr/internal/workload"
)

func TestProfileBasics(t *testing.T) {
	w, _ := workload.ByName("parser")
	ivs, covered, err := Profile(w.Build(), 100_000, 10_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 10 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	if covered != 100_000 {
		t.Fatalf("covered = %d, want 100000", covered)
	}
	for _, iv := range ivs {
		var sum float64
		for _, v := range iv.Vector {
			if v < 0 {
				t.Fatal("negative BBV weight")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("interval %d BBV sums to %f", iv.Index, sum)
		}
		if len(iv.Vector) < 2 {
			t.Fatalf("interval %d has only %d basic blocks", iv.Index, len(iv.Vector))
		}
	}
}

func TestProfileValidation(t *testing.T) {
	w, _ := workload.ByName("parser")
	if _, _, err := Profile(w.Build(), 1000, 0, nil); err == nil {
		t.Fatal("zero interval must error")
	}
	if _, _, err := Profile(w.Build(), 100, 1000, nil); err == nil {
		t.Fatal("interval larger than total must error")
	}
}

func TestProfileDeterministic(t *testing.T) {
	w, _ := workload.ByName("twolf")
	a, _, err := Profile(w.Build(), 50_000, 5_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := Profile(w.Build(), 50_000, 5_000, nil)
	for i := range a {
		if len(a[i].Vector) != len(b[i].Vector) {
			t.Fatal("profiles differ")
		}
		for pc, v := range a[i].Vector {
			if b[i].Vector[pc] != v {
				t.Fatal("profiles differ")
			}
		}
	}
}

func TestPickSeparableClusters(t *testing.T) {
	// Two obviously distinct phases must land in different clusters.
	mk := func(idx int, pc uint64) Interval {
		return Interval{Index: idx, Vector: map[uint64]float64{pc: 1}}
	}
	var ivs []Interval
	for i := 0; i < 10; i++ {
		ivs = append(ivs, mk(i, 0x1000))
	}
	for i := 10; i < 30; i++ {
		ivs = append(ivs, mk(i, 0x2000))
	}
	pts := Pick(ivs, 2, 1)
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	var wsum float64
	for _, p := range pts {
		wsum += p.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %f", wsum)
	}
	// The larger phase must carry 2/3 of the weight.
	var big Point
	for _, p := range pts {
		if p.Weight > big.Weight {
			big = p
		}
	}
	if big.IntervalIndex < 10 || math.Abs(big.Weight-2.0/3.0) > 1e-9 {
		t.Fatalf("dominant point = %+v", big)
	}
}

func TestPickClampsK(t *testing.T) {
	ivs := []Interval{
		{Index: 0, Vector: map[uint64]float64{1: 1}},
		{Index: 1, Vector: map[uint64]float64{2: 1}},
	}
	pts := Pick(ivs, 30, 1)
	if len(pts) > 2 {
		t.Fatalf("points = %d, want ≤2", len(pts))
	}
	if Pick(nil, 5, 1) != nil {
		t.Fatal("empty input must yield nil")
	}
}

func TestPickSortedAndDeterministic(t *testing.T) {
	w, _ := workload.ByName("gcc")
	ivs, _, err := Profile(w.Build(), 200_000, 10_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := Pick(ivs, 5, 9)
	bpts := Pick(ivs, 5, 9)
	if len(a) != len(bpts) {
		t.Fatal("nondeterministic point count")
	}
	for i := range a {
		if a[i] != bpts[i] {
			t.Fatal("nondeterministic points")
		}
		if i > 0 && a[i-1].IntervalIndex >= a[i].IntervalIndex {
			t.Fatal("points not sorted")
		}
	}
}

func TestProfileDropsTrailingPartialInterval(t *testing.T) {
	// 25K instructions at 10K granularity: two whole intervals profile, the
	// trailing 5K are never executed, and the covered count says so.
	w, _ := workload.ByName("parser")
	ivs, covered, err := Profile(w.Build(), 25_000, 10_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d, want 2", len(ivs))
	}
	if covered != 20_000 {
		t.Fatalf("covered = %d, want 20000 (trailing partial interval dropped)", covered)
	}
}

func TestClustersMatchesPick(t *testing.T) {
	w, _ := workload.ByName("gcc")
	ivs, _, err := Profile(w.Build(), 200_000, 10_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	assign, pts := Clusters(ivs, 5, 9)
	if len(assign) != len(ivs) {
		t.Fatalf("assignments = %d, want %d", len(assign), len(ivs))
	}
	direct := Pick(ivs, 5, 9)
	if len(pts) != len(direct) {
		t.Fatalf("points diverge from Pick: %d vs %d", len(pts), len(direct))
	}
	for i := range pts {
		if pts[i] != direct[i] {
			t.Fatalf("point %d diverges from Pick: %+v vs %+v", i, pts[i], direct[i])
		}
	}
	// Every representative must be assigned to the cluster it represents,
	// and every assignment must be a valid cluster id.
	for i, a := range assign {
		if a < 0 || a >= 5 {
			t.Fatalf("interval %d assigned to %d", i, a)
		}
	}
}
