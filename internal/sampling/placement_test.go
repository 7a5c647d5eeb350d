package sampling

import (
	"fmt"
	"strings"
	"testing"
)

// CheckPlacement verifies the invariants every placement of cluster starts
// under a regimen must satisfy: one start per stratum in stratum order
// (which implies sorted and non-overlapping — consecutive starts are at
// least ClusterSize apart because each cluster fits inside its own stratum),
// and every cluster ends within the workload. Positions guarantees these by
// construction; this is the oracle the placement tests hold it to.
func CheckPlacement(starts []uint64, total uint64, r Regimen) error {
	if err := r.Validate(total); err != nil {
		return err
	}
	if len(starts) != r.NumClusters {
		return fmt.Errorf("sampling: %d starts for %d clusters", len(starts), r.NumClusters)
	}
	stratum := total / uint64(r.NumClusters)
	for i, s := range starts {
		lo := uint64(i) * stratum
		if s < lo || s > lo+stratum-r.ClusterSize {
			return fmt.Errorf("sampling: start %d at %d outside its stratum [%d,%d]",
				i, s, lo, lo+stratum-r.ClusterSize)
		}
		if s+r.ClusterSize > total {
			return fmt.Errorf("sampling: cluster %d ends at %d, past the workload length %d",
				i, s+r.ClusterSize, total)
		}
		if i > 0 && s < starts[i-1]+r.ClusterSize {
			return fmt.Errorf("sampling: cluster %d at %d overlaps cluster %d at %d",
				i, s, i-1, starts[i-1])
		}
	}
	return nil
}

func TestPositionsInvariants(t *testing.T) {
	cases := []struct {
		name  string
		total uint64
		reg   Regimen
	}{
		{"typical", 200_000, Regimen{ClusterSize: 2000, NumClusters: 10}},
		{"uneven-strata", 1_000_003, Regimen{ClusterSize: 1000, NumClusters: 7}},
		{"tight", 20_000, Regimen{ClusterSize: 2000, NumClusters: 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				starts, err := Positions(tc.total, tc.reg, seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckPlacement(starts, tc.total, tc.reg); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestPositionsZeroSlack(t *testing.T) {
	// Strata exactly the cluster size: no randomness left, every start must
	// sit at its stratum boundary for every seed.
	reg := Regimen{ClusterSize: 2000, NumClusters: 10}
	for seed := int64(0); seed < 5; seed++ {
		starts, err := Positions(20_000, reg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckPlacement(starts, 20_000, reg); err != nil {
			t.Fatal(err)
		}
		for i, s := range starts {
			if s != uint64(i)*2000 {
				t.Fatalf("seed %d: zero-slack start %d = %d, want %d", seed, i, s, i*2000)
			}
		}
	}
}

func TestPositionsSingleCluster(t *testing.T) {
	reg := Regimen{ClusterSize: 5000, NumClusters: 1}
	starts, err := Positions(100_000, reg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 1 {
		t.Fatalf("starts = %v", starts)
	}
	if err := CheckPlacement(starts, 100_000, reg); err != nil {
		t.Fatal(err)
	}
	// The single stratum is the whole workload; its cluster must still fit.
	if starts[0]+reg.ClusterSize > 100_000 {
		t.Fatalf("cluster [%d,%d) exceeds workload", starts[0], starts[0]+reg.ClusterSize)
	}
}

func TestCheckPlacementRejects(t *testing.T) {
	reg := Regimen{ClusterSize: 1000, NumClusters: 4}
	const total = 40_000 // stratum = 10_000
	cases := []struct {
		name   string
		starts []uint64
		want   string
	}{
		{"count", []uint64{0, 10_000}, "starts for"},
		{"outside-stratum", []uint64{0, 5_000, 15_000, 30_000}, "outside its stratum"},
		{"unsorted", []uint64{9_500, 10_000, 20_000, 30_000}, "outside its stratum"},
	}
	for _, tc := range cases {
		err := CheckPlacement(tc.starts, total, reg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// A regimen that fails Validate fails CheckPlacement with the same error.
	if err := CheckPlacement(nil, 100, Regimen{ClusterSize: 1000, NumClusters: 4}); err == nil {
		t.Fatal("invalid regimen accepted")
	}
}
