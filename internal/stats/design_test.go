package stats

import (
	"math"
	"math/rand"
	"testing"
)

// Sampling-design helpers in the SMARTS tradition: given a pilot sample's
// variability, size the cluster count needed to hit a target confidence
// half-width. The paper stresses that "care must be taken to select an
// appropriate sampling regimen"; these functions make the selection
// procedural, and TestDesignDeliversCoverage holds CI95 to the design they
// produce. No command sizes a regimen with them yet, so they live with that
// test.

// CoefficientOfVariation returns StdDev/Mean (0 for degenerate samples).
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// RequiredClusters returns the number of equal-size clusters needed so that
// the z-quantile confidence half-width is at most relErr of the mean, given
// the pilot coefficient of variation: n >= (z*cv/relErr)^2.
func RequiredClusters(cv, relErr, z float64) int {
	if relErr <= 0 || cv <= 0 || z <= 0 {
		return 1
	}
	n := math.Ceil((z * cv / relErr) * (z * cv / relErr))
	if n < 1 {
		return 1
	}
	return int(n)
}

// Required95 is RequiredClusters at the 95% confidence level.
func Required95(cv, relErr float64) int { return RequiredClusters(cv, relErr, Z95) }

// AchievableRelErr returns the confidence half-width (relative to the mean)
// a design with n clusters achieves for a given pilot cv.
func AchievableRelErr(cv float64, n int, z float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return z * cv / math.Sqrt(float64(n))
}

func TestCoefficientOfVariation(t *testing.T) {
	if CoefficientOfVariation([]float64{5, 5, 5}) != 0 {
		t.Error("constant sample cv should be 0")
	}
	if CoefficientOfVariation(nil) != 0 {
		t.Error("empty cv should be 0")
	}
	xs := []float64{1, 3}
	want := StdDev(xs) / 2
	if got := CoefficientOfVariation(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("cv = %v, want %v", got, want)
	}
}

func TestRequiredClustersInverseOfAchievable(t *testing.T) {
	for _, cv := range []float64{0.05, 0.3, 1.2} {
		for _, re := range []float64{0.01, 0.05, 0.2} {
			n := Required95(cv, re)
			if got := AchievableRelErr(cv, n, Z95); got > re+1e-12 {
				t.Errorf("cv=%v re=%v: n=%d achieves only %v", cv, re, n, got)
			}
			if n > 1 {
				if got := AchievableRelErr(cv, n-1, Z95); got <= re {
					t.Errorf("cv=%v re=%v: n=%d not minimal (n-1 achieves %v)", cv, re, n, got)
				}
			}
		}
	}
}

func TestRequiredClustersDegenerate(t *testing.T) {
	if RequiredClusters(0, 0.05, Z95) != 1 {
		t.Error("zero cv needs one cluster")
	}
	if RequiredClusters(0.5, 0, Z95) != 1 {
		t.Error("invalid target returns minimum")
	}
	if AchievableRelErr(0.5, 0, Z95) != math.Inf(1) {
		t.Error("zero clusters achieve nothing")
	}
}

func TestDesignDeliversCoverage(t *testing.T) {
	// End-to-end: size a design from a pilot, then verify the achieved CI
	// half-width is near the target on fresh samples.
	rng := rand.New(rand.NewSource(8))
	const trueMean, trueSD = 2.0, 0.5
	pilot := make([]float64, 40)
	for i := range pilot {
		pilot[i] = trueMean + trueSD*rng.NormFloat64()
	}
	target := 0.05
	n := Required95(CoefficientOfVariation(pilot), target)
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = trueMean + trueSD*rng.NormFloat64()
	}
	iv := CI95(sample)
	if rel := iv.Err / iv.Mean; rel > target*1.5 {
		t.Fatalf("designed n=%d achieved %.4f, target %.4f", n, rel, target)
	}
}
