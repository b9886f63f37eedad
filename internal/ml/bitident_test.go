//go:build amd64 && !amd64.v3

// The pinned bits below were recorded on amd64 without FMA. Go may fuse a
// multiply and an add into one FMA instruction on arm64, ppc64, s390x and
// amd64.v3+, which rounds once instead of twice, so a fit there is
// reproducible on that platform but not equal to these pins.

package ml

import (
	"math"
	"math/rand"
	"testing"
)

// pinnedSet is a seeded synthetic 11-feature training set shaped like the
// §IV-D design matrix: a continuous input size, a thread count, seven
// small-integer variable codes (one of them constant) and a context code.
func pinnedSet() ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(13))
	x := make([][]float64, 400)
	y := make([]bool, len(x))
	for i := range x {
		row := make([]float64, 11)
		row[0] = rng.Float64() * 4
		row[1] = float64(1 + rng.Intn(48))
		for j := 2; j < 9; j++ {
			row[j] = float64(rng.Intn(4))
		}
		row[9] = 7
		row[10] = float64(rng.Intn(15))
		x[i] = row
		y[i] = 0.8*row[0]-0.05*row[1]+0.3*row[3]-0.2*row[6]+rng.NormFloat64()*0.7 > 0.5
	}
	return x, y
}

// TestLogisticBitIdentity pins the exact IEEE-754 bits of a default fit.
// The influence heatmaps, and with them the rendered report, are only
// reproducible if every change to the fitting kernel keeps the same
// floating-point operations in the same order; a reordered sum shows up
// here as a changed bit.
func TestLogisticBitIdentity(t *testing.T) {
	x, y := pinnedSet()
	m, err := FitLogistic(x, y, LogisticOptions{})
	if err != nil {
		t.Fatalf("FitLogistic: %v", err)
	}
	check := func(name string, got []float64, want []uint64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
		}
		for j, v := range got {
			if math.Float64bits(v) != want[j] {
				t.Errorf("%s[%d] = %#016x (%v), want %#016x", name, j, math.Float64bits(v), v, want[j])
			}
		}
	}
	check("Intercept", []float64{m.Intercept}, []uint64{0xbf9729f717e403e6})
	check("Coef", m.Coef, []uint64{
		0x3fff7121db15501e, 0xbff976acc1d1fc33, 0xbfc7109ff0372bd4, 0x3feaf3891b7b1696,
		0xbfd05b9ec2e746f4, 0xbfc4065550fb3709, 0xbfe366253a1c512c, 0xbfb47a5b3d1e3963,
		0xbfb66f617faab184, 0x0000000000000000, 0x3fc43218d792199b,
	})
	check("Scaler.Mean", m.Scaler.Mean, []uint64{
		0x3fff3ab3f92fb6fb, 0x4037d9999999999a, 0x3ff78f5c28f5c28f, 0x3ff7f5c28f5c28f6,
		0x3ff8851eb851eb85, 0x3ff8b851eb851eb8, 0x3ff83d70a3d70a3d, 0x3ff91eb851eb851f,
		0x3ff7666666666666, 0x401c000000000000, 0x401d0ccccccccccd,
	})
	check("Scaler.Std", m.Scaler.Std, []uint64{
		0x3ff222ef72ea8047, 0x402b4d74d548545b, 0x3ff1cfb8b398fd76, 0x3ff1f5bcb8ba0ff6,
		0x3ff17b9b39a5a1a1, 0x3ff1dfc19fe38dda, 0x3ff173c93a69009a, 0x3ff174656e8c06d8,
		0x3ff1f32ea2de3093, 0x3ff0000000000000, 0x401193081559eea7,
	})
	if acc := m.Accuracy(x, y); acc != 0.825 {
		t.Errorf("Accuracy = %v, want 0.825", acc)
	}
}
