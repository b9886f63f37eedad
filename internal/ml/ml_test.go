package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStandardizer(t *testing.T) {
	x := [][]float64{{1, 10}, {2, 10}, {3, 10}}
	s, err := FitStandardizer(x)
	if err != nil {
		t.Fatalf("FitStandardizer: %v", err)
	}
	if s.Mean[0] != 2 || s.Mean[1] != 10 {
		t.Errorf("means = %v", s.Mean)
	}
	if s.Std[1] != 1 {
		t.Errorf("constant column std should fall back to 1, got %v", s.Std[1])
	}
	xs := s.Apply(x)
	if xs[0][0] >= 0 || xs[2][0] <= 0 || xs[1][0] != 0 {
		t.Errorf("standardized column wrong: %v", xs)
	}
	if xs[0][1] != 0 {
		t.Errorf("constant column should centre to 0: %v", xs[0][1])
	}
}

func TestStandardizerErrors(t *testing.T) {
	if _, err := FitStandardizer(nil); err == nil {
		t.Error("empty matrix should error")
	}
	if _, err := FitStandardizer([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged matrix should error")
	}
}

func TestLinearRecoversPlane(t *testing.T) {
	// y = 3 + 2a - 5b, exactly.
	var x [][]float64
	var y []float64
	for a := 0.0; a < 5; a++ {
		for b := 0.0; b < 5; b++ {
			x = append(x, []float64{a, b})
			y = append(y, 3+2*a-5*b)
		}
	}
	m, err := FitLinear(x, y)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	if math.Abs(m.Intercept-3) > 1e-6 || math.Abs(m.Coef[0]-2) > 1e-6 || math.Abs(m.Coef[1]+5) > 1e-6 {
		t.Errorf("fit = %+v, want 3 + 2a - 5b", m)
	}
	if r2 := m.R2(x, y); r2 < 0.999999 {
		t.Errorf("R2 = %v, want ~1", r2)
	}
}

func TestLinearPoorFitOnNonlinearData(t *testing.T) {
	// The paper's §IV-D observation: a linear model cannot explain highly
	// non-linear response surfaces — R² stays low.
	var x [][]float64
	var y []float64
	for a := -3.0; a <= 3; a += 0.25 {
		x = append(x, []float64{a})
		y = append(y, math.Abs(a)) // V-shape
	}
	m, err := FitLinear(x, y)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	if r2 := m.R2(x, y); r2 > 0.3 {
		t.Errorf("R2 = %v on V-shaped data, expected poor fit", r2)
	}
}

func TestLinearBadInput(t *testing.T) {
	if _, err := FitLinear(nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := FitLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestLogisticSeparatesHalfPlanes(t *testing.T) {
	var x [][]float64
	var y []bool
	for a := -2.0; a <= 2; a += 0.2 {
		for b := -2.0; b <= 2; b += 0.2 {
			x = append(x, []float64{a, b})
			y = append(y, a+0.5*b > 0.3)
		}
	}
	m, err := FitLogistic(x, y, LogisticOptions{})
	if err != nil {
		t.Fatalf("FitLogistic: %v", err)
	}
	if acc := m.Accuracy(x, y); acc < 0.95 {
		t.Errorf("accuracy = %v, want >= 0.95", acc)
	}
	// Feature a is twice as influential as b in the true boundary.
	infl := m.Influence()
	if infl[0] <= infl[1] {
		t.Errorf("influence = %v, want feature 0 dominant", infl)
	}
	if s := infl[0] + infl[1]; math.Abs(s-1) > 1e-9 {
		t.Errorf("influence sums to %v, want 1", s)
	}
}

func TestLogisticIrrelevantFeatureLowInfluence(t *testing.T) {
	var x [][]float64
	var y []bool
	for i := 0; i < 400; i++ {
		a := float64(i%20) - 10
		noise := float64((i*7)%13) - 6
		x = append(x, []float64{a, noise})
		y = append(y, a > 0)
	}
	m, err := FitLogistic(x, y, LogisticOptions{Epochs: 500})
	if err != nil {
		t.Fatalf("FitLogistic: %v", err)
	}
	infl := m.Influence()
	if infl[1] > 0.2 {
		t.Errorf("irrelevant feature influence %v, want small", infl[1])
	}
}

func TestLogisticProbRange(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []bool{false, false, true, true}
	m, err := FitLogistic(x, y, LogisticOptions{})
	if err != nil {
		t.Fatalf("FitLogistic: %v", err)
	}
	f := func(v int8) bool {
		p := m.Prob([]float64{float64(v)})
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if m.Prob([]float64{3}) <= m.Prob([]float64{0}) {
		t.Error("probability should increase with the feature")
	}
}

func TestSigmoidStable(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Errorf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Errorf("sigmoid(-1000) = %v", s)
	}
	if s := sigmoid(0); s != 0.5 {
		t.Errorf("sigmoid(0) = %v", s)
	}
}

func TestInfluenceZeroModel(t *testing.T) {
	m := &LogisticModel{Coef: []float64{0, 0}}
	infl := m.Influence()
	if infl[0] != 0 || infl[1] != 0 {
		t.Errorf("zero model influence = %v", infl)
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {1, 1}}
	if _, err := solve(a, []float64{1, 2}); err == nil {
		t.Error("singular system should error")
	}
}

// BenchmarkFitLogistic times one fit on a group the size of a Fig 3 row
// (~80k samples of the 11 §IV-D features).
func BenchmarkFitLogistic(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([][]float64, 80000)
	y := make([]bool, len(x))
	for i := range x {
		row := make([]float64, 11)
		for j := range row {
			row[j] = float64(rng.Intn(6))
		}
		x[i] = row
		y[i] = row[1]-row[3]+rng.NormFloat64() > 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitLogistic(x, y, LogisticOptions{Epochs: 60}); err != nil {
			b.Fatal(err)
		}
	}
}
