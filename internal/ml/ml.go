// Package ml implements the linear-models analysis of §IV-D: ordinary
// least-squares linear regression (whose poor fit on this data motivates
// the reformulation), L2-regularized logistic regression used as the
// classification surrogate, feature standardization, and the
// weight-normalized coefficient magnitudes that become the influence
// heatmaps of Figs. 2–4.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// Standardizer rescales features to zero mean and unit variance, fitted on
// a training matrix. Constant columns are left centred but unscaled.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer computes per-column statistics of X.
func FitStandardizer(x [][]float64) (*Standardizer, error) {
	if len(x) == 0 {
		return nil, errors.New("ml: empty design matrix")
	}
	cols := len(x[0])
	s := &Standardizer{Mean: make([]float64, cols), Std: make([]float64, cols)}
	for _, row := range x {
		if len(row) != cols {
			return nil, errors.New("ml: ragged design matrix")
		}
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1 // constant column: centre only
		}
	}
	return s, nil
}

// Apply returns a standardized copy of X.
func (s *Standardizer) Apply(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		r := make([]float64, len(row))
		for j, v := range row {
			r[j] = (v - s.Mean[j]) / s.Std[j]
		}
		out[i] = r
	}
	return out
}

// LinearModel is a fitted ordinary-least-squares regression.
type LinearModel struct {
	Intercept float64
	Coef      []float64
}

// FitLinear solves min ||y - Xb||² by normal equations with Gaussian
// elimination and partial pivoting; a tiny ridge term keeps the system
// well-posed when columns are collinear.
func FitLinear(x [][]float64, y []float64) (*LinearModel, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("ml: bad training data")
	}
	p := len(x[0]) + 1 // with intercept
	ata := make([][]float64, p)
	atb := make([]float64, p)
	for i := range ata {
		ata[i] = make([]float64, p)
	}
	row := make([]float64, p)
	for i, xr := range x {
		row[0] = 1
		copy(row[1:], xr)
		for a := 0; a < p; a++ {
			atb[a] += row[a] * y[i]
			for b := 0; b < p; b++ {
				ata[a][b] += row[a] * row[b]
			}
		}
	}
	for a := 0; a < p; a++ {
		ata[a][a] += 1e-8
	}
	sol, err := solve(ata, atb)
	if err != nil {
		return nil, err
	}
	return &LinearModel{Intercept: sol[0], Coef: sol[1:]}, nil
}

// Predict returns the regression value for one feature row.
func (m *LinearModel) Predict(row []float64) float64 {
	v := m.Intercept
	for j, c := range m.Coef {
		v += c * row[j]
	}
	return v
}

// R2 is the coefficient of determination on (x, y).
func (m *LinearModel) R2(x [][]float64, y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	ssRes, ssTot := 0.0, 0.0
	for i, row := range x {
		d := y[i] - m.Predict(row)
		ssRes += d * d
		t := y[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// solve performs Gaussian elimination with partial pivoting.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-14 {
			return nil, fmt.Errorf("ml: singular system at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		v := b[r]
		for c := r + 1; c < n; c++ {
			v -= a[r][c] * x[c]
		}
		x[r] = v / a[r][r]
	}
	return x, nil
}

// LogisticModel is a fitted binary classifier over standardized features.
type LogisticModel struct {
	Intercept float64
	Coef      []float64
	Scaler    *Standardizer
}

// LogisticOptions tunes the gradient-ascent fit.
type LogisticOptions struct {
	Epochs int     // full-batch gradient steps (default 300)
	LR     float64 // learning rate (default 0.5)
	L2     float64 // ridge penalty (default 1e-4)
}

// FitLogistic trains an L2-regularized logistic regression with full-batch
// gradient ascent on standardized features. Labels are booleans ("optimal"
// vs "sub-optimal" in the study).
func FitLogistic(x [][]float64, y []bool, opt LogisticOptions) (*LogisticModel, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("ml: bad training data")
	}
	if opt.Epochs <= 0 {
		opt.Epochs = 300
	}
	if opt.LR <= 0 {
		opt.LR = 0.5
	}
	if opt.L2 < 0 {
		opt.L2 = 0
	} else if opt.L2 == 0 {
		opt.L2 = 1e-4
	}
	scaler, err := FitStandardizer(x)
	if err != nil {
		return nil, err
	}
	// The standardized design matrix is one row-major slab (row i is
	// xs[i*p:(i+1)*p]) and the labels are 0/1 targets, converted once. The
	// epoch loop's floating-point operations and their order are pinned by
	// TestLogisticBitIdentity: the influence heatmaps, and every report
	// rendered from them, must stay the same bits when this loop changes.
	p := len(x[0])
	xs := make([]float64, len(x)*p)
	for i, row := range x {
		r := xs[i*p : (i+1)*p]
		for j, v := range row {
			r[j] = (v - scaler.Mean[j]) / scaler.Std[j]
		}
	}
	ts := make([]float64, len(y))
	for i, v := range y {
		if v {
			ts[i] = 1
		}
	}
	n := float64(len(x))
	w := make([]float64, p)
	b := 0.0
	gw := make([]float64, p)
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		clear(gw)
		gb := 0.0
		for i, t := range ts {
			row := xs[i*p : (i+1)*p]
			z := b
			for j, v := range row {
				z += w[j] * v
			}
			pr := sigmoid(z)
			e := t - pr
			gb += e
			for j, v := range row {
				gw[j] += e * v
			}
		}
		b += opt.LR * gb / n
		for j := range w {
			w[j] += opt.LR * (gw[j]/n - opt.L2*w[j])
		}
	}
	return &LogisticModel{Intercept: b, Coef: w, Scaler: scaler}, nil
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Prob returns P(optimal | row) for a raw (unstandardized) feature row.
func (m *LogisticModel) Prob(row []float64) float64 {
	z := m.Intercept
	for j, v := range row {
		z += m.Coef[j] * (v - m.Scaler.Mean[j]) / m.Scaler.Std[j]
	}
	return sigmoid(z)
}

// Accuracy is the 0.5-threshold classification accuracy on (x, y).
func (m *LogisticModel) Accuracy(x [][]float64, y []bool) float64 {
	if len(x) == 0 {
		return 0
	}
	hits := 0
	for i, row := range x {
		if (m.Prob(row) >= 0.5) == y[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(x))
}

// Influence returns the weight-normalized absolute coefficient magnitudes
// (§IV-D): each feature's share of the decision boundary, summing to 1.
// This is exactly what the heatmap cells of Figs. 2–4 display.
func (m *LogisticModel) Influence() []float64 {
	total := 0.0
	for _, c := range m.Coef {
		total += math.Abs(c)
	}
	out := make([]float64, len(m.Coef))
	if total == 0 {
		return out
	}
	for j, c := range m.Coef {
		out[j] = math.Abs(c) / total
	}
	return out
}
