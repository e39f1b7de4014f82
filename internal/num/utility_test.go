package num

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLogUtilityValue(t *testing.T) {
	if got := LogUtility(2, math.E); math.Abs(got-2) > 1e-12 {
		t.Errorf("LogUtility(2, e) = %g, want 2", got)
	}
	if !math.IsInf(LogUtility(2, 0), -1) {
		t.Error("LogUtility(2, 0) should be -Inf")
	}
	if !math.IsInf(LogUtility(2, -1), -1) {
		t.Error("LogUtility(2, -1) should be -Inf")
	}
}

// TestLogUtilityRateInverse: the kernel's rate at path price p must invert
// the marginal utility U'(x) = w/x, and the path-price floor keeps it finite.
func TestLogUtilityRateInverse(t *testing.T) {
	const w = 3
	inf := math.Inf(1)
	for _, x := range []float64{0.5, 1, 10, 1e9} {
		price := w / x // U'(x)
		if got, _ := logRate(w, price, minPathPrice, inf); math.Abs(got-x)/x > 1e-12 {
			t.Errorf("rate at U'(%g) = %g, want %g", x, got, x)
		}
	}
	if got, _ := logRate(w, 0, minPathPrice, inf); got != w/minPathPrice {
		t.Errorf("rate at price 0 = %g, want the floor's %g", got, w/minPathPrice)
	}
	if got, _ := logRate(w, 0, minPathPrice, 10); got != 10 {
		t.Errorf("rate at price 0 capped at 10 = %g, want 10", got)
	}
}

// TestLogUtilityRateDeriv: the kernel's sensitivity is the derivative of its
// rate in the path price, negative for the concave log.
func TestLogUtilityRateDeriv(t *testing.T) {
	inf := math.Inf(1)
	rate := func(p float64) float64 { x, _ := logRate(1, p, minPathPrice, inf); return x }
	for _, p := range []float64{0.1, 1, 5} {
		const h = 1e-7
		numeric := (rate(p+h) - rate(p-h)) / (2 * h)
		_, analytic := logRate(1, p, minPathPrice, inf)
		if math.Abs(numeric-analytic)/math.Abs(analytic) > 1e-4 {
			t.Errorf("sensitivity at %g = %g, numeric %g", p, analytic, numeric)
		}
		if analytic >= 0 {
			t.Errorf("sensitivity at %g = %g, want negative", p, analytic)
		}
	}
}

// TestUtilityConcavityProperty: for random prices p1 < p2, the kernel's rate
// must not increase (concave utility => decreasing inverse marginal utility).
func TestUtilityConcavityProperty(t *testing.T) {
	inf := math.Inf(1)
	prop := func(a, b uint16) bool {
		p1 := float64(a%1000+1) / 100
		p2 := p1 + float64(b%1000+1)/100
		for _, w := range []float64{1, 7} {
			x1, _ := logRate(w, p1, minPathPrice, inf)
			x2, _ := logRate(w, p2, minPathPrice, inf)
			if x1 < x2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}
