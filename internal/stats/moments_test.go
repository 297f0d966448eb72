package stats

import (
	"math"
	"testing"
)

func TestMomentsBasics(t *testing.T) {
	var m Moments
	if !math.IsNaN(m.Mean()) {
		t.Error("empty moments should be NaN")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(v)
	}
	if m.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", m.Mean())
	}
}
