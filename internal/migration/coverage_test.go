package migration

import (
	"math"
	"testing"
	"time"

	"filemig/internal/units"
)

func TestCacheResultRatios(t *testing.T) {
	r := CacheResult{
		Reads: 10, ReadMisses: 2,
		BytesRead: units.Bytes(100), BytesMissed: units.Bytes(25),
	}
	if got := r.MissRatio(); got != 0.2 {
		t.Errorf("MissRatio = %v", got)
	}
	if got := r.ByteMissRatio(); got != 0.25 {
		t.Errorf("ByteMissRatio = %v", got)
	}
	empty := CacheResult{}
	if empty.MissRatio() != 0 || empty.ByteMissRatio() != 0 {
		t.Error("empty ratios should be 0")
	}
}

func TestSTPNameFormatting(t *testing.T) {
	cases := map[float64]string{
		1.4:  "STP^1.4",
		1.0:  "STP^1",
		0:    "STP^0",
		2.0:  "STP^2",
		0.5:  "STP^0.5",
		1.25: "STP^1.25",
		-1:   "STP^-1",
		// Exponents a fixed two-decimal rendering mangled or truncated.
		-1.4:  "STP^-1.4",
		-0.5:  "STP^-0.5",
		0.29:  "STP^0.29",
		1.255: "STP^1.255",
	}
	for k, want := range cases {
		if got := (STP{K: k}).Name(); got != want {
			t.Errorf("STP{%v}.Name() = %q, want %q", k, got, want)
		}
	}
}

func TestSTPRankClampsNegativeAge(t *testing.T) {
	// A file "referenced in the future" (clock skew) must not produce NaN.
	p := STP{K: 1.4}
	f := cf(1, units.Bytes(units.MB), -time.Hour, 1)
	if r := p.Rank(f, n0); math.IsNaN(r) || r != 0 {
		t.Errorf("rank with negative age = %v, want 0", r)
	}
	s := SAAC{}
	if r := s.Rank(f, n0); math.IsNaN(r) || r != 0 {
		t.Errorf("SAAC rank with negative age = %v, want 0", r)
	}
}
