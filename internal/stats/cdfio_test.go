package stats

import (
	"bytes"
	"strings"
	"testing"
)

// TestCDFBinaryRoundTrip checks that a CDF survives encode → decode with
// bit-identical query results and byte-stable re-encoding, including the
// insertion order Mean depends on.
func TestCDFBinaryRoundTrip(t *testing.T) {
	c := &CDF{}
	c.Add(3.5)
	c.Add(-1.25)
	c.Add(10)
	c.Add(3.5)
	c.Add(0.125)
	c.Add(2)

	enc, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := &CDF{}
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	// Re-encode before any query: queries sort samples in place, so
	// byte-stability is only promised for an unqueried CDF.
	reenc, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, reenc) {
		t.Fatal("re-encoding is not byte-stable")
	}
	if got.N() != c.N() {
		t.Fatalf("N = %d, want %d", got.N(), c.N())
	}
	if got.Mean() != c.Mean() {
		t.Fatalf("Mean = %v, want %v", got.Mean(), c.Mean())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if got.Quantile(q) != c.Quantile(q) {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got.Quantile(q), c.Quantile(q))
		}
	}

	empty := &CDF{}
	encEmpty, _ := empty.MarshalBinary()
	dec := &CDF{}
	if err := dec.UnmarshalBinary(encEmpty); err != nil {
		t.Fatalf("empty CDF: %v", err)
	}
	if dec.N() != 0 {
		t.Fatalf("empty CDF decoded %d samples", dec.N())
	}
}

// TestCDFBinaryMergeOrder checks the documented property the snapshot
// merge relies on: decoding two shard CDFs and merging them reproduces
// the exact sample order, so order-dependent float sums match.
func TestCDFBinaryMergeOrder(t *testing.T) {
	a, b := &CDF{}, &CDF{}
	whole := &CDF{}
	for i, v := range []float64{0.1, 1e17, -0.1, 3, 1e-9, 7} {
		if i < 3 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		whole.Add(v)
	}
	encA, _ := a.MarshalBinary()
	encB, _ := b.MarshalBinary()
	da, db := &CDF{}, &CDF{}
	if err := da.UnmarshalBinary(encA); err != nil {
		t.Fatal(err)
	}
	if err := db.UnmarshalBinary(encB); err != nil {
		t.Fatal(err)
	}
	da.Merge(db)
	if da.Mean() != whole.Mean() {
		t.Fatalf("merged Mean = %v, want %v", da.Mean(), whole.Mean())
	}
}

// TestCDFBinaryErrors feeds malformed encodings and expects errors (and
// an unchanged receiver), never panics.
func TestCDFBinaryErrors(t *testing.T) {
	valid := &CDF{}
	valid.Add(1)
	valid.Add(2)
	enc, _ := valid.MarshalBinary()

	cases := map[string][]byte{
		"empty input":        {},
		"truncated samples":  enc[:5],
		"missing run count":  enc[:len(enc)-1],
		"trailing bytes":     append(append([]byte{}, enc...), 0),
		"huge sample count":  {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"non-zero run count": {0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2},
		// 8 * (1<<61) wraps uint64 to exactly 0: the truncation guard
		// must divide, not multiply, or this reaches make() and panics.
		"sample count overflowing 8*n": appendUvarintBytes(nil, 1<<61),
		"huge run count":               appendUvarintBytes([]byte{0}, (1<<64-1)/9+1),
	}
	for name, data := range cases {
		c := &CDF{}
		c.Add(42)
		before, _ := c.MarshalBinary()
		if err := c.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: no error", name)
		}
		after, _ := c.MarshalBinary()
		if !bytes.Equal(before, after) {
			t.Errorf("%s: receiver modified on error", name)
		}
	}

	// A run count is refused by name: no writer produces runs.
	c := &CDF{}
	err := c.UnmarshalBinary([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2})
	if err == nil || !strings.Contains(err.Error(), "run count") {
		t.Errorf("a non-zero run count: error %v, want one naming the run count", err)
	}
}

// appendUvarintBytes is a tiny local uvarint appender so the test does
// not depend on the codec under test for building hostile input.
func appendUvarintBytes(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
