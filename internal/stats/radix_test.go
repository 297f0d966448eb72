package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// floatBytes packs floats as the little-endian words the sort fuzzer
// reads.
func floatBytes(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// fuzzFloats is n samples cut from the fuzzer's words: the words
// themselves, in order, then again with the round number xored into
// their low bits, so a short input still fills a radix-sized slice
// with values that are not all ties.
func fuzzFloats(data []byte, n int) []float64 {
	words := len(data) / 8
	if words == 0 {
		return nil
	}
	vals := make([]float64, n)
	for i := range vals {
		w := binary.LittleEndian.Uint64(data[8*(i%words):])
		vals[i] = math.Float64frombits(w ^ uint64(i/words))
	}
	return vals
}

// requireStdlibOrder sorts a copy of vals with sort.Float64s and vals
// itself with sortFloats in scratch, fails unless the two agree bit for
// bit, and returns the scratch sortFloats hands back.
func requireStdlibOrder(t *testing.T, vals []float64, scratch *radixScratch) *radixScratch {
	t.Helper()
	want := slices.Clone(vals)
	sort.Float64s(want)
	scratch = sortFloats(vals, scratch)
	for i := range want {
		if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d: sample %d has bits %#x, sort.Float64s %#x",
				len(vals), i, math.Float64bits(vals[i]), math.Float64bits(want[i]))
		}
	}
	return scratch
}

// FuzzSortFloatsMatchesStdlib is the differential check on the radix
// sort: fuzzer-written float64s — NaN, ±0, ±Inf and subnormals among
// them — cut to n samples on either side of radixMin, sorted through
// sortFloats with a reused scratch buffer of another length, must hold
// exactly the bits sort.Float64s leaves; and so must a second slice
// sorted through the buffer the first sort handed back.
func FuzzSortFloatsMatchesStdlib(f *testing.F) {
	sub := math.SmallestNonzeroFloat64
	f.Add(floatBytes(3, -1, 2.5, 1e300, -1e-300, 7), uint16(radixMin+17), uint16(5))
	f.Add(floatBytes(sub, -sub, 4*sub, math.Inf(1), math.Inf(-1), 0), uint16(2*radixMin), uint16(3*radixMin))
	f.Add(floatBytes(1, math.NaN(), 2), uint16(radixMin), uint16(0))
	f.Add(floatBytes(1, math.Copysign(0, -1), 2), uint16(radixMin+1), uint16(radixMin))
	f.Add(floatBytes(42), uint16(radixMin+100), uint16(1))
	f.Add(floatBytes(5, -5, 0.5), uint16(radixMin-1), uint16(7))
	ulp := math.Nextafter(1, 2) - 1 // keys differing in the low digit alone: one pass, ending in the scratch
	f.Add(floatBytes(1, 1+ulp, 1+3*ulp, 1+2*ulp), uint16(radixMin+50), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, n, scratchLen uint16) {
		vals := fuzzFloats(data, int(n)%(3*radixMin))
		if vals == nil {
			return
		}
		scratch := &radixScratch{buf: make([]float64, int(scratchLen)%(3*radixMin))}
		for i := range scratch.buf {
			scratch.buf[i] = math.NaN()
		}
		for p := range scratch.counts {
			scratch.counts[p][p] = len(vals) // a stale count from an earlier sort
		}
		scratch = requireStdlibOrder(t, vals, scratch)
		second := fuzzFloats(data[len(data)/16*8:], len(vals)/2+radixMin)
		requireStdlibOrder(t, second, scratch)
	})
}

// BenchmarkSortFloats radix-sorts a Figure 7-sized sample — 586 979
// exponential inter-request intervals, the benchmark trace's count —
// in the fresh scratch a CDF's first query sorts in.
func BenchmarkSortFloats(b *testing.B) {
	rng := rand.New(rand.NewSource(1993))
	src := make([]float64, 586979)
	for i := range src {
		src[i] = 120 * rng.ExpFloat64()
	}
	vals := make([]float64, len(src))
	b.SetBytes(int64(8 * len(src)))
	b.ReportAllocs()
	for b.Loop() {
		copy(vals, src)
		sortFloats(vals, nil)
	}
}
