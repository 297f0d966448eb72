package stats

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary serialization for CDFs, used by the s1 analysis-snapshot codec
// (internal/core, docs/snapshots.md). The encoding preserves insertion
// order, because float sums such as Mean accumulate in storage order: a
// decoded CDF answers every query with bit-identical results, and a
// merged chain of decoded CDFs matches the Merge of the originals.
//
// Layout (uvarint = unsigned LEB128, float64 = 8 raw little-endian
// bytes):
//
//	cdf := nVals uvarint (float64 × nVals)
//	       nRuns uvarint
//
// nRuns is always 0. It once counted weighted (value, multiplicity)
// runs, which no writer produces any more; UnmarshalBinary rejects a
// non-zero count, as it rejects truncation and trailing bytes, so corrupt
// input surfaces as an error, never a panic or a silently absurd CDF.
//
// Queries sort the sample arrays in place, so encode a CDF before
// querying it when byte-stable re-encoding matters (query results are
// order-insensitive either way; only the wire bytes and Mean's float
// accumulation order depend on it).

// AppendBinary appends the CDF's wire encoding to dst and returns the
// extended slice (the encoding.BinaryAppender interface). The error is
// always nil.
func (c *CDF) AppendBinary(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(c.vals)))
	for _, v := range c.vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return append(dst, 0), nil // nRuns
}

// MarshalBinary encodes the CDF (the encoding.BinaryMarshaler
// interface). The error is always nil.
func (c *CDF) MarshalBinary() ([]byte, error) { return c.AppendBinary(nil) }

// UnmarshalBinary replaces the CDF's contents with the decoded samples
// (the encoding.BinaryUnmarshaler interface). The input must be exactly
// one encoded CDF; trailing bytes, truncation and a non-zero run count
// are all errors that leave the receiver unchanged.
func (c *CDF) UnmarshalBinary(data []byte) error {
	dec, rest, err := decodeCDF(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("stats: %d trailing bytes after encoded CDF", len(rest))
	}
	*c = dec
	return nil
}

// decodeCDF decodes one CDF from the front of data, returning it and
// the remaining bytes.
func decodeCDF(data []byte) (CDF, []byte, error) {
	var c CDF
	nVals, data, err := cdfUvarint(data, "sample count")
	if err != nil {
		return c, nil, err
	}
	// Divide rather than multiply: 8*nVals wraps uint64 for huge declared
	// counts, which would slip past this check into make().
	if nVals > uint64(len(data))/8 {
		return c, nil, fmt.Errorf("stats: encoded CDF truncated: %d samples declared, %d bytes left", nVals, len(data))
	}
	if nVals > 0 {
		c.vals = make([]float64, nVals)
		for i := range c.vals {
			c.vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
	}
	nRuns, data, err := cdfUvarint(data, "run count")
	if err != nil {
		return c, nil, err
	}
	if nRuns != 0 {
		return c, nil, fmt.Errorf("stats: encoded CDF run count %d: weighted runs are not supported", nRuns)
	}
	return c, data, nil
}

// cdfUvarint decodes one uvarint from the front of data.
func cdfUvarint(data []byte, field string) (uint64, []byte, error) {
	v, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, fmt.Errorf("stats: encoded CDF %s: bad varint", field)
	}
	return v, data[k:], nil
}
