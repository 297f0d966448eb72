package trace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// collectB2 reads every record of a b2 input through NewFormatReader.
func collectB2(r io.Reader) ([]Record, error) {
	s, err := NewFormatReader(r, FormatB2)
	if err != nil {
		return nil, err
	}
	return Collect(s)
}

// fuzzB2RoundTrip is the property both the fuzzer and the seed guard
// check: the b2 reader's two branches — the pipe (onlyReader: read into
// memory first) and in place (a *bytes.Reader) — reach the same verdict
// on data, error text included; and accepted data decodes into records
// that the parallel Stream(3) reproduces record for record, that a block
// decoder's FileIDs name (requireDecoderContract), and that re-encode
// deterministically — encode(decode(data)) is a fixed point of a
// further decode/encode cycle.
func fuzzB2RoundTrip(t *testing.T, data []byte) (accepted bool) {
	recs, err := collectB2(onlyReader{bytes.NewReader(data)})
	inPlace, inErr := collectB2(bytes.NewReader(data))
	if fmt.Sprint(err) != fmt.Sprint(inErr) {
		t.Fatalf("pipe and in-place reads disagree: %v vs %v", err, inErr)
	}
	if err != nil {
		return false // rejected input is fine; panicking or hanging is not
	}
	requireSameRecords(t, inPlace, recs, "in place vs pipe")
	epoch := Epoch
	if len(data) > 0 {
		f, reads := openCounted(t, data)
		par, err := Collect(f.Stream(3))
		if err != nil {
			t.Fatalf("accepted input fails parallel decode: %v", err)
		}
		requireSameRecords(t, par, recs, "parallel vs sequential")
		requireDecoderContract(t, f, reads, recs)
		epoch = f.Epoch()
	}
	var enc1 bytes.Buffer
	w := NewB2WriterEpoch(&enc1, epoch)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatalf("accepted input does not re-encode: record %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs2, err := collectB2(bytes.NewReader(enc1.Bytes()))
	if err != nil {
		t.Fatalf("re-encoded trace does not decode: %v", err)
	}
	var enc2 bytes.Buffer
	w2 := NewB2WriterEpoch(&enc2, epoch)
	for i := range recs2 {
		if err := w2.Write(&recs2[i]); err != nil {
			t.Fatalf("re-decoded trace does not encode: record %d: %v", i, err)
		}
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
		t.Fatal("encode → decode → encode is not byte-stable")
	}
	return true
}

// FuzzB2RoundTrip is the robustness gate for the b2 decoder, mirroring
// FuzzSnapshotRoundTrip: arbitrary input must either be rejected, with
// the same error from a pipe as in place, or decode into records that
// re-encode byte-stably and read identically from a pipe, in place and
// through the parallel Stream.
func FuzzB2RoundTrip(f *testing.F) {
	for _, seed := range b2FuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzB2RoundTrip(t, data)
	})
}

// b2FuzzSeeds loads the committed corpus under testdata/fuzz so the
// seeds ride along in normal test runs too.
func b2FuzzSeeds() [][]byte {
	dir := filepath.Join("testdata", "fuzz", "FuzzB2RoundTrip")
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out [][]byte
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n.Name()))
		if err != nil {
			continue
		}
		if data, ok := parseFuzzCorpusBytes(string(b)); ok {
			out = append(out, data)
		}
	}
	return out
}

// parseFuzzCorpusBytes extracts the single []byte value of a "go test
// fuzz v1" corpus file.
func parseFuzzCorpusBytes(s string) ([]byte, bool) {
	lines := strings.SplitN(s, "\n", 2)
	if len(lines) != 2 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		return nil, false
	}
	v := strings.TrimSpace(lines[1])
	v = strings.TrimSuffix(strings.TrimPrefix(v, "[]byte("), ")")
	q, err := strconv.Unquote(v)
	if err != nil {
		return nil, false
	}
	return []byte(q), true
}

// TestB2FuzzSeedsValid keeps the committed corpus honest: it must
// exist, hold at least one decodable trace and at least one rejected
// input, and every seed must satisfy the fuzz property.
func TestB2FuzzSeedsValid(t *testing.T) {
	seeds := b2FuzzSeeds()
	if len(seeds) < 3 {
		t.Fatalf("committed fuzz corpus holds %d seeds, want at least 3", len(seeds))
	}
	valid, invalid := 0, 0
	for i, s := range seeds {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d panicked: %v", i, r)
				}
			}()
			if fuzzB2RoundTrip(t, s) {
				valid++
			} else {
				invalid++
			}
		}()
	}
	if valid == 0 || invalid == 0 {
		t.Fatalf("corpus must mix accepted and rejected seeds (got %d accepted, %d rejected)", valid, invalid)
	}
}
