package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

func TestSliceStreamCollect(t *testing.T) {
	recs := sampleRecords()
	got, err := Collect(SliceStream(recs))
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("Collect(SliceStream(recs)) != recs")
	}
	s := SliceStream(nil)
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("empty SliceStream Next = %v, want io.EOF", err)
	}
}

// TestCollectMatchesAppend checks Collect against a plain append at the
// lengths around its chunk boundary.
func TestCollectMatchesAppend(t *testing.T) {
	sample := sampleRecords()
	for _, n := range []int{0, 1, collectChunk - 1, collectChunk, collectChunk + 1, 3*collectChunk + 7} {
		var want []Record
		for i := 0; i < n; i++ {
			r := sample[i%len(sample)]
			r.UserID = uint32(i)
			want = append(want, r)
		}
		got, err := Collect(SliceStream(want))
		if err != nil {
			t.Fatalf("n=%d: Collect: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) || len(got) != cap(got) {
			t.Fatalf("n=%d: Collect returned %d records (cap %d), differing from the %d appended", n, len(got), cap(got), len(want))
		}
	}
}

// TestCollectKeepsRecordsBeforeError checks that a stream failing past a
// chunk boundary still yields every record read before the error.
func TestCollectKeepsRecordsBeforeError(t *testing.T) {
	boom := errors.New("boom")
	var recs []Record
	for i := 0; i < collectChunk+3; i++ {
		r := sampleRecords()[0]
		r.UserID = uint32(i)
		recs = append(recs, r)
	}
	got, err := Collect(&errStream{recs: recs, err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("Collect err = %v, want boom", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("Collect kept %d records before the error, want the %d read", len(got), len(recs))
	}
}

func TestCopyStreamToSink(t *testing.T) {
	recs := sampleRecords()
	for _, f := range []Format{FormatASCII, FormatBinary} {
		var buf bytes.Buffer
		w := NewFormatWriterEpoch(&buf, f, recs[0].Start)
		n, err := Copy(w, SliceStream(recs))
		if err != nil {
			t.Fatalf("%v: Copy: %v", f, err)
		}
		if n != int64(len(recs)) || w.Count() != n {
			t.Fatalf("%v: copied %d (writer count %d), want %d", f, n, w.Count(), len(recs))
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("%v: ReadAll: %v", f, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%v: round trip lost records: %d of %d", f, len(got), len(recs))
		}
	}
}

func TestCopyPropagatesStreamError(t *testing.T) {
	boom := errors.New("boom")
	src := &errStream{recs: sampleRecords()[:2], err: boom}
	var buf bytes.Buffer
	n, err := Copy(NewWriterEpoch(&buf, Epoch), src)
	if !errors.Is(err, boom) {
		t.Fatalf("Copy err = %v, want boom", err)
	}
	if n != 2 {
		t.Fatalf("Copy moved %d records before the error, want 2", n)
	}
}

type errStream struct {
	recs []Record
	i    int
	err  error
}

func (s *errStream) Next() (Record, error) {
	if s.i < len(s.recs) {
		s.i++
		return s.recs[s.i-1], nil
	}
	return Record{}, s.err
}

// TestReaderIsStream pins the codec readers to the Stream interface and
// the writers to FlushSink, so the streaming pipeline can hold any of
// them interchangeably.
func TestReaderIsStream(t *testing.T) {
	var _ Stream = (*Reader)(nil)
	var _ Stream = (*BinaryReader)(nil)
	var _ FlushSink = (*Writer)(nil)
	var _ FlushSink = (*BinaryWriter)(nil)
}
