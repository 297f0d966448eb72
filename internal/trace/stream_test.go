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
	n, err := Copy(NewWriter(&buf), src)
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
