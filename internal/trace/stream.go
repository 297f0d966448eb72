package trace

import "io"

// This file is the streaming layer: records flowing one at a time instead
// of as materialized []Record slices. Everything that produces a trace
// (the workload generator, the codec readers) can be viewed as a Stream,
// and everything that consumes one (the codec writers, the analysis) as a
// Sink, so multi-year traces move through the pipeline in O(1) record
// memory. See docs/trace-format.md for the wire formats behind the codec
// implementations of these interfaces.

// Stream is a pull-based source of trace records in non-decreasing start
// order. Next returns io.EOF after the final record; any other error is a
// decoding or transport failure and ends the stream. Both codec readers
// (*Reader, *BinaryReader) implement Stream.
type Stream interface {
	Next() (Record, error)
}

// Sink consumes trace records one at a time, in non-decreasing start
// order. Both codec writers (*Writer, *BinaryWriter) implement Sink.
type Sink interface {
	Write(r *Record) error
}

// FlushSink is a Sink with buffered output that must be flushed when the
// stream ends; the codec writers implement it.
type FlushSink interface {
	Sink
	Flush() error
	Count() int64
}

// sliceStream adapts an in-memory record slice to the Stream interface.
type sliceStream struct {
	recs []Record
	i    int
}

// SliceStream returns a Stream that yields the given records in order.
// The slice is not copied; it must not be mutated while streaming.
func SliceStream(recs []Record) Stream {
	return &sliceStream{recs: recs}
}

// Next yields the next record of the underlying slice, or io.EOF.
func (s *sliceStream) Next() (Record, error) {
	if s.i >= len(s.recs) {
		return Record{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// Collect drains a Stream into a slice. It is the inverse of SliceStream
// and the bridge back to the slice-based APIs (the MSS simulator, the
// migration replays).
func Collect(s Stream) ([]Record, error) {
	var out []Record
	for {
		r, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// Copy pumps src into dst until io.EOF, returning the number of records
// moved. It does not flush dst; callers owning a FlushSink flush it when
// the whole stream is done.
func Copy(dst Sink, src Stream) (int64, error) {
	var n int64
	for {
		r, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := dst.Write(&r); err != nil {
			return n, err
		}
		n++
	}
}
