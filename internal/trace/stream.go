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
// migration replays). On a stream error it returns the records read
// before it with the error.
func Collect(s Stream) ([]Record, error) {
	var c Collector
	for {
		r, err := s.Next()
		if err == io.EOF {
			return c.Records(), nil
		}
		if err != nil {
			return c.Records(), err
		}
		c.Add(r)
	}
}

// collectChunk is the number of records one Collector chunk holds.
const collectChunk = 1024

// Collector gathers records of unknown count in fixed-size chunks and
// copies them out once, at their exact length: a growing slice would
// allocate, zero and copy its pointer-laden records about five times
// over before the trace ends. The zero value is ready to use.
type Collector struct {
	full [][]Record
	cur  []Record
}

// Add appends one record.
func (c *Collector) Add(r Record) {
	if len(c.cur) == cap(c.cur) {
		if c.cur != nil {
			c.full = append(c.full, c.cur)
		}
		c.cur = make([]Record, 0, collectChunk)
	}
	c.cur = append(c.cur, r)
}

// Records returns every record added so far, in order, as one slice of
// exact length (nil when there are none).
func (c *Collector) Records() []Record {
	if c.cur == nil {
		return nil
	}
	out := make([]Record, 0, len(c.full)*collectChunk+len(c.cur))
	for _, chunk := range c.full {
		out = append(out, chunk...)
	}
	return append(out, c.cur...)
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
