package trace_test

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"filemig/internal/device"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// exampleRecords is a tiny two-record trace: a disk read followed by a
// silo write from the same user.
func exampleRecords() []trace.Record {
	return []trace.Record{
		{
			Start: trace.Epoch.Add(10 * time.Second), Op: trace.Read,
			Device: device.ClassDisk, Startup: 4 * time.Second,
			Transfer: 1500 * time.Millisecond, Size: units.Bytes(3 * units.MB),
			MSSPath: "/mss/u101/model.out", LocalPath: "/usr/tmp/u101/model.out",
			UserID: 101,
		},
		{
			Start: trace.Epoch.Add(25 * time.Second), Op: trace.Write,
			Device: device.ClassSiloTape, Startup: 85 * time.Second,
			Transfer: 40 * time.Second, Size: units.Bytes(80 * units.MB),
			MSSPath: "/mss/u101/model.hist", LocalPath: "/usr/tmp/u101/model.hist",
			UserID: 101,
		},
	}
}

// ExampleNewWriterEpoch encodes a trace in the paper's compact ASCII format:
// delta-encoded start times, packed flags, and a "=" same-user marker.
func ExampleNewWriterEpoch() {
	var buf bytes.Buffer
	w := trace.NewWriterEpoch(&buf, trace.Epoch)
	for _, r := range exampleRecords() {
		if err := w.Write(&r); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Print(buf.String())
	// Output:
	// #filemig-trace v1 epoch=654739200
	// 10 disk cray R 4 1500 3000000 101 /mss/u101/model.out /usr/tmp/u101/model.out
	// 15 cray silo W 85 40000 80000000 = /mss/u101/model.hist /usr/tmp/u101/model.hist
}

// ExampleOpenStream shows the streaming read path: the wire format
// (ASCII v1 here, binary b1 just the same) is sniffed from the header,
// and records arrive one at a time through the Stream interface.
func ExampleOpenStream() {
	var buf bytes.Buffer
	if err := trace.WriteAllFormat(&buf, exampleRecords(), trace.FormatBinary); err != nil {
		log.Fatal(err)
	}
	src, err := trace.OpenStream(&buf)
	if err != nil {
		log.Fatal(err)
	}
	n, err := trace.Copy(sinkFunc(func(r *trace.Record) error {
		fmt.Printf("%s %s %s\n", r.Op, r.Device, r.Size)
		return nil
	}), src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(n, "records")
	// Output:
	// read disk 3.00 MB
	// write silo 80.00 MB
	// 2 records
}

// sinkFunc adapts a function to the Sink interface.
type sinkFunc func(*trace.Record) error

func (f sinkFunc) Write(r *trace.Record) error { return f(r) }

// ExampleCopy transcodes a trace between the two wire formats: read a
// stream in whatever format arrives, write it back binary.
func ExampleCopy() {
	var ascii bytes.Buffer
	if err := trace.WriteAllFormat(&ascii, exampleRecords(), trace.FormatASCII); err != nil {
		log.Fatal(err)
	}
	asciiLen := ascii.Len()
	src, err := trace.OpenStream(&ascii)
	if err != nil {
		log.Fatal(err)
	}
	var bin bytes.Buffer
	dst := trace.NewFormatWriterEpoch(&bin, trace.FormatBinary, trace.Epoch)
	n, err := trace.Copy(dst, src)
	if err != nil {
		log.Fatal(err)
	}
	if err := dst.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transcoded %d records; binary is %d of %d ascii bytes\n",
		n, bin.Len(), asciiLen)
	// Output:
	// transcoded 2 records; binary is 144 of 192 ascii bytes
}
