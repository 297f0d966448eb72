// Command tracegen synthesizes an NCAR-like mass-storage trace in the
// paper's compact ASCII format (§4.2), the binary b1 format, or the
// columnar b2 block format and writes it to a file or stdout.
//
// Usage:
//
//	tracegen -scale 0.02 -seed 1 -o trace.txt
//	tracegen -scale 0.05 -format binary -o trace.b1
//	tracegen -scale 0.05 -format b2 -o trace.b2   # seekable block format
//	tracegen -scale 0.01 -sim           # with simulated latencies
//	tracegen -scale 0.001 -raw          # verbose system-log form (§4.1)
//
// Scale 1.0 reproduces the paper's two-year, ~3.5M-request trace; start
// small. Records stream from the generator — through the MSS simulator
// with -sim, which holds only the requests in flight — into the encoder
// one at a time, so large traces never materialize in memory and a
// downstream reader starts work at once; only -raw collects the trace
// first.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"filemig/internal/mss"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	var (
		scale    = flag.Float64("scale", 0.01, "workload scale relative to the paper (0,1]")
		seed     = flag.Int64("seed", 1, "deterministic RNG seed")
		days     = flag.Int("days", workload.PaperSpanDays, "trace length in days")
		out      = flag.String("o", "-", "output file ('-' for stdout)")
		format   = flag.String("format", "ascii", "trace wire format: ascii, binary or b2")
		sim      = flag.Bool("sim", false, "replay through the MSS simulator to fill latencies")
		raw      = flag.Bool("raw", false, "emit the verbose system-log format instead")
		noBursts = flag.Bool("no-bursts", false, "disable session burst packing")
		noHoli   = flag.Bool("no-holidays", false, "disable the holiday calendar")
	)
	flag.Parse()

	wireFormat, err := trace.ParseFormat(*format)
	if err != nil {
		log.Fatal(err)
	}
	if *raw && wireFormat != trace.FormatASCII {
		log.Fatalf("-raw emits the verbose ASCII system-log form; -format %s does not apply", wireFormat)
	}
	cfg := workload.DefaultConfig(*scale, *seed)
	cfg.Days = *days
	cfg.Bursts = !*noBursts
	cfg.Holidays = !*noHoli

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}

	// Generator → (simulator →) encoder, one record at a time: the
	// simulator holds only the requests in flight.
	sr, err := workload.GenerateStream(cfg)
	if err != nil {
		log.Fatal(err)
	}
	src := sr.Stream
	if *sim {
		src = mss.NewSimulator(mss.DefaultConfig(*seed)).ReplayStream(src)
	}
	var n int64
	if *raw {
		// WriteRawLog takes the trace as a slice; materialize it.
		recs, err := trace.Collect(src)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteRawLog(w, recs); err != nil {
			log.Fatal(err)
		}
		n = int64(len(recs))
	} else {
		// The epoch is the first record's start, matching WriteAllFormat,
		// so streamed and materialized traces quantize deltas on the same
		// one-second grid.
		first, err := src.Next()
		if err != nil && err != io.EOF {
			log.Fatal(err)
		}
		if err == nil {
			tw := trace.NewFormatWriterEpoch(w, wireFormat, first.Start)
			if err := tw.Write(&first); err != nil {
				log.Fatal(err)
			}
			if _, err := trace.Copy(tw, src); err != nil {
				log.Fatal(err)
			}
			if err := tw.Flush(); err != nil {
				log.Fatal(err)
			}
			n = tw.Count()
		}
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d records over %d days (%d files, %d users)\n",
		n, cfg.Days, cfg.Files, cfg.Users)
}
