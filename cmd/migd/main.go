// Command migd runs the live ingest daemon: an HTTP server that
// accumulates access records as they happen, answers per-file
// migrate/keep/prefetch queries and renders the live analysis report,
// and checkpoints its state so a restart resumes exactly.
//
// Usage:
//
//	migd [-listen addr] [-checkpoint path] [-checkpoint-every n]
//	     [-checkpoint-interval d] [-dedup d] [-shard d]
//	     [-stp-k k] [-migrate-after d]
//
// -checkpoint names a directory. At startup migd restores from it; a
// missing directory, or one without a generation record, is a first
// start, and anything else it cannot restore (a file in its place, an
// unknown record version, a damaged stripe entry) stops the start with
// an error naming the file. It checkpoints there every
// -checkpoint-every ingested records and every -checkpoint-interval of
// wall time, and writes a final checkpoint after draining in-flight
// requests on SIGINT/SIGTERM; each checkpoint writes only the time
// stripes that ingested since the last one (docs/migd.md). The interval
// and final checkpoints are skipped (and say so) when nothing was
// ingested since the last one or the restore and the generation record
// is still in place.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"filemig/internal/core"
	"filemig/internal/host"
	"filemig/internal/serve"
)

// Connection hygiene for the listener. Neither bounds a request that is
// making progress: ReadHeaderTimeout is how long a client may take to
// send its request line and headers (a body, a report render and the
// response are not timed), IdleTimeout how long a keep-alive connection
// may sit between requests before the daemon closes it.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("migd: ")
	var (
		listen       = flag.String("listen", "127.0.0.1:8477", "address to serve HTTP on")
		checkpoint   = flag.String("checkpoint", "", "checkpoint directory: restored at startup, written on cadence and shutdown")
		ckptEvery    = flag.Int64("checkpoint-every", 0, "checkpoint after this many ingested records (0 disables)")
		ckptInterval = flag.Duration("checkpoint-interval", 0, "checkpoint on this wall-time interval (0 disables)")
		dedup        = flag.Duration("dedup", 0, "per-file dedup window (0 means the paper's eight hours)")
		shardDur     = flag.Duration("shard", 0, "time width of a stripe, the segments one checkpoint entry holds (0 means one week)")
		stpK         = flag.Float64("stp-k", 0, "STP rank exponent for /v1/file (0 means 1.4)")
		migrateAfter = flag.Duration("migrate-after", 0, "idle age at which /v1/file says migrate (0 means one week)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: migd [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(*listen, *checkpoint, *ckptEvery, *ckptInterval, *dedup, *shardDur, *stpK, *migrateAfter); err != nil {
		log.Fatal(err)
	}
}

// run builds, restores, serves, drains, and finally checkpoints the
// daemon.
func run(listen, checkpoint string, ckptEvery int64, ckptInterval, dedup, shardDur time.Duration, stpK float64, migrateAfter time.Duration) error {
	s, err := serve.NewServer(serve.Config{
		Opts:            core.Options{DedupWindow: dedup},
		ShardDuration:   shardDur,
		CheckpointPath:  checkpoint,
		CheckpointEvery: ckptEvery,
		Now:             host.Now,
		STPK:            stpK,
		MigrateAfter:    migrateAfter,
		Logf:            log.Printf,
	})
	if err != nil {
		return err
	}
	if checkpoint != "" {
		err := s.RestoreCheckpointDir(checkpoint)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// First start: nothing to resume.
		case err != nil:
			return err
		default:
			st := s.StatsNow()
			log.Printf("restored %d records in %d segments from %s", st.Records, st.Segments, checkpoint)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Addr: listen, Handler: s, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	if ckptInterval > 0 && checkpoint != "" {
		go func() {
			t := time.NewTicker(ckptInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if wrote, err := s.CheckpointIfChanged(); err != nil {
						log.Printf("interval checkpoint: %v", err)
					} else if !wrote {
						log.Printf("interval checkpoint skipped: nothing ingested since the last one")
					}
				}
			}
		}()
	}
	go func() {
		<-ctx.Done()
		log.Printf("shutting down: draining in-flight requests")
		drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(drainCtx); err != nil {
			log.Printf("drain: %v", err)
		}
	}()

	log.Printf("serving on %s", listen)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if checkpoint != "" {
		wrote, err := s.CheckpointIfChanged()
		if err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		if wrote {
			log.Printf("final checkpoint written to %s", checkpoint)
		} else {
			log.Printf("final checkpoint skipped: nothing ingested since %s was written or restored", checkpoint)
		}
	}
	return nil
}
