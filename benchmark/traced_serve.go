package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"filemig/internal/core"
	"filemig/internal/serve"
	"filemig/internal/trace"
)

// newServeServer builds the daemon state migd would with its default
// flags; the clock only matters to /v1/file, which the probes pin.
func newServeServer() (*serve.Server, error) {
	return serve.NewServer(serve.Config{Opts: core.Options{}, Now: time.Now})
}

// migdTimes is what one pass over migd-live's in-process path took.
type migdTimes struct {
	post, report, checkpoint, restore time.Duration
	checkpointBytes                   int
	server                            *serve.Server
}

// migdPath is migd-live in-process: an in-process daemon behind a real
// loopback listener takes every batch from one closed-loop client, then
// reports, checkpoints, and a second daemon restores.
func (h *harness) migdPath(root spanRef, in *migdInputs) (t migdTimes, err error) {
	s, err := newServeServer()
	if err != nil {
		return t, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return t, err
	}
	hs := &http.Server{Handler: s}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
	}()
	base := "http://" + ln.Addr().String()
	client := newClient()
	defer client.CloseIdleConnections()

	if t.post, err = root.do("serve.http.ingest", func() error {
		for i := range in.batches {
			if _, err := httpPost(h.ctx, client, base+"/v1/ingest/batch", in.batches[i].frame); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return t, err
	}
	if got := s.StatsNow().Records; got != int64(in.records) {
		return t, fmt.Errorf("in-process daemon holds %d records, want %d", got, in.records)
	}
	if t.report, err = root.do("serve.report", func() error {
		body, err := httpGet(h.ctx, client, base+"/v1/report")
		if err != nil {
			return err
		}
		if got := sha(string(body)); got != in.wantReport {
			return fmt.Errorf("in-process /v1/report sha256 %s, want %s", got, in.wantReport)
		}
		return nil
	}); err != nil {
		return t, err
	}
	var ckpt []byte
	if t.checkpoint, err = root.do("serve.checkpoint.encode", func() error {
		var err error
		ckpt, err = s.EncodeCheckpoint()
		return err
	}); err != nil {
		return t, err
	}
	t.checkpointBytes = len(ckpt)
	if t.restore, err = root.do("serve.restore", func() error {
		s2, err := newServeServer()
		if err != nil {
			return err
		}
		if err := s2.RestoreCheckpoint(ckpt); err != nil {
			return err
		}
		if a, b := s.StatsNow(), s2.StatsNow(); a.Records != b.Records || a.Files != b.Files || a.Segments != b.Segments {
			return fmt.Errorf("restored daemon differs: %+v, was %+v", b, a)
		}
		return nil
	}); err != nil {
		return t, err
	}
	t.server = s
	return t, nil
}

// traceMigdLive measures the layers migd-live exercises.
func (l *layerRun) traceMigdLive(recs []trace.Record) {
	h := l.h
	const name = "migd-live"
	var in *migdInputs
	if !l.probe(name+": frame batches, render reference", func() error {
		var err error
		in, err = h.buildMigdInputs(recs)
		return err
	}) {
		return
	}
	n := in.records
	probes := l.tr.root(name+"/probes", name+".probes")
	defer probes.end()

	// serve.decode and serve.ingest: the two halves of a batch's cost
	// that are not HTTP, over the same frames in the same order.
	var decode, ingest time.Duration
	okParts := l.probe("serve: decode + ingest", func() error {
		batches := make([][]trace.Record, len(in.batches))
		mallocs, err := mallocsDuring(func() error {
			var err error
			decode, err = probes.do("serve.decode", func() error {
				for i := range in.batches {
					var err error
					if batches[i], err = serve.DecodeIngestFrame(in.batches[i].frame); err != nil {
						return err
					}
				}
				return nil
			})
			return err
		})
		if err != nil {
			return err
		}
		l.set("serve.decode.ns_per_rec", perRec(decode, n))
		l.set("serve.decode.allocs_per_rec", float64(mallocs)/float64(n))
		s, err := newServeServer()
		if err != nil {
			return err
		}
		mallocs, _ = mallocsDuring(func() error {
			ingest, _ = probes.do("serve.ingest", func() error {
				for _, b := range batches {
					s.Ingest(b)
				}
				return nil
			})
			return nil
		})
		l.set("serve.ingest.ns_per_rec", perRec(ingest, n))
		l.set("serve.ingest.allocs_per_rec", float64(mallocs)/float64(n))
		return nil
	})

	var t migdTimes
	inproc, ok := l.wholePath(name, func(root spanRef) error {
		var err error
		t, err = h.migdPath(root, in)
		return err
	})
	if !ok {
		return
	}
	if okParts {
		l.set("serve.http.us_per_batch", float64(t.post-decode-ingest)/float64(time.Microsecond)/float64(len(in.batches)))
	}
	l.set("serve.report.ms", ms(t.report))
	l.set("serve.checkpoint.encode.ms", ms(t.checkpoint))
	l.set("serve.checkpoint.bytes", float64(t.checkpointBytes))
	l.set("serve.restore.ms", ms(t.restore))
	st := t.server.StatsNow()
	l.set("serve.segments", float64(st.Segments))
	l.set("serve.files", float64(st.Files))

	l.probe("serve: fold", func() error {
		d, err := probes.do("serve.fold", func() error {
			_, err := t.server.Accumulate()
			return err
		})
		l.set("serve.fold.ms", ms(d))
		return err
	})
	l.probe("serve: file queries", func() error {
		now, err := time.Parse(time.RFC3339, in.now)
		if err != nil {
			return err
		}
		queries := 0
		d, err := probes.do("serve.file_query", func() error {
			for i := range in.batches {
				for _, p := range in.batches[i].paths {
					if _, ok := t.server.FileStatusAt(p, now); !ok {
						return fmt.Errorf("no live table entry for %s", p)
					}
					queries++
				}
			}
			return nil
		})
		l.set("serve.file_query.ns", perRec(d, queries))
		return err
	})

	l.processOverhead(name, inproc, func() (float64, error) {
		w := &workloadResult{Name: name, Correct: true}
		r, ok := h.migdRep(w, "traced-migd-live", in)
		if !ok || w.Failed > 0 || !w.Correct {
			return 0, fmt.Errorf("end-to-end rep failed (%d of %d operations)", w.Failed, w.Attempted)
		}
		return r.stat.wall, nil
	})
}
