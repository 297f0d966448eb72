package workload

import (
	"crypto/sha256"
	"fmt"
	"io"
	"testing"
	"time"

	"filemig/internal/trace"
)

// TestGenerateStreamMatchesGenerate pins the streaming generator to the
// materializing one: same config, same records, same order — including
// the burst-packed and burst-free paths and the error records.
func TestGenerateStreamMatchesGenerate(t *testing.T) {
	for _, tc := range []struct {
		scale  float64
		seed   int64
		days   int
		bursts bool
	}{
		{0.003, 5, 90, true},
		{0.003, 5, 90, false},
		{0.001, 9, 30, true},
	} {
		cfg := DefaultConfig(tc.scale, tc.seed)
		cfg.Days = tc.days
		cfg.Bursts = tc.bursts
		want, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := GenerateStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Planned != len(want.Records) {
			t.Fatalf("Planned = %d, want %d", sr.Planned, len(want.Records))
		}
		i := 0
		for {
			got, err := sr.Stream.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if i >= len(want.Records) {
				t.Fatalf("stream yielded more than %d records", len(want.Records))
			}
			w := want.Records[i]
			if !got.Start.Equal(w.Start) || got.Op != w.Op || got.Device != w.Device ||
				got.Err != w.Err || got.Size != w.Size || got.UserID != w.UserID ||
				got.MSSPath != w.MSSPath || got.LocalPath != w.LocalPath {
				t.Fatalf("record %d differs:\nstream %+v\nslice  %+v", i, got, w)
			}
			i++
		}
		if i != len(want.Records) {
			t.Fatalf("stream yielded %d records, want %d", i, len(want.Records))
		}
	}
}

// TestGenerateStreamSorted verifies the merged stream is time-sorted,
// which the codec writers and the sharded analysis both rely on.
func TestGenerateStreamSorted(t *testing.T) {
	cfg := DefaultConfig(0.004, 21)
	cfg.Days = 120
	sr, err := GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Time
	n := 0
	for {
		r, err := sr.Stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.Start.Before(prev) {
			t.Fatalf("record %d at %v precedes %v", n, r.Start, prev)
		}
		prev = r.Start
		n++
	}
	if n != sr.Planned {
		t.Fatalf("yielded %d, planned %d", n, sr.Planned)
	}
}

// TestGenerateStreamThroughCodec streams the generator straight into the
// binary writer — the tracegen -format binary pipeline — and checks the
// decoded record count.
func TestGenerateStreamThroughCodec(t *testing.T) {
	cfg := DefaultConfig(0.002, 13)
	cfg.Days = 60
	sr, err := GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf writerBuffer
	w := trace.NewFormatWriterEpoch(&buf, trace.FormatBinary, cfg.Start)
	n, err := trace.Copy(w, sr.Stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if n != int64(sr.Planned) {
		t.Fatalf("copied %d, planned %d", n, sr.Planned)
	}
	got, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != sr.Planned {
		t.Fatalf("decoded %d, planned %d", len(got), sr.Planned)
	}
}

func TestGenerateStreamValidatesConfig(t *testing.T) {
	bad := DefaultConfig(0.01, 1)
	bad.Scale = 0
	if _, err := GenerateStream(bad); err == nil {
		t.Fatal("zero scale accepted")
	}
	bad = DefaultConfig(0.01, 1)
	bad.Days = 2
	if _, err := GenerateStream(bad); err == nil {
		t.Fatal("two-day trace accepted")
	}
}

// TestGenerateGoldenHashes pins the generator's exact output. Generate is
// implemented as Collect(GenerateStream), so TestGenerateStreamMatchesGenerate
// alone cannot detect the stream implementation drifting away from what the
// eager generator historically produced — these hashes were recorded from
// the pre-streaming implementation and must never change for a fixed
// (scale, seed, days, bursts).
func TestGenerateGoldenHashes(t *testing.T) {
	golden := []struct {
		scale  float64
		seed   int64
		days   int
		bursts bool
		n      int
		sha    string
	}{
		{0.004, 77, 180, true, 10484, "c13fa55f647e2e30ac861f437d190a2052942d39bb109341316c23b74ef08845"},
		{0.002, 3, 60, false, 4890, "e9c032680044517265d4f058bd44aad102085bb2b0820d88771cf609a4888210"},
		{0.006, 19, 365, true, 16788, "3fabb1e5872fc2bf2e8299cd10e55dc5a193a71f61b314eed9ce0c309047053f"},
	}
	for _, g := range golden {
		cfg := DefaultConfig(g.scale, g.seed)
		cfg.Days = g.days
		cfg.Bursts = g.bursts
		res, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != g.n {
			t.Errorf("scale=%v seed=%d: %d records, want %d", g.scale, g.seed, len(res.Records), g.n)
			continue
		}
		var buf writerBuffer
		if err := trace.WriteAllFormat(&buf, res.Records, trace.FormatASCII); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.data)); got != g.sha {
			t.Errorf("scale=%v seed=%d days=%d bursts=%v: trace hash %s, want %s",
				g.scale, g.seed, g.days, g.bursts, got, g.sha)
		}
	}
}
