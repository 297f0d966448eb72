package workload

import (
	"math"
	"sync"
	"testing"
	"time"

	"io"

	"filemig/internal/device"
	"filemig/internal/stats"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// genOnce caches a mid-size generated trace shared by the calibration
// tests (generation is the expensive step).
var genOnce = struct {
	sync.Once
	res *Result
	err error
}{}

func generated(t *testing.T) *Result {
	t.Helper()
	genOnce.Do(func() {
		genOnce.res, genOnce.err = Generate(DefaultConfig(0.02, 1234))
	})
	if genOnce.err != nil {
		t.Fatalf("Generate: %v", genOnce.err)
	}
	return genOnce.res
}

func TestGenerateBasics(t *testing.T) {
	res := generated(t)
	if len(res.Records) == 0 {
		t.Fatal("no records generated")
	}
	// Sorted by time, inside the window.
	end := res.Config.end()
	for i, r := range res.Records {
		if i > 0 && r.Start.Before(res.Records[i-1].Start) {
			t.Fatalf("record %d out of order", i)
		}
		if r.Start.Before(res.Config.Start) || !r.Start.Before(end) {
			t.Fatalf("record %d at %v outside trace window", i, r.Start)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
	}
}

func TestGenerateScaleApproximation(t *testing.T) {
	res := generated(t)
	// At scale 0.02 expect roughly 0.02 * 3.5M ≈ 70k raw requests.
	// The generator is calibrated to ±40%.
	n := float64(len(res.Records))
	want := 0.02 * PaperRequests
	if n < want*0.6 || n > want*1.4 {
		t.Errorf("records = %.0f, want %.0f±40%%", n, want)
	}
}

func TestReadWriteMixMatchesTable3(t *testing.T) {
	res := generated(t)
	var reads, writes, readGB, writeGB float64
	for _, r := range res.Records {
		if !r.OK() {
			continue
		}
		if r.Op == trace.Read {
			reads++
			readGB += float64(r.Size)
		} else {
			writes++
			writeGB += float64(r.Size)
		}
	}
	refFrac := reads / (reads + writes)
	if refFrac < 0.58 || refFrac > 0.74 {
		t.Errorf("read fraction of references = %.3f, want ~0.66 (Table 3)", refFrac)
	}
	byteFrac := readGB / (readGB + writeGB)
	if byteFrac < 0.62 || byteFrac > 0.82 {
		t.Errorf("read fraction of bytes = %.3f, want ~0.73 (Table 3)", byteFrac)
	}
}

func TestDeviceMixMatchesTable3(t *testing.T) {
	res := generated(t)
	counts := map[device.Class]float64{}
	sizes := map[device.Class]*stats.Moments{
		device.ClassDisk:       {},
		device.ClassSiloTape:   {},
		device.ClassManualTape: {},
	}
	total := 0.0
	for _, r := range res.Records {
		if !r.OK() {
			continue
		}
		counts[r.Device]++
		total++
		sizes[r.Device].Add(float64(r.Size))
	}
	// Table 3 reference mix: disk 66%, silo 20%, manual 12% (of total).
	checks := []struct {
		dev  device.Class
		want float64
		tol  float64
	}{
		{device.ClassDisk, 0.66, 0.10},
		{device.ClassSiloTape, 0.20, 0.09},
		{device.ClassManualTape, 0.12, 0.08},
	}
	for _, c := range checks {
		got := counts[c.dev] / total
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%v reference share = %.3f, want %.2f±%.2f", c.dev, got, c.want, c.tol)
		}
	}
	// Average request sizes (Table 3): disk 3.75 MB, silo ~80 MB,
	// manual ~47 MB. Shapes: disk small; silo largest; manual between.
	disk := units.Bytes(sizes[device.ClassDisk].Mean())
	silo := units.Bytes(sizes[device.ClassSiloTape].Mean())
	manual := units.Bytes(sizes[device.ClassManualTape].Mean())
	if disk > units.Bytes(10*units.MB) {
		t.Errorf("disk mean request size = %v, want a few MB", disk)
	}
	if silo < units.Bytes(45*units.MB) {
		t.Errorf("silo mean request size = %v, want ~80 MB", silo)
	}
	if manual >= silo {
		t.Errorf("manual mean (%v) should be below silo mean (%v), Table 3", manual, silo)
	}
	if manual < units.Bytes(15*units.MB) {
		t.Errorf("manual mean request size = %v, want ~47 MB", manual)
	}
}

func TestManualTapeIsReadDominated(t *testing.T) {
	res := generated(t)
	var reads, writes float64
	for _, r := range res.Records {
		if r.OK() && r.Device == device.ClassManualTape {
			if r.Op == trace.Read {
				reads++
			} else {
				writes++
			}
		}
	}
	// Table 3: manual-tape writes are only 2% of manual activity.
	frac := writes / (reads + writes)
	if frac > 0.10 {
		t.Errorf("manual write share = %.3f, want under 0.10", frac)
	}
}

func TestErrorFraction(t *testing.T) {
	res := generated(t)
	errs := 0.0
	for _, r := range res.Records {
		if !r.OK() {
			errs++
			if r.Err != trace.ErrNoFile {
				t.Fatalf("unexpected error code %v", r.Err)
			}
		}
	}
	frac := errs / float64(len(res.Records))
	if math.Abs(frac-ErrorFraction) > 0.01 {
		t.Errorf("error fraction = %.4f, want %.4f (§5.1)", frac, ErrorFraction)
	}
}

func TestDiskThresholdRespected(t *testing.T) {
	res := generated(t)
	for _, r := range res.Records {
		if !r.OK() {
			continue
		}
		// The MSS sends everything over 30 MB straight to tape: no large
		// file may ever appear on the staging disks.
		if r.Device == device.ClassDisk && int64(r.Size) > int64(DiskThreshold) {
			t.Fatalf("%v-byte file on disk violates the 30 MB placement rule", r.Size)
		}
	}
}

func TestWritesFlatReadsPeaked(t *testing.T) {
	res := generated(t)
	var readByHour, writeByHour [24]float64
	for _, r := range res.Records {
		if !r.OK() {
			continue
		}
		h := r.Start.Hour()
		if r.Op == trace.Read {
			readByHour[h]++
		} else {
			writeByHour[h]++
		}
	}
	ratio := func(a [24]float64) float64 {
		min, max := a[0], a[0]
		for _, v := range a {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if min == 0 {
			min = 1
		}
		return max / min
	}
	if r := ratio(readByHour); r < 2.5 {
		t.Errorf("read hourly peak/trough = %.2f, want strong diurnal swing (Figure 4)", r)
	}
	if w := ratio(writeByHour); w > 1.6 {
		t.Errorf("write hourly peak/trough = %.2f, want nearly flat (Figure 4)", w)
	}
}

func TestWeekendReadDip(t *testing.T) {
	res := generated(t)
	var weekday, weekend float64
	var wdDays, weDays float64
	for d := 0; d < res.Config.Days; d++ {
		if wd := res.Rhythm.weekday(d); wd == time.Saturday || wd == time.Sunday {
			weDays++
		} else {
			wdDays++
		}
	}
	for _, r := range res.Records {
		if !r.OK() || r.Op != trace.Read {
			continue
		}
		if wd := r.Start.Weekday(); wd == time.Saturday || wd == time.Sunday {
			weekend++
		} else {
			weekday++
		}
	}
	perWeekday := weekday / wdDays
	perWeekend := weekend / weDays
	if perWeekend > 0.75*perWeekday {
		t.Errorf("weekend read rate %.1f vs weekday %.1f — want a clear dip (Figure 5)",
			perWeekend, perWeekday)
	}
}

func TestBurstInterarrivals(t *testing.T) {
	res := generated(t)
	var gaps stats.CDF
	for i := 1; i < len(res.Records); i++ {
		gaps.Add(res.Records[i].Start.Sub(res.Records[i-1].Start).Seconds())
	}
	// Figure 7: 90% of requests follow the previous one within 10 s at
	// full scale. At 2% scale the stream is 50x sparser, so the
	// within-burst fraction bounds what is achievable; require a strong
	// knee under 10 s.
	frac := gaps.P(10)
	if frac < 0.55 {
		t.Errorf("P(interarrival < 10s) = %.3f, want >= 0.55 (bursts on)", frac)
	}
}

func TestBurstsAblation(t *testing.T) {
	cfg := DefaultConfig(0.005, 99)
	cfg.Bursts = false
	flat, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Bursts = true
	bursty, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := func(res *Result) float64 {
		var gaps stats.CDF
		for i := 1; i < len(res.Records); i++ {
			gaps.Add(res.Records[i].Start.Sub(res.Records[i-1].Start).Seconds())
		}
		return gaps.P(10)
	}
	if p(bursty) <= p(flat)+0.2 {
		t.Errorf("bursts should sharply raise P(<10s): bursty=%.3f flat=%.3f",
			p(bursty), p(flat))
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := DefaultConfig(0.003, 7)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs across identical seeds", i)
		}
	}
}

func TestGenerateErrorsOnBadConfig(t *testing.T) {
	bad := DefaultConfig(0.01, 1)
	bad.Scale = 2
	if _, err := Generate(bad); err == nil {
		t.Error("scale > 1 should fail")
	}
	bad = DefaultConfig(0.01, 1)
	bad.Days = 3
	if _, err := Generate(bad); err == nil {
		t.Error("too-short trace should fail")
	}
	bad = DefaultConfig(0.01, 1)
	bad.Files = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero files should fail")
	}
}

func TestGeneratedPathsMatchNamespace(t *testing.T) {
	res := generated(t)
	// Every OK record's MSS path must come from the namespace tree.
	for _, r := range res.Records[:min(len(res.Records), 5000)] {
		if !r.OK() {
			continue
		}
		if len(r.MSSPath) == 0 || r.MSSPath[0] != '/' {
			t.Fatalf("bad MSS path %q", r.MSSPath)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRoundTripThroughCodec(t *testing.T) {
	cfg := DefaultConfig(0.002, 11)
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf writerBuffer
	if err := trace.WriteAllFormat(&buf, res.Records, trace.FormatASCII); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(res.Records) {
		t.Fatalf("decoded %d records, want %d", len(got), len(res.Records))
	}
}

// writerBuffer is a minimal bytes.Buffer stand-in to avoid importing bytes
// into this already-long test file... actually, simplicity wins:
type writerBuffer struct {
	data []byte
	off  int
}

func (b *writerBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *writerBuffer) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, errEOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

var errEOF = io.EOF
