package core

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"filemig/internal/device"
	"filemig/internal/mss"
	"filemig/internal/trace"
	"filemig/internal/units"
	"filemig/internal/workload"
)

// The calibration fixture: a 2%-scale two-year synthetic trace run
// through the MSS simulator, analysed once and shared across tests.
var fixture struct {
	sync.Once
	report *Report
	err    error
}

func report(t *testing.T) *Report {
	t.Helper()
	fixture.Do(func() {
		res, err := workload.Generate(workload.DefaultConfig(0.02, 77))
		if err != nil {
			fixture.err = err
			return
		}
		sim := mss.NewSimulator(mss.DefaultConfig(77))
		recs, err := sim.Replay(res.Records)
		if err != nil {
			fixture.err = err
			return
		}
		a := New(Options{Start: res.Config.Start, Days: res.Config.Days, Tree: res.Tree})
		a.AddAll(recs)
		fixture.report = a.Report()
	})
	if fixture.err != nil {
		t.Fatalf("fixture: %v", fixture.err)
	}
	return fixture.report
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.3f, want %.2f±%.2f", name, got, want, tol)
	}
}

func TestTable3ReferenceShares(t *testing.T) {
	r := report(t)
	total := r.Table3.Total()
	reads := r.Table3.OpTotal(trace.Read)
	approx(t, "read share of references",
		float64(reads.Refs)/float64(total.Refs), 0.66, 0.08)
	approx(t, "read share of bytes",
		float64(reads.Bytes)/float64(total.Bytes), 0.73, 0.10)
	// Device mix.
	approx(t, "disk share",
		float64(r.Table3.DevTotal(device.ClassDisk).Refs)/float64(total.Refs), 0.66, 0.10)
	approx(t, "silo share",
		float64(r.Table3.DevTotal(device.ClassSiloTape).Refs)/float64(total.Refs), 0.20, 0.09)
	approx(t, "manual share",
		float64(r.Table3.DevTotal(device.ClassManualTape).Refs)/float64(total.Refs), 0.12, 0.08)
	// Error rate ~4.76%.
	approx(t, "error fraction",
		float64(r.Table3.ErrorRefs)/float64(r.Table3.GrandTotal), 0.0476, 0.01)
}

func TestTable3Latencies(t *testing.T) {
	r := report(t)
	disk := r.Table3.DevTotal(device.ClassDisk).MeanLatency.Seconds()
	silo := r.Table3.DevTotal(device.ClassSiloTape).MeanLatency.Seconds()
	manual := r.Table3.DevTotal(device.ClassManualTape).MeanLatency.Seconds()
	// Paper: disk 29.67s, silo 104.08s, manual 290.18s. Our queueing at 2%
	// scale is lighter, so accept the ordering plus broad bands.
	if !(disk < silo && silo < manual) {
		t.Errorf("latency ordering wrong: disk=%.1f silo=%.1f manual=%.1f", disk, silo, manual)
	}
	if disk < 1 || disk > 45 {
		t.Errorf("disk mean latency = %.1fs, want single to tens of seconds", disk)
	}
	if silo < 50 || silo > 140 {
		t.Errorf("silo mean latency = %.1fs, want ~104s", silo)
	}
	if manual < 120 || manual > 400 {
		t.Errorf("manual mean latency = %.1fs, want 120-400s (paper: 290s under full-scale operator queueing)", manual)
	}
	// Reads slower than writes on average (reads hit tape more).
	reads := r.Table3.OpTotal(trace.Read).MeanLatency.Seconds()
	writes := r.Table3.OpTotal(trace.Write).MeanLatency.Seconds()
	if reads <= writes {
		t.Errorf("mean read latency %.1f should exceed write latency %.1f (Table 3: 98.1 vs 38.6)",
			reads, writes)
	}
}

func TestTable3AvgSizes(t *testing.T) {
	r := report(t)
	disk := r.Table3.DevTotal(device.ClassDisk).AvgFileSize()
	silo := r.Table3.DevTotal(device.ClassSiloTape).AvgFileSize()
	manual := r.Table3.DevTotal(device.ClassManualTape).AvgFileSize()
	if disk > units.Bytes(10*units.MB) {
		t.Errorf("disk avg request size %v, want ~3.75 MB", disk)
	}
	if silo < units.Bytes(45*units.MB) || silo > units.Bytes(120*units.MB) {
		t.Errorf("silo avg request size %v, want ~80 MB", silo)
	}
	if manual >= silo || manual < units.Bytes(15*units.MB) {
		t.Errorf("manual avg %v should sit between disk %v and silo %v (paper: 47 MB)",
			manual, disk, silo)
	}
	total := r.Table3.Total().AvgFileSize()
	if total < units.Bytes(15*units.MB) || total > units.Bytes(40*units.MB) {
		t.Errorf("overall avg request size %v, want ~24.8 MB", total)
	}
}

func TestFigure3Shape(t *testing.T) {
	r := report(t)
	disk := r.Figure3[device.ClassDisk]
	silo := r.Figure3[device.ClassSiloTape]
	manual := r.Figure3[device.ClassManualTape]
	if disk == nil || silo == nil || manual == nil {
		t.Fatal("missing latency CDFs")
	}
	// Disk median a few seconds (paper: 4s).
	if med := disk.Median(); med < 1 || med > 12 {
		t.Errorf("disk median latency = %.1fs, want ~4s", med)
	}
	// Nearly all disk and silo requests done by 400s; manual has a long
	// tail with ~10% beyond 400s.
	if p := disk.P(400); p < 0.97 {
		t.Errorf("disk P(<=400s) = %.3f, want ~1", p)
	}
	if p := silo.P(400); p < 0.95 {
		t.Errorf("silo P(<=400s) = %.3f, want ~1", p)
	}
	manualTail := 1 - manual.P(400)
	if manualTail < 0.02 || manualTail > 0.30 {
		t.Errorf("manual tail beyond 400s = %.3f, want ~0.10", manualTail)
	}
	// Silo beats manual to the first byte across the range.
	for _, x := range []float64{60, 120, 240} {
		if silo.P(x) <= manual.P(x) {
			t.Errorf("at %vs silo CDF (%.2f) should lead manual (%.2f)",
				x, silo.P(x), manual.P(x))
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	r := report(t)
	f := r.Figure4
	// Reads: peak during working hours, trough overnight.
	peak, trough := 0.0, math.Inf(1)
	for h := 9; h <= 16; h++ {
		peak = math.Max(peak, f.ReadRate(h))
	}
	for h := 1; h <= 5; h++ {
		trough = math.Min(trough, f.ReadRate(h))
	}
	if peak < 3*trough {
		t.Errorf("read peak %.3f vs trough %.3f — want at least 3x swing", peak, trough)
	}
	// Writes: nearly constant.
	wPeak, wTrough := 0.0, math.Inf(1)
	for h := 0; h < 24; h++ {
		wPeak = math.Max(wPeak, f.WriteRate(h))
		wTrough = math.Min(wTrough, f.WriteRate(h))
	}
	if wPeak > 2.2*wTrough {
		t.Errorf("write peak %.3f vs trough %.3f — want nearly flat", wPeak, wTrough)
	}
}

func TestFigure5Shape(t *testing.T) {
	r := report(t)
	f := r.Figure5
	weekdayAvg := (f.ReadRate(2) + f.ReadRate(3) + f.ReadRate(4)) / 3
	weekendAvg := (f.ReadRate(0) + f.ReadRate(6)) / 2
	if weekendAvg > 0.7*weekdayAvg {
		t.Errorf("weekend read rate %.3f vs weekday %.3f — want a dip", weekendAvg, weekdayAvg)
	}
	// Writes steady across the week.
	for d := 1; d < 7; d++ {
		ratio := f.WriteRate(d) / math.Max(f.WriteRate(0), 1e-9)
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("write rate day %d ratio %.2f — want little variation", d, ratio)
		}
	}
}

func TestFigure6GrowthAndHolidays(t *testing.T) {
	r := report(t)
	weeks := r.Figure6.Weeks
	if len(weeks) < 100 {
		t.Fatalf("weeks = %d, want ~104", len(weeks))
	}
	// Read growth: last quarter should out-rate first quarter by >1.3x.
	q := len(weeks) / 4
	first, last := 0.0, 0.0
	for i := 0; i < q; i++ {
		first += weeks[i].ReadGBh
		last += weeks[len(weeks)-1-i].ReadGBh
	}
	if last < 1.3*first {
		t.Errorf("read growth last/first quarter = %.2f, want > 1.3 (Figure 6)", last/first)
	}
	// Writes flat: same comparison within ±35%.
	fw, lw := 0.0, 0.0
	for i := 0; i < q; i++ {
		fw += weeks[i].WriteGBh
		lw += weeks[len(weeks)-1-i].WriteGBh
	}
	if ratio := lw / fw; ratio < 0.65 || ratio > 1.35 {
		t.Errorf("write last/first quarter = %.2f, want ~1 (no growth)", ratio)
	}
	// Christmas 1990 (week ~12) read dip vs neighbours.
	xmasWeek := int(time.Date(1990, 12, 25, 0, 0, 0, 0, time.UTC).Sub(trace.Epoch).Hours() / 24 / 7)
	var xmas, around float64
	n := 0.0
	for _, w := range weeks {
		if w.Week == xmasWeek {
			xmas = w.ReadGBh
		}
		if (w.Week >= xmasWeek-4 && w.Week < xmasWeek-1) || (w.Week > xmasWeek+1 && w.Week <= xmasWeek+4) {
			around += w.ReadGBh
			n++
		}
	}
	if n > 0 && xmas > 0.8*(around/n) {
		t.Errorf("Christmas week reads %.3f vs neighbours %.3f — want a dip", xmas, around/n)
	}
}

func TestFigure7Interarrivals(t *testing.T) {
	r := report(t)
	// At 2% scale the mean gap stretches ~50x (paper: 18s), but the burst
	// knee must remain: most consecutive requests within 10s.
	if p := r.Figure7.P(10); p < 0.55 {
		t.Errorf("P(gap <= 10s) = %.3f, want a strong sub-10s knee (Figure 7)", p)
	}
}

func TestFigure8Fractions(t *testing.T) {
	r := report(t)
	f := r.Figure8
	approx(t, "never read", f.ZeroReadFrac, 0.50, 0.06)
	approx(t, "read once", f.OneReadFrac, 0.25, 0.06)
	approx(t, "never written", f.ZeroWriteFrac, 0.21, 0.06)
	approx(t, "written once", f.OneWriteFrac, 0.65, 0.07)
	approx(t, "accessed exactly once", f.ExactlyOnceFrac, 0.57, 0.07)
	approx(t, "accessed exactly twice", f.ExactlyTwiceFrac, 0.19, 0.07)
	approx(t, "write-once-never-read", f.WriteOnceNeverReadFrac, 0.44, 0.06)
	if f.MoreThanTenFrac < 0.01 || f.MoreThanTenFrac > 0.09 {
		t.Errorf("more-than-ten fraction = %.3f, want ~0.05", f.MoreThanTenFrac)
	}
	// Median number of references is one (§5.3, contrasting Smith's two).
	if med := f.Total.Median(); med != 1 {
		t.Errorf("median reference count = %v, want 1", med)
	}
}

func TestFigure9Intervals(t *testing.T) {
	r := report(t)
	day := r.Figure9.P(1)
	if day < 0.55 || day > 0.82 {
		t.Errorf("P(interval < 1 day) = %.3f, want ~0.70 (Figure 9)", day)
	}
	if year := 1 - r.Figure9.P(365); year <= 0 {
		t.Error("no per-file intervals beyond a year — paper saw some")
	}
}

func TestFigure10DynamicSizes(t *testing.T) {
	r := report(t)
	f := r.Figure10
	// "40% of all requests are for files 1 MB or smaller."
	readSmall := f.FilesRead.P(1e6)
	writeSmall := f.FilesWritten.P(1e6)
	small := (readSmall*float64(f.FilesRead.N()) + writeSmall*float64(f.FilesWritten.N())) /
		float64(f.FilesRead.N()+f.FilesWritten.N())
	if small < 0.25 || small > 0.55 {
		t.Errorf("requests <= 1 MB = %.3f, want ~0.40", small)
	}
	// "such small files make up under 1% of the total data storage" —
	// dynamically, well under 5% of bytes.
	if dr := f.DataRead.P(1e6); dr > 0.05 {
		t.Errorf("read bytes in <=1MB files = %.3f, want tiny", dr)
	}
	// Write bump at 8 MB: the CDF of files written should jump between
	// 6 MB and 10 MB by more than the CDF of files read does.
	writeJump := f.FilesWritten.P(10e6) - f.FilesWritten.P(6e6)
	readJump := f.FilesRead.P(10e6) - f.FilesRead.P(6e6)
	if writeJump <= readJump {
		t.Errorf("8 MB write bump missing: write jump %.3f vs read jump %.3f", writeJump, readJump)
	}
}

func TestFigure11StaticSizes(t *testing.T) {
	r := report(t)
	f := r.Figure11
	under3 := f.Files.P(3e6)
	if under3 < 0.38 || under3 > 0.62 {
		t.Errorf("files under 3 MB = %.3f, want ~0.5 (Figure 11)", under3)
	}
	if data := f.Data.P(3e6); data > 0.06 {
		t.Errorf("data in <3 MB files = %.3f, want ~0.02", data)
	}
}

func TestFigure12Directories(t *testing.T) {
	r := report(t)
	f := r.Figure12
	// Paper: "75% had only zero or one file" (the namespace includes
	// empty directories).
	if p := f.Dirs.P(1); p < 0.68 || p > 0.82 {
		t.Errorf("dirs with <=1 file = %.3f, want ~0.75", p)
	}
	if p := f.Dirs.P(10); p < 0.84 || p > 0.96 {
		t.Errorf("dirs with <=10 files = %.3f, want ~0.90", p)
	}
	// Over half of files in directories with more than 100 files.
	if p := 1 - f.Files.P(100); p < 0.35 {
		t.Errorf("files in >100-file dirs = %.3f, want > 0.35", p)
	}
	// The largest directory caps near the paper's 2.8% of all files.
	frac := float64(r.Table4.LargestDir) / float64(r.Table4.NumFiles)
	if frac < 0.005 || frac > 0.06 {
		t.Errorf("largest dir holds %.3f of files, want ~0.028 (Table 4)", frac)
	}
}

func TestTable4Summary(t *testing.T) {
	r := report(t)
	t4 := r.Table4
	// 2% scale: ~18k files, ~2.8k dirs referenced (the trace only sees
	// files with at least one access, so slightly fewer than generated).
	if t4.NumFiles < 10000 || t4.NumFiles > 20000 {
		t.Errorf("files = %d, want ~17k at 2%% scale", t4.NumFiles)
	}
	if t4.AvgFileSize < units.Bytes(15*units.MB) || t4.AvgFileSize > units.Bytes(35*units.MB) {
		t.Errorf("avg file size = %v, want ~25 MB", t4.AvgFileSize)
	}
	if t4.MaxDepth < 6 || t4.MaxDepth > 14 {
		t.Errorf("max depth = %d, want ~12", t4.MaxDepth)
	}
	if t4.LargestDir < 100 {
		t.Errorf("largest dir = %d files, want hundreds", t4.LargestDir)
	}
	// §5.4: over 40% of the metadata describes files never accessed again.
	if t4.NeverReread < 0.30 {
		t.Errorf("never-reread fraction = %.3f, want > 0.40-ish", t4.NeverReread)
	}
}

func TestPeriodicityDayAndWeek(t *testing.T) {
	r := report(t)
	periods := r.DominantPeriods(3)
	foundDay, foundWeek := false, false
	for _, p := range periods {
		if math.Abs(p-24) < 2 {
			foundDay = true
		}
		if math.Abs(p-168) < 17 {
			foundWeek = true
		}
	}
	if !foundDay {
		t.Errorf("dominant periods %v missing the one-day period", periods)
	}
	if !foundWeek {
		t.Errorf("dominant periods %v missing the one-week period", periods)
	}
	// Autocorrelation peaks at 24h.
	ac := r.ReadAutocorrelation(24 * 8)
	if ac[24] < 0.2 {
		t.Errorf("read autocorrelation at lag 24h = %.3f, want clearly positive", ac[24])
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	r := report(t)
	outputs := map[string]string{
		"table3":  RenderTable3(r.Table3),
		"table4":  RenderTable4(r.Table4),
		"fig3":    RenderFigure3(r),
		"fig4":    RenderFigure4(r.Figure4),
		"fig5":    RenderFigure5(r.Figure5),
		"fig6":    RenderFigure6(r.Figure6),
		"fig7":    RenderFigure7(r.Figure7),
		"fig8":    RenderFigure8(r.Figure8),
		"fig9":    RenderFigure9(r.Figure9),
		"fig10":   RenderFigure10(r.Figure10),
		"fig11":   RenderFigure11(r.Figure11),
		"fig12":   RenderFigure12(r.Figure12),
		"periods": RenderPeriodicity(r),
	}
	for name, out := range outputs {
		if len(out) < 40 {
			t.Errorf("%s render suspiciously short: %q", name, out)
		}
	}
	if !strings.Contains(outputs["table3"], "References") ||
		!strings.Contains(outputs["table3"], "Secs to first byte") {
		t.Error("table3 missing paper rows")
	}
	if !strings.Contains(outputs["table4"], "Number of files") {
		t.Error("table4 missing rows")
	}
}

func TestDirDepthHelpers(t *testing.T) {
	if depthOf("/mss/a/b/f1") != 4 {
		t.Errorf("depthOf = %d", depthOf("/mss/a/b/f1"))
	}
}

func TestAnalysisSkipsErrors(t *testing.T) {
	a := New(Options{})
	rec := trace.Record{
		Start: trace.Epoch, Op: trace.Read, Device: device.ClassDisk,
		Err: trace.ErrNoFile, MSSPath: "/x", LocalPath: "/y", UserID: 1,
	}
	a.Add(&rec)
	r := a.Report()
	if r.Table3.TotalRefs != 0 || r.Table3.ErrorRefs != 1 {
		t.Errorf("errors must not enter the analysis: %+v", r.Table3)
	}
	if r.Table4.NumFiles != 0 {
		t.Error("error records must not create files")
	}
}

func TestDedupWindowApplied(t *testing.T) {
	a := New(Options{})
	base := trace.Epoch
	mk := func(offset time.Duration) trace.Record {
		return trace.Record{
			Start: base.Add(offset), Op: trace.Read, Device: device.ClassDisk,
			Size: units.Bytes(units.MB), MSSPath: "/mss/f", LocalPath: "/l", UserID: 1,
		}
	}
	// Three reads within one hour: dedup to a single read.
	for _, off := range []time.Duration{0, 10 * time.Minute, 50 * time.Minute} {
		rec := mk(off)
		a.Add(&rec)
	}
	// One more read nine hours later: survives.
	rec := mk(9 * time.Hour)
	a.Add(&rec)
	r := a.Report()
	if got := r.Figure8.Reads.Quantile(1); got != 2 {
		t.Errorf("deduped read count = %v, want 2", got)
	}
	// Figure 9 sees exactly one gap (9h = 0.375 days).
	if n := r.Figure9.N(); n != 1 {
		t.Errorf("gap samples = %d, want 1", n)
	}
}
