package core

import (
	"sort"
	"time"

	"filemig/internal/device"
	"filemig/internal/stats"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// Report is the finished analysis: every table and figure of the paper.
type Report struct {
	Table3 Table3
	Table4 Table4

	Figure3  map[device.Class]*stats.CDF // latency-to-first-byte CDFs
	Figure4  Figure4                     // hourly transfer profile
	Figure5  Figure5                     // day-of-week profile
	Figure6  Figure6                     // weekly two-year series
	Figure7  *stats.CDF                  // inter-request intervals (seconds)
	Figure8  Figure8                     // per-file reference counts
	Figure9  *stats.CDF                  // per-file interreference intervals (days)
	Figure10 Figure10                    // dynamic size distributions
	Figure11 Figure11                    // static size distributions
	Figure12 Figure12                    // directory size distributions

	HourlyRequests []float64 // request counts per absolute hour (periodicity)
	HourlyReads    []float64
	Days           int

	Coalesce Coalesce // §6 request coalescing
}

// Coalesce is §6's request-coalescing count: of the good requests, how
// many came at most Window after the previous good request for the same
// file, of either op, and the bytes those moved — what a Cray-side
// request cache holding each file for Window would have absorbed. The
// window is the analysis's dedup window.
type Coalesce struct {
	Window     time.Duration
	Requests   int64
	Savable    int64
	BytesSaved int64
}

// Cell is one Table 3 cell: references, bytes, and latency for an
// (operation, device) pair.
type Cell struct {
	Refs        int64
	Bytes       units.Bytes
	MeanLatency time.Duration
}

// AvgFileSize is bytes over references.
func (c Cell) AvgFileSize() units.Bytes {
	if c.Refs == 0 {
		return 0
	}
	return c.Bytes / units.Bytes(c.Refs)
}

// Table3 is the overall trace statistics table.
type Table3 struct {
	// Indexed by op then device class.
	Cells      map[trace.Op]map[device.Class]Cell
	TotalRefs  int64 // good references
	ErrorRefs  int64
	GrandTotal int64 // including errors
}

// RefDevices are the device classes Table 3 reports, in paper order.
var RefDevices = []device.Class{device.ClassDisk, device.ClassSiloTape, device.ClassManualTape}

// OpTotal sums a row over devices for one op.
func (t Table3) OpTotal(op trace.Op) Cell {
	var out Cell
	var latSum float64
	for _, d := range RefDevices {
		c := t.Cells[op][d]
		out.Refs += c.Refs
		out.Bytes += c.Bytes
		latSum += c.MeanLatency.Seconds() * float64(c.Refs)
	}
	if out.Refs > 0 {
		out.MeanLatency = units.DurationSeconds(latSum / float64(out.Refs))
	}
	return out
}

// DevTotal sums reads+writes for one device.
func (t Table3) DevTotal(dev device.Class) Cell {
	var out Cell
	var latSum float64
	for _, op := range []trace.Op{trace.Read, trace.Write} {
		c := t.Cells[op][dev]
		out.Refs += c.Refs
		out.Bytes += c.Bytes
		latSum += c.MeanLatency.Seconds() * float64(c.Refs)
	}
	if out.Refs > 0 {
		out.MeanLatency = units.DurationSeconds(latSum / float64(out.Refs))
	}
	return out
}

// Total sums everything.
func (t Table3) Total() Cell {
	var out Cell
	var latSum float64
	for _, op := range []trace.Op{trace.Read, trace.Write} {
		c := t.OpTotal(op)
		out.Refs += c.Refs
		out.Bytes += c.Bytes
		latSum += c.MeanLatency.Seconds() * float64(c.Refs)
	}
	if out.Refs > 0 {
		out.MeanLatency = units.DurationSeconds(latSum / float64(out.Refs))
	}
	return out
}

// Table4 is the file-store summary derived, as in the paper, from the
// referenced files only.
type Table4 struct {
	NumFiles    int64
	AvgFileSize units.Bytes
	NumDirs     int64
	LargestDir  int64
	MaxDepth    int
	TotalData   units.Bytes
	NeverReread float64 // fraction of metadata describing never-reread files (§5.4: >40%)
}

// Figure4 is the average transfer rate by hour of day, GB/hour.
type Figure4 struct {
	ReadGB  [24]float64
	WriteGB [24]float64
	Days    int
}

// Rate returns reads+writes average GB/h for the given hour.
func (f Figure4) Rate(hour int) float64 {
	if f.Days == 0 {
		return 0
	}
	return (f.ReadGB[hour] + f.WriteGB[hour]) / float64(f.Days)
}

// ReadRate and WriteRate report per-op averages.
func (f Figure4) ReadRate(hour int) float64 {
	if f.Days == 0 {
		return 0
	}
	return f.ReadGB[hour] / float64(f.Days)
}

// WriteRate reports the write average for the hour.
func (f Figure4) WriteRate(hour int) float64 {
	if f.Days == 0 {
		return 0
	}
	return f.WriteGB[hour] / float64(f.Days)
}

// Figure5 is the average transfer rate by day of week (0 = Sunday),
// GB/hour averaged over the hours of that weekday.
type Figure5 struct {
	ReadGB  [7]float64
	WriteGB [7]float64
	Weeks   float64
}

// ReadRate reports average GB/h on the given weekday.
func (f Figure5) ReadRate(day int) float64 {
	if f.Weeks == 0 {
		return 0
	}
	return f.ReadGB[day] / (f.Weeks * 24)
}

// WriteRate reports average write GB/h on the given weekday.
func (f Figure5) WriteRate(day int) float64 {
	if f.Weeks == 0 {
		return 0
	}
	return f.WriteGB[day] / (f.Weeks * 24)
}

// Figure6 is the week-by-week average transfer rate across the trace.
type Figure6 struct {
	Weeks []WeekPoint
}

// WeekPoint is one week's average rates in GB/hour.
type WeekPoint struct {
	Week     int
	ReadGBh  float64
	WriteGBh float64
}

// Figure8 is the distribution of per-file reference counts after the
// eight-hour dedup.
type Figure8 struct {
	Files                  int64
	ZeroReadFrac           float64    // §5.3: 50%
	OneReadFrac            float64    // 25%
	ZeroWriteFrac          float64    // 21%
	OneWriteFrac           float64    // 65%
	ExactlyOnceFrac        float64    // 57%
	ExactlyTwiceFrac       float64    // 19%
	WriteOnceNeverReadFrac float64    // 44%
	MoreThanTenFrac        float64    // 5%
	Reads                  *stats.CDF // per-file read counts
	Writes                 *stats.CDF
	Total                  *stats.CDF
}

// Figure10 is the dynamic (per-access) size distribution.
type Figure10 struct {
	FilesRead    *stats.CDF
	FilesWritten *stats.CDF
	DataRead     *stats.WeightedCDF
	DataWritten  *stats.WeightedCDF
}

// Figure11 is the static (per-file) size distribution.
type Figure11 struct {
	Files *stats.CDF
	Data  *stats.WeightedCDF
}

// Figure12 is the directory size distribution, from referenced files.
type Figure12 struct {
	Dirs  *stats.WeightedCDF // weight 1 per directory, x = file count
	Files *stats.WeightedCDF // weight = files in dir
	Data  *stats.WeightedCDF // weight = bytes in dir
}

// Report finalises the analysis.
func (a *Analysis) Report() *Report {
	fig3 := make(map[device.Class]*stats.CDF, device.NClasses)
	for cls, c := range a.latCDF {
		if c != nil {
			fig3[device.Class(cls)] = c
		}
	}
	r := &Report{
		Figure3:        fig3,
		Figure7:        a.interCDF,
		HourlyRequests: a.hourlyReqs,
		HourlyReads:    a.hourlyRead,
		Days:           a.days,
		Coalesce:       a.coalesce,
	}
	r.Table3 = a.buildTable3()
	r.Table4, r.Figure12 = a.buildFileStore()
	r.Figure4 = Figure4{ReadGB: gbCol(a.hourBytes, 0), WriteGB: gbCol(a.hourBytes, 1), Days: a.days}
	r.Figure5 = a.buildFigure5()
	r.Figure6 = a.buildFigure6()
	r.Figure8, r.Figure9 = a.buildFileFigures()
	r.Figure10 = Figure10{
		FilesRead:    a.dynFiles[opIndex(trace.Read)],
		FilesWritten: a.dynFiles[opIndex(trace.Write)],
		DataRead:     stats.SelfWeighted(a.dynFiles[opIndex(trace.Read)], a.dynTotal[opIndex(trace.Read)]),
		DataWritten:  stats.SelfWeighted(a.dynFiles[opIndex(trace.Write)], a.dynTotal[opIndex(trace.Write)]),
	}
	r.Figure11 = a.buildFigure11()
	// The large distributions are independent: sort them side by side
	// now rather than one by one at their first query.
	stats.SortAll(a.interCDF, a.gapCDF, a.dynFiles[0], a.dynFiles[1],
		r.Figure8.Reads, r.Figure8.Writes, r.Figure8.Total, r.Figure11.Files)
	return r
}

// gbCol converts one op's column of an hourly byte-count table to GB.
func gbCol(src [24][2]int64, idx int) [24]float64 {
	var out [24]float64
	for i := range src {
		out[i] = gb(src[i][idx])
	}
	return out
}

// gb converts an exact byte count to decimal gigabytes.
func gb(b int64) float64 { return float64(b) / float64(units.GB) }

func (a *Analysis) buildTable3() Table3 {
	t := Table3{Cells: map[trace.Op]map[device.Class]Cell{}, ErrorRefs: a.errors, GrandTotal: a.total}
	for _, op := range []trace.Op{trace.Read, trace.Write} {
		oi := opIndex(op)
		t.Cells[op] = map[device.Class]Cell{}
		for _, dev := range RefDevices {
			ci := classIndex(dev)
			c := Cell{Refs: a.refs[oi][ci], Bytes: units.Bytes(a.bytes[oi][ci])}
			if l := &a.latency[oi][ci]; l.n > 0 {
				c.MeanLatency = units.DurationSeconds(l.meanSeconds())
			}
			t.Cells[op][dev] = c
			t.TotalRefs += c.Refs
		}
	}
	return t
}

func (a *Analysis) buildFigure5() Figure5 {
	f := Figure5{
		ReadGB:  [7]float64{},
		WriteGB: [7]float64{},
		Weeks:   float64(a.days) / 7,
	}
	for d := 0; d < 7; d++ {
		f.ReadGB[d] = gb(a.dayBytes[d][0])
		f.WriteGB[d] = gb(a.dayBytes[d][1])
	}
	return f
}

func (a *Analysis) buildFigure6() Figure6 {
	a.flushWeek()
	weeks := make([]int, 0, len(a.weekBytes))
	for w := range a.weekBytes {
		weeks = append(weeks, w)
	}
	sort.Ints(weeks)
	f := Figure6{}
	for _, w := range weeks {
		b := a.weekBytes[w]
		f.Weeks = append(f.Weeks, WeekPoint{
			Week:     w,
			ReadGBh:  gb(b[0]) / (7 * 24),
			WriteGBh: gb(b[1]) / (7 * 24),
		})
	}
	return f
}

func (a *Analysis) buildFileFigures() (Figure8, *stats.CDF) {
	files := len(a.files)
	f8 := Figure8{Reads: stats.NewCDF(files), Writes: stats.NewCDF(files), Total: stats.NewCDF(files)}
	var zeroRead, oneRead, zeroWrite, oneWrite, once, twice, w1r0, over10 int64
	for i := range a.files {
		f := &a.files[i]
		f8.Files++
		f8.Reads.Add(float64(f.reads))
		f8.Writes.Add(float64(f.writes))
		total := f.reads + f.writes
		f8.Total.Add(float64(total))
		switch f.reads {
		case 0:
			zeroRead++
		case 1:
			oneRead++
		}
		switch f.writes {
		case 0:
			zeroWrite++
		case 1:
			oneWrite++
		}
		if total == 1 {
			once++
		}
		if total == 2 {
			twice++
		}
		if f.writes == 1 && f.reads == 0 {
			w1r0++
		}
		if total > 10 {
			over10++
		}
	}
	if f8.Files > 0 {
		n := float64(f8.Files)
		f8.ZeroReadFrac = float64(zeroRead) / n
		f8.OneReadFrac = float64(oneRead) / n
		f8.ZeroWriteFrac = float64(zeroWrite) / n
		f8.OneWriteFrac = float64(oneWrite) / n
		f8.ExactlyOnceFrac = float64(once) / n
		f8.ExactlyTwiceFrac = float64(twice) / n
		f8.WriteOnceNeverReadFrac = float64(w1r0) / n
		f8.MoreThanTenFrac = float64(over10) / n
	}
	return f8, a.gapCDF
}

func (a *Analysis) buildFigure11() Figure11 {
	files := stats.NewCDF(len(a.files))
	total := 0.0
	for i := range a.files {
		s := float64(a.files[i].size)
		files.Add(s)
		total += s //lint:floatsum-ok accumulated in FileID order, which every path assigns alike
	}
	return Figure11{Files: files, Data: stats.SelfWeighted(files, total)}
}

func (a *Analysis) buildFileStore() (Table4, Figure12) {
	type dirAgg struct {
		files int64
		bytes units.Bytes
	}
	// Every directory has at least one file, so the DirID-indexed slice
	// plays the role of a dir-keyed map.
	dirs := make([]dirAgg, len(a.dirIDs))
	var total units.Bytes
	var neverReread int64
	for i := range a.files {
		st := &a.files[i]
		agg := &dirs[a.dirOf[i]]
		agg.files++
		agg.bytes += st.size
		total += st.size
		// §5.4: metadata describing files never accessed again — here,
		// files whose whole history is a single write.
		if st.reads == 0 && st.writes <= 1 {
			neverReread++
		}
	}
	t4 := Table4{
		NumFiles:  int64(len(a.files)),
		NumDirs:   int64(len(dirs)),
		MaxDepth:  a.maxDepth,
		TotalData: total,
	}
	if t4.NumFiles > 0 {
		t4.AvgFileSize = total / units.Bytes(t4.NumFiles)
		t4.NeverReread = float64(neverReread) / float64(t4.NumFiles)
	}
	f12 := Figure12{Dirs: &stats.WeightedCDF{}, Files: &stats.WeightedCDF{}, Data: &stats.WeightedCDF{}}
	if tree := a.opts.Tree; tree != nil {
		// The full namespace (including empty directories, which a trace
		// cannot reveal) gives the paper's view of Table 4 and Figure 12.
		t4.NumDirs = int64(tree.NumDirs())
		t4.LargestDir = int64(tree.LargestDir().FileCount)
		t4.MaxDepth = tree.MaxDepth()
		treeDirs, treeFiles, treeData := tree.SizeDistribution()
		f12.Dirs, f12.Files, f12.Data = treeDirs, treeFiles, treeData
		return t4, f12
	}
	for i := range dirs {
		agg := &dirs[i]
		n := float64(agg.files)
		if agg.files > t4.LargestDir {
			t4.LargestDir = agg.files
		}
		f12.Dirs.Add(n, 1)
		f12.Files.Add(n, n)
		f12.Data.Add(n, float64(agg.bytes))
	}
	return t4, f12
}

// DominantPeriods runs the §5.2 periodicity detection over the hourly
// request series, returning the top period lengths in hours.
func (r *Report) DominantPeriods(max int) []float64 {
	return stats.DominantPeriods(r.HourlyRequests, max, 0.15)
}

// ReadAutocorrelation returns the autocorrelation of the hourly read
// series up to maxLag hours.
func (r *Report) ReadAutocorrelation(maxLag int) []float64 {
	return stats.Autocorrelation(r.HourlyReads, maxLag)
}
