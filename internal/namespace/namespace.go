// Package namespace models the MSS file namespace of the paper's §5.4:
// a directory tree whose population is extremely skewed. At full scale the
// traced store held over 900,000 files in 143,245 directories (Table 4)
// with a maximum depth of 12 and a largest directory of 24,926 files;
// Figure 12 shows 75% of directories holding zero or one file, 90% holding
// ten or fewer, while 5% of the directories hold about half of all files
// and data. The tree generated here reproduces those proportions at any
// scale and supplies per-file directory placement and metadata accounting
// for the analyzers.
package namespace

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"filemig/internal/stats"
	"filemig/internal/units"
)

// Directory is one directory of the MSS namespace.
type Directory struct {
	ID     int
	Parent int // -1 for the root
	Depth  int // root is 0
	Path   string

	FileCount int         // files assigned directly to this directory
	Bytes     units.Bytes // bytes of those files
}

// Tree is a generated namespace with per-directory population targets.
type Tree struct {
	dirs []Directory
	// fileDirs[i] is the directory of file i, filled by PlaceFiles.
	fileDirs []int
	// filePaths holds every file's path back to back, file i's ending
	// at fileEnds[i] (see nameFiles).
	filePaths string
	fileEnds  []int
}

// rootPath is the path of directory 0.
const rootPath = "/mss"

// Config controls generation. The zero value is not valid; use
// DefaultConfig and override.
type Config struct {
	Dirs     int   // number of directories (paper: 143,245)
	Files    int   // number of files to place (paper: ~900,000+)
	MaxDepth int   // maximum directory depth (paper: 12)
	Seed     int64 // RNG seed; generation is deterministic per seed

	// Population shape, expressed as Figure 12 fractions.
	FracEmpty      float64 // directories with zero files (default 0.40)
	FracSingle     float64 // directories with exactly one file (default 0.35)
	FracSmallMax10 float64 // directories with 2..10 files (default 0.15)
	// The remainder draws a heavy Pareto tail so ~5% of directories end up
	// holding ~50% of the files.
	TailAlpha float64 // Pareto shape for big directories (default 0.95)
}

// largestDirFraction caps any one directory at the paper's observed
// maximum: 24,926 files of ~905,000 (Table 4), about 2.8%. Without the
// cap a near-critical Pareto tail is dominated by its single largest
// draw at small scales.
const largestDirFraction = 0.028

// DefaultConfig returns the paper-shaped configuration at a given scale in
// (0, 1]; scale 1.0 reproduces Table 4's counts.
func DefaultConfig(scale float64, seed int64) Config {
	if scale <= 0 || scale > 1 {
		panic("namespace: scale must be in (0, 1]")
	}
	return Config{
		Dirs:           max(1, int(143245*scale)),
		Files:          max(1, int(905000*scale)),
		MaxDepth:       12,
		Seed:           seed,
		FracEmpty:      0.40,
		FracSingle:     0.35,
		FracSmallMax10: 0.15,
		TailAlpha:      0.95,
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Generate builds the tree and places cfg.Files files into directories
// according to the skewed population model.
func Generate(cfg Config) (*Tree, error) {
	if cfg.Dirs < 1 || cfg.Files < 0 || cfg.MaxDepth < 1 {
		return nil, fmt.Errorf("namespace: bad config %+v", cfg)
	}
	if cfg.FracEmpty < 0 || cfg.FracSingle < 0 || cfg.FracSmallMax10 < 0 ||
		cfg.FracEmpty+cfg.FracSingle+cfg.FracSmallMax10 > 1 {
		return nil, fmt.Errorf("namespace: population fractions invalid")
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	t := &Tree{dirs: make([]Directory, cfg.Dirs)}
	t.buildSkeleton(cfg, r)
	t.nameDirs()
	if err := t.placeFiles(cfg, r); err != nil {
		return nil, err
	}
	t.nameFiles()
	return t, nil
}

// buildSkeleton creates the directory hierarchy. Parents are chosen by
// preferential attachment (directories that already have children attract
// more), which yields the bushy-but-deep shape of real archives, capped at
// MaxDepth. At least one chain reaches exactly MaxDepth so Table 4's
// maximum-depth row is reproduced whenever enough directories exist.
func (t *Tree) buildSkeleton(cfg Config, r *rand.Rand) {
	t.dirs[0] = Directory{ID: 0, Parent: -1, Depth: 0}
	// children[i] counts existing children to drive preferential attachment.
	children := make([]int, cfg.Dirs)
	// Force one maximal-depth chain first.
	chain := cfg.MaxDepth
	if chain > cfg.Dirs-1 {
		chain = cfg.Dirs - 1
	}
	for i := 1; i <= chain; i++ {
		parent := i - 1
		t.dirs[i] = Directory{ID: i, Parent: parent, Depth: t.dirs[parent].Depth + 1}
		children[parent]++
	}
	for i := chain + 1; i < cfg.Dirs; i++ {
		parent := t.pickParent(i, children, cfg.MaxDepth, r)
		t.dirs[i] = Directory{ID: i, Parent: parent, Depth: t.dirs[parent].Depth + 1}
		children[parent]++
	}
}

// The tree's paths live in two arenas, one string for the directories
// and one for the files, each path a slice of its arena: every path's
// length is summed before any is written, so each arena is allocated
// once and a tree's paths cost a handful of allocations rather than one
// each. ends[i] is where path i ends, and path i starts where path i-1
// ends.

// start is where path i of an arena with the given ends begins.
func start(ends []int, i int) int {
	if i == 0 {
		return 0
	}
	return ends[i-1]
}

// childLen is the length of parent/<kind><id> for a parent of length n.
func childLen(n, id int) int {
	var buf [20]byte
	return n + 2 + len(strconv.AppendInt(buf[:0], int64(id), 10))
}

// writeChild appends parent/<kind><id>, the shape of every directory
// and file path in the tree.
func writeChild(b *strings.Builder, parent string, kind byte, id int) {
	var buf [20]byte
	b.WriteString(parent)
	b.WriteByte('/')
	b.WriteByte(kind)
	b.Write(strconv.AppendInt(buf[:0], int64(id), 10))
}

// nameDirs gives every directory its path: rootPath for the root, else
// parent/d<id>. A parent's ID is below its children's, so one pass in
// ID order writes every parent before its children read it back.
func (t *Tree) nameDirs() {
	ends := make([]int, len(t.dirs))
	ends[0] = len(rootPath)
	for i := 1; i < len(t.dirs); i++ {
		p := t.dirs[i].Parent
		ends[i] = ends[i-1] + childLen(ends[p]-start(ends, p), i)
	}
	var b strings.Builder
	b.Grow(ends[len(ends)-1])
	b.WriteString(rootPath)
	for i := 1; i < len(t.dirs); i++ {
		p := t.dirs[i].Parent
		writeChild(&b, b.String()[start(ends, p):ends[p]], 'd', i)
	}
	arena := b.String()
	for i := range t.dirs {
		t.dirs[i].Path = arena[start(ends, i):ends[i]]
	}
}

// nameFiles lays out every placed file's path, dir/f<id>, for FilePath.
func (t *Tree) nameFiles() {
	t.fileEnds = make([]int, len(t.fileDirs))
	end := 0
	for i, d := range t.fileDirs {
		end += childLen(len(t.dirs[d].Path), i)
		t.fileEnds[i] = end
	}
	var b strings.Builder
	b.Grow(end)
	for i, d := range t.fileDirs {
		writeChild(&b, t.dirs[d].Path, 'f', i)
	}
	t.filePaths = b.String()
}

// pickParent samples an existing directory with probability proportional
// to children+1, retrying (bounded) to respect the depth cap.
func (t *Tree) pickParent(limit int, children []int, maxDepth int, r *rand.Rand) int {
	for attempt := 0; attempt < 16; attempt++ {
		p := r.Intn(limit)
		// Preferential attachment: accept with probability scaled by the
		// candidate's weight relative to a small cap; cheap and adequate.
		w := children[p] + 1
		if w > 8 {
			w = 8
		}
		if r.Intn(8) < w && t.dirs[p].Depth < maxDepth {
			return p
		}
	}
	// Fall back to the root, which always has capacity.
	return 0
}

// placeFiles draws a per-directory file-count plan matching the Figure 12
// fractions, scales it to exactly cfg.Files, and materialises fileDirs.
func (t *Tree) placeFiles(cfg Config, r *rand.Rand) error {
	n := len(t.dirs)
	counts := make([]float64, n)
	classes := stats.NewDiscrete(
		cfg.FracEmpty,
		cfg.FracSingle,
		cfg.FracSmallMax10,
		1-cfg.FracEmpty-cfg.FracSingle-cfg.FracSmallMax10,
	)
	// The tail is bimodal, as in real archives: most over-10 directories
	// are medium project directories, but a minority are the huge
	// model-output directories (one file per simulated day) that Figure 12
	// shows holding over half of all files. The Pareto component gives the
	// big ones their spread.
	bigTail := stats.Pareto{Xm: 120, Alpha: cfg.TailAlpha + 0.15}
	dirCap := float64(cfg.Files) * largestDirFraction
	if dirCap < 11 {
		dirCap = 11
	}
	for i := range counts {
		switch classes.Sample(r) {
		case 0:
			counts[i] = 0
		case 1:
			counts[i] = 1
		case 2:
			counts[i] = float64(2 + r.Intn(9)) // 2..10
		default:
			var c float64
			if r.Float64() < 0.3 {
				c = bigTail.Sample(r)
			} else {
				c = 11 + r.Float64()*29 // medium: 11..40
			}
			if c > dirCap {
				c = dirCap
			}
			counts[i] = c
		}
	}
	// Scale the tail so totals hit cfg.Files exactly without disturbing
	// the 0/1/2-10 classes (which define the CDF's left side).
	var fixed, tailSum float64
	for _, c := range counts {
		if c <= 10 {
			fixed += c
		} else {
			tailSum += c
		}
	}
	want := float64(cfg.Files)
	if want < fixed {
		return fmt.Errorf("namespace: %d files too few for %d directories (need >= %.0f)", cfg.Files, cfg.Dirs, fixed)
	}
	scale := 0.0
	if tailSum > 0 {
		scale = (want - fixed) / tailSum
	}
	total := 0
	for i := range counts {
		if counts[i] > 10 {
			counts[i] = counts[i] * scale
			if counts[i] < 11 {
				counts[i] = 11 // keep tail directories large
			}
			if counts[i] > dirCap {
				counts[i] = dirCap
			}
		}
		c := int(counts[i])
		t.dirs[i].FileCount = c
		total += c
	}
	// Distribute the integer remainder over the largest directories.
	rem := cfg.Files - total
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return t.dirs[order[a]].FileCount > t.dirs[order[b]].FileCount
	})
	for i := 0; rem != 0 && n > 0; i = (i + 1) % n {
		d := order[i]
		if rem > 0 {
			t.dirs[d].FileCount++
			rem--
		} else if t.dirs[d].FileCount > 0 {
			t.dirs[d].FileCount--
			rem++
		}
	}
	// Materialise file placement: file indices grouped by directory.
	t.fileDirs = make([]int, 0, cfg.Files)
	for i := range t.dirs {
		for k := 0; k < t.dirs[i].FileCount; k++ {
			t.fileDirs = append(t.fileDirs, i)
		}
	}
	// Shuffle so file IDs do not correlate with directory IDs.
	r.Shuffle(len(t.fileDirs), func(i, j int) {
		t.fileDirs[i], t.fileDirs[j] = t.fileDirs[j], t.fileDirs[i]
	})
	return nil
}

// NumDirs reports the number of directories.
func (t *Tree) NumDirs() int { return len(t.dirs) }

// FilePath returns the full MSS path of file i, a slice of the tree's
// one file-path string.
func (t *Tree) FilePath(i int) string {
	return t.filePaths[start(t.fileEnds, i):t.fileEnds[i]]
}

// AddBytes credits a file's size to its directory (called by the workload
// generator once sizes are drawn).
func (t *Tree) AddBytes(fileID int, size units.Bytes) {
	t.dirs[t.fileDirs[fileID]].Bytes += size
}

// MaxDepth reports the deepest directory.
func (t *Tree) MaxDepth() int {
	d := 0
	for i := range t.dirs {
		if t.dirs[i].Depth > d {
			d = t.dirs[i].Depth
		}
	}
	return d
}

// LargestDir returns the directory holding the most files.
func (t *Tree) LargestDir() Directory {
	best := t.dirs[0]
	for _, d := range t.dirs[1:] {
		if d.FileCount > best.FileCount {
			best = d
		}
	}
	return best
}

// SizeDistribution returns the three Figure 12 series as weighted CDFs
// over directory size (file count): fraction of directories, fraction of
// files, and fraction of data in directories of at most x files.
func (t *Tree) SizeDistribution() (dirs, files, data *stats.WeightedCDF) {
	dirs, files, data = &stats.WeightedCDF{}, &stats.WeightedCDF{}, &stats.WeightedCDF{}
	for i := range t.dirs {
		n := float64(t.dirs[i].FileCount)
		dirs.Add(n, 1)
		files.Add(n, n)
		data.Add(n, float64(t.dirs[i].Bytes))
	}
	return dirs, files, data
}
