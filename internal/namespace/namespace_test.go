package namespace

import (
	"fmt"
	"strings"
	"testing"

	"filemig/internal/units"
)

func genSmall(t *testing.T) *Tree {
	t.Helper()
	tree, err := Generate(DefaultConfig(0.02, 42)) // ~2,865 dirs, ~18,100 files
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tree
}

func TestGenerateCounts(t *testing.T) {
	cfg := DefaultConfig(0.02, 42)
	tree := genSmall(t)
	if tree.NumDirs() != cfg.Dirs {
		t.Errorf("dirs = %d, want %d", tree.NumDirs(), cfg.Dirs)
	}
	if tree.NumFiles() != cfg.Files {
		t.Errorf("files = %d, want exactly %d", tree.NumFiles(), cfg.Files)
	}
	// Per-directory counts must sum to the file total.
	sum := 0
	for i := 0; i < tree.NumDirs(); i++ {
		sum += tree.Dir(i).FileCount
	}
	if sum != cfg.Files {
		t.Errorf("sum of dir counts = %d, want %d", sum, cfg.Files)
	}
}

func TestMaxDepthReached(t *testing.T) {
	tree := genSmall(t)
	if got := tree.MaxDepth(); got != 12 {
		t.Errorf("max depth = %d, want 12 (Table 4)", got)
	}
	// No directory may exceed the cap.
	for i := 0; i < tree.NumDirs(); i++ {
		if d := tree.Dir(i).Depth; d > 12 {
			t.Fatalf("dir %d depth %d exceeds cap", i, d)
		}
	}
}

func TestTreeIsWellFormed(t *testing.T) {
	tree := genSmall(t)
	for i := 0; i < tree.NumDirs(); i++ {
		d := tree.Dir(i)
		if i == 0 {
			if d.Parent != -1 || d.Depth != 0 {
				t.Fatalf("root malformed: %+v", d)
			}
			continue
		}
		if d.Parent < 0 || d.Parent >= i {
			t.Fatalf("dir %d parent %d not an earlier directory", i, d.Parent)
		}
		p := tree.Dir(d.Parent)
		if d.Depth != p.Depth+1 {
			t.Fatalf("dir %d depth %d, parent depth %d", i, d.Depth, p.Depth)
		}
		if !strings.HasPrefix(d.Path, p.Path+"/") {
			t.Fatalf("dir %d path %q not under parent %q", i, d.Path, p.Path)
		}
	}
}

func TestFigure12Fractions(t *testing.T) {
	tree := genSmall(t)
	dirs, files, _ := tree.SizeDistribution()

	// "75% had only zero or one file".
	if got := dirs.P(1); got < 0.70 || got > 0.80 {
		t.Errorf("fraction of dirs with <=1 file = %.3f, want ~0.75", got)
	}
	// "90% of the directories had 10 or fewer files".
	if got := dirs.P(10); got < 0.85 || got > 0.95 {
		t.Errorf("fraction of dirs with <=10 files = %.3f, want ~0.90", got)
	}
	// "over half of all files ... were in large directories that contained
	// more than 100 files".
	if got := 1 - files.P(100); got < 0.40 {
		t.Errorf("fraction of files in dirs >100 files = %.3f, want > 0.40", got)
	}
}

func TestTopFivePercentHoldsHalfTheFiles(t *testing.T) {
	tree := genSmall(t)
	// Figure 12 caption: 5% of the directories held 50% of the files.
	counts := make([]int, tree.NumDirs())
	for i := range counts {
		counts[i] = tree.Dir(i).FileCount
	}
	// Sort descending and take the top 5%.
	for i := 1; i < len(counts); i++ { // insertion sort is fine at this size
		for j := i; j > 0 && counts[j] > counts[j-1]; j-- {
			counts[j], counts[j-1] = counts[j-1], counts[j]
		}
	}
	top := len(counts) / 20
	sum := 0
	for _, c := range counts[:top] {
		sum += c
	}
	frac := float64(sum) / float64(tree.NumFiles())
	if frac < 0.35 || frac > 0.75 {
		t.Errorf("top 5%% of dirs hold %.2f of files, want ~0.5", frac)
	}
}

func TestLargestDirScales(t *testing.T) {
	tree := genSmall(t)
	// Table 4: largest directory 24,926 of ~905,000 files (~2.75%). At
	// 2% scale expect a largest directory of hundreds of files.
	big := tree.LargestDir()
	if big.FileCount < 100 {
		t.Errorf("largest dir = %d files, want skew with hundreds", big.FileCount)
	}
	if big.FileCount > tree.NumFiles()/2 {
		t.Errorf("largest dir = %d files, absurdly dominant", big.FileCount)
	}
}

func TestFilePlacementAndPaths(t *testing.T) {
	tree := genSmall(t)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		d := tree.FileDir(i)
		if d < 0 || d >= tree.NumDirs() {
			t.Fatalf("file %d in invalid dir %d", i, d)
		}
		p := tree.FilePath(i)
		if !strings.HasPrefix(p, tree.Dir(d).Path+"/") {
			t.Errorf("file path %q not under its directory %q", p, tree.Dir(d).Path)
		}
		if seen[p] {
			t.Errorf("duplicate file path %q", p)
		}
		seen[p] = true
		if strings.ContainsAny(p, " \t") {
			t.Errorf("path %q contains whitespace", p)
		}
	}
}

// TestPathsMatchFmtForm holds every directory and file path, each a
// slice of its tree's arena, to the parent/<kind><id> form spelled with
// fmt, and the generator to a few allocations for all of them: with one
// string per path, Generate made one allocation per directory and
// FilePath one per call.
func TestPathsMatchFmtForm(t *testing.T) {
	tree := genSmall(t)
	if got := tree.Dir(0).Path; got != "/mss" {
		t.Fatalf("root path %q, want /mss", got)
	}
	for i := 1; i < tree.NumDirs(); i++ {
		d := tree.Dir(i)
		if want := fmt.Sprintf("%s/d%d", tree.Dir(d.Parent).Path, i); d.Path != want {
			t.Fatalf("dir %d path %q, want %q", i, d.Path, want)
		}
	}
	for i := 0; i < tree.NumFiles(); i++ {
		if got, want := tree.FilePath(i), fmt.Sprintf("%s/f%d", tree.Dir(tree.FileDir(i)).Path, i); got != want {
			t.Fatalf("file %d path %q, want %q", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { tree.FilePath(tree.NumFiles() - 1) }); n != 0 {
		t.Errorf("FilePath allocates %v times a call, want 0", n)
	}
	cfg := DefaultConfig(0.02, 42)
	if n := testing.AllocsPerRun(3, func() { Generate(cfg) }); n > 20 {
		t.Errorf("Generate makes %v allocations for %d directories and %d files, want <= 20", n, cfg.Dirs, cfg.Files)
	}
}

func TestAddBytesAndSummary(t *testing.T) {
	tree := genSmall(t)
	for i := 0; i < tree.NumFiles(); i++ {
		tree.AddBytes(i, units.Bytes(25*units.MB))
	}
	var total units.Bytes
	for i := 0; i < tree.NumDirs(); i++ {
		total += tree.Dir(i).Bytes
	}
	if total != units.Bytes(25*units.MB)*units.Bytes(tree.NumFiles()) {
		t.Errorf("total = %v", total)
	}
	if d := tree.MaxDepth(); d != 12 {
		t.Errorf("depth = %d", d)
	}
}

func TestMetadataGigabytesAtFullScale(t *testing.T) {
	// §5.4: "the NCAR system needs to store gigabytes of metadata on
	// disk". Check the estimate at paper scale without generating: the
	// formula is linear.
	files, dirs := int64(905000), int64(143245)
	meta := units.Bytes(files*(512+64) + dirs*1024)
	if meta < units.Bytes(500*units.MB) {
		t.Errorf("metadata estimate %v too small to support the paper's claim", meta)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(DefaultConfig(0.01, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(0.01, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumFiles() != b.NumFiles() {
		t.Fatal("file counts differ across identical seeds")
	}
	for i := 0; i < a.NumFiles(); i += 97 {
		if a.FileDir(i) != b.FileDir(i) {
			t.Fatalf("file %d placed differently across identical seeds", i)
		}
	}
	c, err := Generate(DefaultConfig(0.01, 8))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.NumFiles() && i < c.NumFiles(); i += 11 {
		if a.FileDir(i) != c.FileDir(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical placements")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{Dirs: 0, Files: 10, MaxDepth: 5}); err == nil {
		t.Error("zero dirs should fail")
	}
	if _, err := Generate(Config{Dirs: 10, Files: -1, MaxDepth: 5}); err == nil {
		t.Error("negative files should fail")
	}
	bad := DefaultConfig(0.01, 1)
	bad.FracEmpty = 0.9
	bad.FracSingle = 0.9
	if _, err := Generate(bad); err == nil {
		t.Error("fraction sum > 1 should fail")
	}
	// Far more directories than files cannot satisfy the plan.
	tiny := DefaultConfig(0.01, 1)
	tiny.Files = 10
	if _, err := Generate(tiny); err == nil {
		t.Error("files << dirs should fail")
	}
}

func TestDefaultConfigPanicsOnBadScale(t *testing.T) {
	for _, s := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scale %v should panic", s)
				}
			}()
			DefaultConfig(s, 1)
		}()
	}
}

func TestFullScaleConfigMatchesTable4(t *testing.T) {
	cfg := DefaultConfig(1.0, 1)
	if cfg.Dirs != 143245 {
		t.Errorf("dirs = %d, want 143245", cfg.Dirs)
	}
	if cfg.Files < 900000 {
		t.Errorf("files = %d, want over 900,000", cfg.Files)
	}
	if cfg.MaxDepth != 12 {
		t.Errorf("depth = %d, want 12", cfg.MaxDepth)
	}
}
