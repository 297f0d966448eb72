package device

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"filemig/internal/units"
)

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		ClassDisk:       "disk",
		ClassSiloTape:   "silo",
		ClassManualTape: "manual",
		ClassOptical:    "optical",
		ClassSSD:        "ssd",
		ClassUnknown:    "unknown",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
		parsed, err := ParseClass(want)
		if err != nil || parsed != c {
			t.Errorf("ParseClass(%q) = %v, %v", want, parsed, err)
		}
	}
	if Class(99).String() != "class(99)" {
		t.Errorf("unknown class string = %q", Class(99).String())
	}
	if _, err := ParseClass("floppy"); err == nil {
		t.Error("ParseClass should reject unknown names")
	}
}

func TestTable1Parameters(t *testing.T) {
	// Table 1 of the paper, verbatim.
	if OpticalJukebox.MediaCapacity != units.Bytes(1200*units.MB) {
		t.Errorf("optical capacity = %v, want 1.2 GB", OpticalJukebox.MediaCapacity)
	}
	if OpticalJukebox.RandomAccess != 7*time.Second {
		t.Errorf("optical random access = %v, want 7s", OpticalJukebox.RandomAccess)
	}
	if OpticalJukebox.PeakRate != 0.25e6 {
		t.Errorf("optical rate = %v, want 0.25 MB/s", OpticalJukebox.PeakRate)
	}
	if OpticalJukebox.CostPerGB != 80 {
		t.Errorf("optical cost = %v, want $80/GB", OpticalJukebox.CostPerGB)
	}
	if IBM3490.MediaCapacity != units.Bytes(400*units.MB) {
		t.Errorf("3490 capacity = %v, want 0.4 GB", IBM3490.MediaCapacity)
	}
	if IBM3490.RandomAccess != 13*time.Second {
		t.Errorf("3490 random access = %v, want 13s", IBM3490.RandomAccess)
	}
	if IBM3490.PeakRate != 6e6 || IBM3490.CostPerGB != 25 {
		t.Errorf("3490 rate/cost = %v/%v, want 6 MB/s, $25/GB", IBM3490.PeakRate, IBM3490.CostPerGB)
	}
	if AmpexD2.MediaCapacity != units.Bytes(25*units.GB) {
		t.Errorf("D-2 capacity = %v, want 25 GB", AmpexD2.MediaCapacity)
	}
	if AmpexD2.RandomAccess < 60*time.Second {
		t.Errorf("D-2 random access = %v, want 60+s", AmpexD2.RandomAccess)
	}
	if AmpexD2.PeakRate != 15e6 || AmpexD2.CostPerGB != 2 {
		t.Errorf("D-2 rate/cost = %v/%v, want 15 MB/s, $2/GB", AmpexD2.PeakRate, AmpexD2.CostPerGB)
	}
}

func TestSiloCartridgeMatchesPaper(t *testing.T) {
	// §2.2: 6000 cartridges at 200 MB each; robot pick < 10 s.
	if SiloTape3480.MediaCapacity != units.Bytes(200*units.MB) {
		t.Errorf("silo cartridge = %v, want 200 MB", SiloTape3480.MediaCapacity)
	}
	if SiloTape3480.MountMedian >= 10*time.Second {
		t.Errorf("silo pick = %v, want under 10s", SiloTape3480.MountMedian)
	}
	// §5.1.1: manual mount ≈ 115 s ("about 2 minutes").
	if ManualTape3480.MountMedian != 115*time.Second {
		t.Errorf("manual mount = %v, want 115s", ManualTape3480.MountMedian)
	}
}

func TestAccessDecomposition(t *testing.T) {
	c := SiloTape3480.Access(0.5, units.Bytes(80*units.MB), false, nil)
	if c.Mount != 8*time.Second {
		t.Errorf("mount = %v, want 8s median (nil rng)", c.Mount)
	}
	if c.Seek != 50*time.Second {
		t.Errorf("seek = %v, want 50s (half of 100s full seek, §5.1.1)", c.Seek)
	}
	// §5.1.1: "an average file of 80 MB will take 40 seconds to transfer".
	if c.Transfer != 40*time.Second {
		t.Errorf("transfer = %v, want 40s at 2 MB/s", c.Transfer)
	}
	if c.Mount+c.Seek != 58*time.Second {
		t.Errorf("first byte = %v", c.Mount+c.Seek)
	}
	if c.Total() != 98*time.Second {
		t.Errorf("total = %v", c.Total())
	}
}

func TestAccessMounted(t *testing.T) {
	c := SiloTape3480.Access(0, units.Bytes(units.MB), true, nil)
	if c.Mount != 0 {
		t.Errorf("mounted access should skip mount, got %v", c.Mount)
	}
	if c.Seek != 0 {
		t.Errorf("offset 0 seek = %v, want 0", c.Seek)
	}
}

func TestAccessOffsetClamped(t *testing.T) {
	lo := SiloTape3480.Access(-1, 0, true, nil)
	hi := SiloTape3480.Access(2, 0, true, nil)
	if lo.Seek != 0 {
		t.Errorf("seek at clamped -1 = %v", lo.Seek)
	}
	if hi.Seek != SiloTape3480.FullSeek {
		t.Errorf("seek at clamped 2 = %v, want full seek", hi.Seek)
	}
}

func TestAccessMountVariability(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var lo, hi int
	for i := 0; i < 5000; i++ {
		c := ManualTape3480.Access(0, 0, false, r)
		if c.Mount < 115*time.Second {
			lo++
		} else {
			hi++
		}
	}
	// Lognormal with median 115s: about half above, half below.
	frac := float64(lo) / 5000
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("fraction below median = %v, want ~0.5", frac)
	}
	// Long tail: some manual mounts should exceed 300 s (§5.1.1 figure 3).
	r2 := rand.New(rand.NewSource(2))
	tail := 0
	for i := 0; i < 5000; i++ {
		if ManualTape3480.Access(0, 0, false, r2).Mount > 300*time.Second {
			tail++
		}
	}
	if tail == 0 {
		t.Error("manual mount distribution has no tail beyond 300s")
	}
	if float64(tail)/5000 > 0.2 {
		t.Errorf("manual mount tail too fat: %v > 300s", float64(tail)/5000)
	}
}

func TestDiskIsFastToFirstByte(t *testing.T) {
	d := IBM3380.Access(0.5, units.Bytes(units.MB), false, nil)
	if d.Mount+d.Seek > time.Second {
		t.Errorf("disk first byte = %v, want well under a second (§5.1)", d.Mount+d.Seek)
	}
}

func TestTapeBeatsOpticalForLargeFiles(t *testing.T) {
	// §2.2: optical wins small accesses, tape wins large supercomputer
	// files. Verify both regimes and that a crossover exists.
	small := units.Bytes(100 * units.KB)
	large := units.Bytes(150 * units.MB)
	if OpticalJukebox.TimeToLastByte(small) >= SiloTape3480.TimeToLastByte(small) {
		t.Errorf("optical should win at 100 KB: optical=%v tape=%v",
			OpticalJukebox.TimeToLastByte(small), SiloTape3480.TimeToLastByte(small))
	}
	if SiloTape3480.TimeToLastByte(large) >= OpticalJukebox.TimeToLastByte(large) {
		t.Errorf("tape should win at 150 MB: tape=%v optical=%v",
			SiloTape3480.TimeToLastByte(large), OpticalJukebox.TimeToLastByte(large))
	}
	x := CrossoverSize(&OpticalJukebox, &SiloTape3480, units.Bytes(200*units.MB))
	if x <= small || x >= large {
		t.Errorf("crossover = %v, want between 100 KB and 150 MB", x)
	}
}

func TestCrossoverNeverWins(t *testing.T) {
	// Disk always beats manual tape; crossover in the other direction
	// reports maxSize+1.
	max := units.Bytes(200 * units.MB)
	x := CrossoverSize(&IBM3380, &ManualTape3480, max)
	if x != max+1 {
		t.Errorf("crossover = %v, want sentinel %v", x, max+1)
	}
}
