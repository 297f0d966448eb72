package migration

import (
	"math/rand"
	"testing"
	"time"

	"filemig/internal/units"
)

// placementString mimics the NCAR dynamic mix: many rereferenced small
// files plus rarely-reread large ones.
func placementString(n int, seed int64) []Access {
	rng := rand.New(rand.NewSource(seed))
	var accs []Access
	for i := 0; i < n; i++ {
		var file int
		var size units.Bytes
		if rng.Float64() < 0.7 {
			file = rng.Intn(100)
			size = units.Bytes(rng.Int63n(3*units.MB) + 100*units.KB)
		} else {
			file = 100 + rng.Intn(400)
			size = units.Bytes(rng.Int63n(150*units.MB) + 40*units.MB)
		}
		accs = append(accs, Access{
			Time:   t0.Add(time.Duration(i) * time.Minute),
			FileID: file, Size: size, Write: rng.Float64() < 0.3,
		})
	}
	return accs
}

func TestPlacementSweepShape(t *testing.T) {
	accs := placementString(6000, 1)
	thresholds := []units.Bytes{
		units.Bytes(units.MB), units.Bytes(10 * units.MB),
		units.Bytes(30 * units.MB), units.Bytes(200 * units.MB),
	}
	capacity := units.Bytes(300 * units.MB)
	res, err := PlacementSweep(accs, thresholds, capacity, 30*time.Second, 104*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	// Accounting: disk + tape = reads, fractions sane.
	for _, r := range res {
		if r.DiskReads+r.TapeReads != r.Reads {
			t.Fatalf("reads don't add up: %+v", r)
		}
		if r.DiskReads < 0 || r.DiskReads > r.Reads {
			t.Fatalf("disk reads %d of %d out of range", r.DiskReads, r.Reads)
		}
		if r.MeanFirstByte < 30*time.Second || r.MeanFirstByte > 104*time.Second {
			t.Fatalf("mean first byte %v outside the disk..tape band", r.MeanFirstByte)
		}
	}
	// A 30 MB threshold must beat both extremes here: at 1 MB most small
	// files bypass disk; at 200 MB the big files churn the small ones out.
	mid := res[2].MeanFirstByte
	if mid >= res[0].MeanFirstByte {
		t.Errorf("30 MB threshold (%v) should beat 1 MB (%v)", mid, res[0].MeanFirstByte)
	}
	if mid > res[3].MeanFirstByte {
		t.Errorf("30 MB threshold (%v) should not lose to 200 MB (%v)", mid, res[3].MeanFirstByte)
	}
}

func TestPlacementSweepEmptyReads(t *testing.T) {
	accs := []Access{{Time: t0, FileID: 1, Size: 10, Write: true}}
	res, err := PlacementSweep(accs, []units.Bytes{100}, 1000, time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Reads != 0 || res[0].MeanFirstByte != 0 {
		t.Errorf("write-only string should have no reads: %+v", res[0])
	}
}

func TestPlacementSweepPropagatesError(t *testing.T) {
	if _, err := PlacementSweep(nil, []units.Bytes{1}, 0, time.Second, time.Second); err == nil {
		t.Error("zero capacity should fail")
	}
}
