// Package device models the storage devices of the NCAR mass storage
// system with the parameters published in the paper: Table 1's media
// comparison (optical jukebox, IBM 3490 linear tape, Ampex D-2 helical
// tape), the IBM 3380 staging disks, the StorageTek 4400 automated
// cartridge system (§2.2: 6000 × 200 MB cartridges, <10 s pick), and the
// operator-staffed shelf-tape vault (§5.1.1: ≈115 s mount with a long
// tail). Access costs decompose exactly the way §5.1.1 does: mount + seek +
// transfer, with queueing supplied by the simulator on top.
package device

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"filemig/internal/units"
)

// Class identifies the storage class a device belongs to; the trace format
// records it as the source/destination of each transfer.
type Class int

// Storage classes, ordered roughly down the storage pyramid (Figure 1).
const (
	ClassUnknown    Class = iota
	ClassSSD              // Cray solid-state disk
	ClassDisk             // magnetic staging disk (IBM 3380)
	ClassSiloTape         // robot-mounted cartridge (StorageTek 4400)
	ClassManualTape       // operator-mounted shelf tape
	ClassOptical          // optical disk jukebox
)

// NClasses is the number of storage classes, sized so a [NClasses]T array
// can be indexed directly by Class — the dense-accumulator layout the
// per-record analysis hot path uses instead of nested maps.
const NClasses = int(ClassOptical) + 1

var classNames = map[Class]string{
	ClassUnknown:    "unknown",
	ClassSSD:        "ssd",
	ClassDisk:       "disk",
	ClassSiloTape:   "silo",
	ClassManualTape: "manual",
	ClassOptical:    "optical",
}

// String returns the short name used in trace records.
func (c Class) String() string {
	if n, ok := classNames[c]; ok {
		return n
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// classByName inverts classNames; built once so ParseClass and
// ParseClassBytes share one source of truth with String.
var classByName = func() map[string]Class {
	m := make(map[string]Class, len(classNames))
	for c, n := range classNames {
		m[n] = c
	}
	return m
}()

// ParseClass inverts String.
func ParseClass(s string) (Class, error) {
	if c, ok := classByName[s]; ok {
		return c, nil
	}
	return ClassUnknown, fmt.Errorf("device: unknown class %q", s)
}

// ParseClassBytes is ParseClass for a byte-slice key on a hot decode
// path: the map probe does not allocate, and the boolean result spares
// the caller an error value it would rebuild anyway.
func ParseClassBytes(b []byte) (Class, bool) {
	c, ok := classByName[string(b)] // no-alloc map lookup
	return c, ok
}

// Profile holds the physical parameters of one device type. Rates are in
// bytes/second; costs in dollars per decimal gigabyte, as in Table 1.
type Profile struct {
	Name  string
	Class Class

	MediaCapacity units.Bytes   // per-cartridge / per-platter capacity
	RandomAccess  time.Duration // nominal media random access time (Table 1)
	PeakRate      float64       // media peak transfer, bytes/s
	ObservedRate  float64       // end-to-end observed transfer, bytes/s (§5.1.1: ~2 MB/s)
	CostPerGB     float64       // media cost, $/GB

	// MountMedian and MountSigma parameterise a lognormal mount-time
	// distribution (robot pick or operator fetch). Zero MountMedian means
	// the medium is always mounted (disk).
	MountMedian time.Duration
	MountSigma  float64

	// FullSeek is the time to seek across an entire medium; a seek to
	// fractional offset f costs f*FullSeek (plus any fixed RandomAccess
	// positioning overhead folded into FullSeek for tape).
	FullSeek time.Duration
}

// Published device profiles. Values follow Table 1 and §2.2/§5.1.1 of the
// paper; the derived silo/manual numbers implement the paper's own
// decomposition (silo pick <10 s, ~50 s average tape seek, ~115 s operator
// mount).
var (
	// IBM3380 models the MSS staging disks (100 GB of IBM 3380s on the
	// 3090). Mount is instantaneous; seeks are milliseconds; the paper
	// observed ~2 MB/s end-to-end with a 3 MB/s peak.
	IBM3380 = Profile{
		Name:          "IBM 3380 disk",
		Class:         ClassDisk,
		MediaCapacity: units.Bytes(2500 * units.MB),
		RandomAccess:  24 * time.Millisecond,
		PeakRate:      3e6,
		ObservedRate:  2e6,
		CostPerGB:     2000,
		FullSeek:      48 * time.Millisecond,
	}

	// IBM3490 is Table 1's "linear tape": 400 MB cartridge, 13 s random
	// access, 6 MB/s, $25/GB.
	IBM3490 = Profile{
		Name:          "IBM 3490 linear tape",
		Class:         ClassSiloTape,
		MediaCapacity: units.Bytes(400 * units.MB),
		RandomAccess:  13 * time.Second,
		PeakRate:      6e6,
		ObservedRate:  2e6,
		CostPerGB:     25,
		MountMedian:   8 * time.Second,
		MountSigma:    0.2,
		FullSeek:      26 * time.Second,
	}

	// AmpexD2 is Table 1's helical-scan tape: 25 GB, 60+ s random access,
	// 15 MB/s, $2/GB.
	AmpexD2 = Profile{
		Name:          "Ampex D-2 helical tape",
		Class:         ClassSiloTape,
		MediaCapacity: units.Bytes(25 * units.GB),
		RandomAccess:  60 * time.Second,
		PeakRate:      15e6,
		ObservedRate:  8e6,
		CostPerGB:     2,
		MountMedian:   10 * time.Second,
		MountSigma:    0.25,
		FullSeek:      120 * time.Second,
	}

	// OpticalJukebox is Table 1's optical disk jukebox: 1.2 GB platters,
	// 7 s random access, 0.25 MB/s, $80/GB.
	OpticalJukebox = Profile{
		Name:          "optical disk jukebox",
		Class:         ClassOptical,
		MediaCapacity: units.Bytes(1200 * units.MB),
		RandomAccess:  7 * time.Second,
		PeakRate:      0.25e6,
		ObservedRate:  0.25e6,
		CostPerGB:     80,
		MountMedian:   7 * time.Second,
		MountSigma:    0.15,
		FullSeek:      time.Second,
	}

	// SiloTape3480 models the cartridges inside the StorageTek 4400 ACS:
	// 200 MB IBM 3480-style cartridges, robot pick under 10 seconds,
	// average seek around 50 s (§5.1.1), observed ~2 MB/s.
	SiloTape3480 = Profile{
		Name:          "STK 4400 silo 3480 cartridge",
		Class:         ClassSiloTape,
		MediaCapacity: units.Bytes(200 * units.MB),
		RandomAccess:  13 * time.Second,
		PeakRate:      3e6,
		ObservedRate:  2e6,
		CostPerGB:     25,
		MountMedian:   8 * time.Second,
		MountSigma:    0.2,
		FullSeek:      100 * time.Second,
	}

	// ManualTape3480 is the same cartridge fetched from shelf storage by a
	// human operator: ≈115 s typical mount (§5.1.1) with a heavy lognormal
	// tail — 10% of manual accesses exceeded 400 s end to end.
	ManualTape3480 = Profile{
		Name:          "shelf 3480 cartridge (operator mounted)",
		Class:         ClassManualTape,
		MediaCapacity: units.Bytes(200 * units.MB),
		RandomAccess:  13 * time.Second,
		PeakRate:      3e6,
		ObservedRate:  2e6,
		CostPerGB:     25,
		MountMedian:   115 * time.Second,
		MountSigma:    0.65,
		FullSeek:      100 * time.Second,
	}
)

// AccessCost is the §5.1.1 decomposition of one media access, excluding
// queueing (the simulator's resources contribute that).
type AccessCost struct {
	Mount    time.Duration
	Seek     time.Duration
	Transfer time.Duration
}

// Total is the full service time.
func (a AccessCost) Total() time.Duration { return a.Mount + a.Seek + a.Transfer }

// Access computes the cost of reading or writing size bytes starting at
// fractional media offset offsetFrac in [0,1]. If r is non-nil the mount
// time is drawn from the profile's lognormal; otherwise the median is used.
// mounted=true skips the mount (medium already on a drive).
func (p *Profile) Access(offsetFrac float64, size units.Bytes, mounted bool, r *rand.Rand) AccessCost {
	if offsetFrac < 0 {
		offsetFrac = 0
	}
	if offsetFrac > 1 {
		offsetFrac = 1
	}
	var mount time.Duration
	if !mounted && p.MountMedian > 0 {
		mount = p.MountMedian
		if r != nil && p.MountSigma > 0 {
			f := lognormFactor(p.MountSigma, r)
			mount = time.Duration(float64(p.MountMedian) * f)
		}
	}
	seek := time.Duration(float64(p.FullSeek) * offsetFrac)
	rate := p.ObservedRate
	if rate <= 0 {
		rate = p.PeakRate
	}
	transfer := time.Duration(float64(size) / rate * float64(time.Second))
	return AccessCost{Mount: mount, Seek: seek, Transfer: transfer}
}

// lognormFactor draws exp(sigma·N(0,1)), a lognormal multiplier with
// median 1, used to spread mount times around their published medians.
func lognormFactor(sigma float64, r *rand.Rand) float64 {
	return math.Exp(sigma * r.NormFloat64())
}

// TimeToLastByte reports the expected seconds to fetch an entire file of
// the given size after a cold start (median mount, half-media seek).
func (p *Profile) TimeToLastByte(size units.Bytes) float64 {
	c := p.Access(0.5, size, false, nil)
	return c.Total().Seconds()
}
