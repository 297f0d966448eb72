// Package units provides byte-size constants and formatting helpers
// shared by the trace, device, and analysis packages.
//
// The paper reports sizes in decimal megabytes ("an average file of 80 MB")
// and gigabytes; to stay comparable with the published numbers this package
// uses decimal (SI) units: 1 MB = 1e6 bytes, matching the convention of the
// 1993 mass-storage literature.
package units

import (
	"fmt"
	"time"
)

// Decimal byte units, following the paper's convention (1 MB = 10^6 bytes).
const (
	Byte int64 = 1
	KB         = 1000 * Byte
	MB         = 1000 * KB
	GB         = 1000 * MB
	TB         = 1000 * GB
)

// Bytes is a byte count with convenient formatting.
type Bytes int64

// MB reports b in decimal megabytes.
func (b Bytes) MB() float64 { return float64(b) / float64(MB) }

// GB reports b in decimal gigabytes.
func (b Bytes) GB() float64 { return float64(b) / float64(GB) }

// String formats b with a unit suffix chosen so the mantissa is < 1000,
// e.g. "25.0 MB", "23.0 TB".
func (b Bytes) String() string {
	v := float64(b)
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= float64(TB):
		return fmt.Sprintf("%s%.2f TB", neg, v/float64(TB))
	case v >= float64(GB):
		return fmt.Sprintf("%s%.2f GB", neg, v/float64(GB))
	case v >= float64(MB):
		return fmt.Sprintf("%s%.2f MB", neg, v/float64(MB))
	case v >= float64(KB):
		return fmt.Sprintf("%s%.2f KB", neg, v/float64(KB))
	default:
		return fmt.Sprintf("%s%d B", neg, int64(v))
	}
}

// DurationSeconds builds a duration from float seconds.
func DurationSeconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
