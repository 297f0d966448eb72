package units

import (
	"testing"
	"time"
)

func TestByteConstants(t *testing.T) {
	if KB != 1000 || MB != 1000*1000 || GB != 1e9 || TB != 1e12 {
		t.Fatalf("decimal units expected: KB=%d MB=%d GB=%d TB=%d", KB, MB, GB, TB)
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0 B"},
		{999, "999 B"},
		{Bytes(KB), "1.00 KB"},
		{Bytes(25 * MB), "25.00 MB"},
		{Bytes(23 * TB), "23.00 TB"},
		{Bytes(1200 * MB), "1.20 GB"},
		{-Bytes(2 * MB), "-2.00 MB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestBytesConversions(t *testing.T) {
	b := Bytes(80 * MB)
	if b.MB() != 80 {
		t.Errorf("MB() = %v, want 80", b.MB())
	}
	if Bytes(GB).GB() != 1 {
		t.Errorf("GB() = %v, want 1", Bytes(GB).GB())
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	d := 98*time.Second + 100*time.Millisecond
	if got := d.Seconds(); got != 98.1 {
		t.Errorf("d.Seconds = %v, want 98.1", got)
	}
	if got := DurationSeconds(98.1); got != d {
		t.Errorf("DurationSeconds = %v, want %v", got, d)
	}
}
