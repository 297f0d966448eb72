package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"filemig/internal/device"
	"filemig/internal/units"
)

func TestRawLogRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var raw bytes.Buffer
	if err := WriteRawLog(&raw, recs); err != nil {
		t.Fatalf("WriteRawLog: %v", err)
	}
	got, skipped, err := ConvertRawLog(&raw)
	if err != nil {
		t.Fatalf("ConvertRawLog: %v", err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d, want 0", skipped)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		want := recs[i]
		if !got[i].Start.Equal(want.Start) {
			t.Errorf("rec %d start = %v, want %v", i, got[i].Start, want.Start)
		}
		if got[i].Op != want.Op || got[i].Device != want.Device || got[i].Err != want.Err {
			t.Errorf("rec %d: got %+v want %+v", i, got[i], want)
		}
		if got[i].Size != want.Size || got[i].UserID != want.UserID {
			t.Errorf("rec %d payload: got %+v want %+v", i, got[i], want)
		}
		if want.Err == ErrNone {
			if got[i].Startup != want.Startup || got[i].Transfer != want.Transfer {
				t.Errorf("rec %d durations: got %v/%v want %v/%v",
					i, got[i].Startup, got[i].Transfer, want.Startup, want.Transfer)
			}
			if got[i].Compressed != want.Compressed {
				t.Errorf("rec %d compressed = %v", i, got[i].Compressed)
			}
		}
	}
}

func TestRawLogIsVerbose(t *testing.T) {
	recs := sampleRecords()
	// Add a *successful* manual-tape read: ErrNoFile requests never reach
	// the mount stage, so only this record produces an operator MOUNT.
	recs = append(recs, Record{
		Start: recs[len(recs)-1].Start.Add(time.Minute), Op: Read,
		Device:  device.ClassManualTape,
		Startup: 290 * time.Second, Transfer: 30 * time.Second,
		Size:    units.Bytes(47 * units.MB),
		MSSPath: "/mss/u3/old", LocalPath: "/tmp/old", UserID: 303,
	})
	var raw bytes.Buffer
	if err := WriteRawLog(&raw, recs); err != nil {
		t.Fatal(err)
	}
	out := raw.String()
	// The raw log carries the redundancy the paper complains about:
	// labelled fields, human-readable dates, user *name* and project in
	// addition to uid.
	for _, want := range []string{"user=", "uid=", "project=", "date=", "MOUNT", "TRANSFER"} {
		if !strings.Contains(out, want) {
			t.Errorf("raw log missing %q", want)
		}
	}
	// Tape requests get MOUNT lines; disk requests must not.
	lines := strings.Split(out, "\n")
	for _, l := range lines {
		if strings.Contains(l, "MOUNT") && strings.Contains(l, "by=operator") {
			return // manual mount present — good
		}
	}
	t.Error("expected an operator MOUNT line for the manual-tape record")
}

func TestRawLogCompression(t *testing.T) {
	// §4.1: processing cut 50 MB/month of log to 10-11 MB/month — roughly
	// a factor of 4.5-5. Our emulation should shrink by at least 2.5x
	// (paths dominate and cannot shrink, per the paper).
	base := Epoch
	var recs []Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, Record{
			Start: base.Add(time.Duration(i*11) * time.Second), Op: Read,
			Device:  device.ClassSiloTape,
			Startup: 85 * time.Second, Transfer: 40 * time.Second,
			Size:      units.Bytes(80 * units.MB),
			MSSPath:   "/mss/climate/run42/day" + itoa(i%365),
			LocalPath: "/usr/tmp/ccm" + itoa(i%100), UserID: uint32(i % 50),
		})
	}
	var raw, compact bytes.Buffer
	if err := WriteRawLog(&raw, recs); err != nil {
		t.Fatal(err)
	}
	if err := WriteAllFormat(&compact, recs, FormatASCII); err != nil {
		t.Fatal(err)
	}
	ratio := float64(raw.Len()) / float64(compact.Len())
	if ratio < 2.5 {
		t.Errorf("raw/compact size ratio = %.2f, want >= 2.5 (paper: ~4.5-5x)", ratio)
	}
	t.Logf("raw %d bytes, compact %d bytes, ratio %.2f", raw.Len(), compact.Len(), ratio)
}

func TestConvertRawLogSkipsGarbage(t *testing.T) {
	in := "not a log line\nMSCP: gibberish without seq\nMSCP: seq=zz op=read\n"
	recs, skipped, err := ConvertRawLog(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("recs = %v, want none", recs)
	}
	if skipped == 0 {
		t.Error("garbage lines should be counted as skipped")
	}
}

func TestConvertRawLogIncompleteRequest(t *testing.T) {
	// A MOVER line whose MSCP REQUEST line is missing cannot be attributed.
	in := "MOVER: seq=7 COMPLETE transfer_msec=100 status=ok\n"
	recs, skipped, err := ConvertRawLog(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || skipped != 1 {
		t.Errorf("recs=%d skipped=%d, want 0/1", len(recs), skipped)
	}
}

func TestParseRawFieldsQuoted(t *testing.T) {
	m, ok := parseRawFields(`MSCP: seq=3 date="Mon Oct 1 00:00:10 1990" op=read`)
	if !ok {
		t.Fatal("parse failed")
	}
	if m["seq"] != "3" || m["op"] != "read" {
		t.Errorf("fields = %v", m)
	}
	if m["date"] != "Mon Oct 1 00:00:10 1990" {
		t.Errorf("date = %q", m["date"])
	}
	if _, ok := parseRawFields("OTHER: x=1"); ok {
		t.Error("non-MSS prefix should fail")
	}
	if _, ok := parseRawFields(`MSCP: date="unterminated`); ok {
		t.Error("unterminated quote should fail")
	}
}
