package trace

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"filemig/internal/device"
	"filemig/internal/units"
)

func sampleRecords() []Record {
	base := Epoch
	return []Record{
		{
			Start: base.Add(10 * time.Second), Op: Read, Device: device.ClassDisk,
			Startup: 4 * time.Second, Transfer: 1500 * time.Millisecond,
			Size: units.Bytes(3 * units.MB), MSSPath: "/mss/u1/a", LocalPath: "/tmp/a", UserID: 101,
		},
		{
			Start: base.Add(15 * time.Second), Op: Write, Device: device.ClassSiloTape,
			Startup: 85 * time.Second, Transfer: 40000 * time.Millisecond,
			Size: units.Bytes(80 * units.MB), MSSPath: "/mss/u1/b", LocalPath: "/tmp/b", UserID: 101,
		},
		{
			Start: base.Add(400 * time.Second), Op: Read, Device: device.ClassManualTape,
			Err:     ErrNoFile,
			Startup: 0, Transfer: 0,
			Size: 0, MSSPath: "/mss/u2/gone", LocalPath: "/tmp/gone", UserID: 202,
		},
		{
			Start: base.Add(401 * time.Second), Op: Read, Device: device.ClassSiloTape,
			Compressed: true,
			Startup:    100 * time.Second, Transfer: 2500 * time.Millisecond,
			Size: units.Bytes(5 * units.MB), MSSPath: "/mss/u2/c", LocalPath: "/tmp/c", UserID: 202,
		},
	}
}

func TestRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteAllFormat(&buf, recs, FormatASCII); err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		want := recs[i]
		if !got[i].Start.Equal(want.Start) {
			t.Errorf("rec %d start = %v, want %v", i, got[i].Start, want.Start)
		}
		if got[i].Op != want.Op || got[i].Device != want.Device ||
			got[i].Err != want.Err || got[i].Compressed != want.Compressed {
			t.Errorf("rec %d flags mismatch: %+v vs %+v", i, got[i], want)
		}
		if got[i].Startup != want.Startup || got[i].Transfer != want.Transfer {
			t.Errorf("rec %d durations = %v/%v, want %v/%v",
				i, got[i].Startup, got[i].Transfer, want.Startup, want.Transfer)
		}
		if got[i].Size != want.Size || got[i].UserID != want.UserID ||
			got[i].MSSPath != want.MSSPath || got[i].LocalPath != want.LocalPath {
			t.Errorf("rec %d payload mismatch: %+v vs %+v", i, got[i], want)
		}
	}
}

func TestSameUserFlagEncoding(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteAllFormat(&buf, recs, FormatASCII); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Line 0 is the header; records at index 1..4. Record 2 shares uid 101
	// with record 1, record 4 shares 202 with record 3.
	if !strings.Contains(lines[2], " = ") {
		t.Errorf("second record should use same-user '=': %q", lines[2])
	}
	if !strings.Contains(lines[4], " = ") {
		t.Errorf("fourth record should use same-user '=': %q", lines[4])
	}
	if strings.Contains(lines[1], " = ") || strings.Contains(lines[3], " = ") {
		t.Errorf("user-change records must carry explicit uid")
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterEpoch(&buf, Epoch)
	recs := sampleRecords()
	if err := w.Write(&recs[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&recs[0]); err == nil {
		t.Error("out-of-order record should be rejected")
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterEpoch(&buf, Epoch)
	bad := sampleRecords()[0]
	bad.MSSPath = "has space"
	if err := w.Write(&bad); err == nil {
		t.Error("path with space should be rejected")
	}
	bad = sampleRecords()[0]
	bad.Size = -1
	if err := w.Write(&bad); err == nil {
		t.Error("negative size should be rejected")
	}
	bad = sampleRecords()[0]
	bad.Device = device.ClassUnknown
	if err := w.Write(&bad); err == nil {
		t.Error("unknown device should be rejected")
	}
	bad = sampleRecords()[0]
	bad.Start = time.Time{}
	if err := w.Write(&bad); err == nil {
		t.Error("zero start should be rejected")
	}
}

func TestReaderErrors(t *testing.T) {
	cases := []string{
		"not a header\n1 disk cray R 0 0 0 1 /a /b\n",
		"#filemig-trace v1 epoch=zzz\n",
		"#filemig-trace v1 epoch=0\n1 disk cray R 0 0\n",             // short line
		"#filemig-trace v1 epoch=0\nx disk cray R 0 0 0 1 /a /b\n",   // bad delta
		"#filemig-trace v1 epoch=0\n-5 disk cray R 0 0 0 1 /a /b\n",  // negative delta
		"#filemig-trace v1 epoch=0\n1 disk cray Q 0 0 0 1 /a /b\n",   // bad flags
		"#filemig-trace v1 epoch=0\n1 floppy cray R 0 0 0 1 /a /b\n", // bad device
		"#filemig-trace v1 epoch=0\n1 disk cray R z 0 0 1 /a /b\n",   // bad startup
		"#filemig-trace v1 epoch=0\n1 disk cray R 0 z 0 1 /a /b\n",   // bad transfer
		"#filemig-trace v1 epoch=0\n1 disk cray R 0 0 z 1 /a /b\n",   // bad size
		"#filemig-trace v1 epoch=0\n1 disk cray R 0 0 0 zz /a /b\n",  // bad uid
		"#filemig-trace v1 epoch=0\n1 disk cray REbogus 0 0 0 1 /a /b\n",
	}
	for i, c := range cases {
		if _, err := ReadAll(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error for %q", i, c)
		}
	}
}

func TestReaderSameUserFirstRecord(t *testing.T) {
	// '=' on the first record resolves to uid 0 (the reader's initial state).
	in := "#filemig-trace v1 epoch=0\n1 disk cray R 0 0 0 = /a /b\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].UserID != 0 {
		t.Errorf("uid = %d, want 0", recs[0].UserID)
	}
}

func TestEmptyStream(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Errorf("empty stream: %v, %v", recs, err)
	}
	r := NewReader(strings.NewReader(""))
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("Next on empty = %v, want EOF", err)
	}
}

func TestSecondsTruncationIsStable(t *testing.T) {
	// Start times with sub-second components must not accumulate drift:
	// deltas are whole seconds, so decoded times equal the truncated chain.
	base := Epoch
	recs := []Record{
		mkRec(base.Add(1500*time.Millisecond), 1),
		mkRec(base.Add(2900*time.Millisecond), 2),
		mkRec(base.Add(4100*time.Millisecond), 3),
	}
	var buf bytes.Buffer
	w := NewWriterEpoch(&buf, base)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The writer deltas against the *truncated* previous start, so every
	// decoded time is floor(absolute): error stays under one second and
	// never accumulates.
	want := []time.Duration{1 * time.Second, 2 * time.Second, 4 * time.Second}
	for i := range got {
		if d := got[i].Start.Sub(base); d != want[i] {
			t.Errorf("rec %d decoded offset %v, want %v", i, d, want[i])
		}
		actual := recs[i].Start.Sub(base)
		if diff := actual - want[i]; diff < 0 || diff >= time.Second {
			t.Errorf("rec %d truncation error %v, want in [0s, 1s)", i, diff)
		}
	}
}

func mkRec(start time.Time, uid uint32) Record {
	return Record{
		Start: start, Op: Read, Device: device.ClassDisk,
		Size: units.Bytes(units.MB), MSSPath: "/m", LocalPath: "/l", UserID: uid,
	}
}

func TestRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%50) + 1
		recs := make([]Record, count)
		cur := Epoch
		devs := []device.Class{device.ClassDisk, device.ClassSiloTape, device.ClassManualTape, device.ClassOptical}
		for i := range recs {
			cur = cur.Add(time.Duration(r.Intn(100)) * time.Second)
			recs[i] = Record{
				Start:      cur,
				Op:         Op(r.Intn(2)),
				Device:     devs[r.Intn(len(devs))],
				Err:        ErrCode(r.Intn(4)),
				Compressed: r.Intn(2) == 0,
				Startup:    time.Duration(r.Intn(500)) * time.Second,
				Transfer:   time.Duration(r.Intn(100000)) * time.Millisecond,
				Size:       units.Bytes(r.Int63n(200 * units.MB)),
				MSSPath:    "/mss/f" + itoa(r.Intn(1000)),
				LocalPath:  "/l/f" + itoa(r.Intn(1000)),
				UserID:     uint32(r.Intn(40)),
			}
		}
		var buf bytes.Buffer
		if err := WriteAllFormat(&buf, recs, FormatASCII); err != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			a, b := got[i], recs[i]
			if !a.Start.Equal(b.Start) || a.Op != b.Op || a.Device != b.Device ||
				a.Err != b.Err || a.Compressed != b.Compressed ||
				a.Startup != b.Startup || a.Transfer != b.Transfer ||
				a.Size != b.Size || a.UserID != b.UserID ||
				a.MSSPath != b.MSSPath || a.LocalPath != b.LocalPath {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func itoa(i int) string {
	const digits = "0123456789"
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{digits[i%10]}, b...)
		i /= 10
	}
	return string(b)
}

func TestRecordAccessors(t *testing.T) {
	r := sampleRecords()[0]
	if r.Source() != "disk" || r.Destination() != "cray" {
		t.Errorf("read source/dest = %s/%s", r.Source(), r.Destination())
	}
	w := sampleRecords()[1]
	if w.Source() != "cray" || w.Destination() != "silo" {
		t.Errorf("write source/dest = %s/%s", w.Source(), w.Destination())
	}
	if !r.OK() {
		t.Error("record without error should be OK")
	}
	if sampleRecords()[2].OK() {
		t.Error("ErrNoFile record should not be OK")
	}
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("Op strings wrong")
	}
	if ErrNoFile.String() != "nofile" || ErrCode(42).String() != "err(42)" {
		t.Error("ErrCode strings wrong")
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterEpoch(&buf, Epoch)
	recs := sampleRecords()
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != int64(len(recs)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(recs))
	}
}
