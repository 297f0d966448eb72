package mss

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"filemig/internal/device"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// syntheticTrace builds a time-sorted trace that leans on everything the
// simulator orders: sessions of same-second arrivals, a small path pool
// (so cartridges are found mounted), every device class, writes (for
// write-behind) and errFrac error requests.
func syntheticTrace(seed int64, n int, errFrac float64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	devs := []device.Class{device.ClassDisk, device.ClassDisk, device.ClassSiloTape,
		device.ClassSiloTape, device.ClassManualTape, device.ClassOptical}
	recs := make([]trace.Record, n)
	var at time.Duration
	for i := range recs {
		if rng.Intn(4) != 0 {
			at += time.Duration(rng.Intn(90)) * time.Second
		}
		r := mkRec(at, trace.Op(rng.Intn(2)), devs[rng.Intn(len(devs))],
			units.Bytes(rng.Int63n(int64(200*units.MB))), fmt.Sprintf("/mss/d%d/f%d", rng.Intn(7), rng.Intn(60)))
		if rng.Float64() < errFrac {
			r.Err, r.Size = trace.ErrNoFile, 0
		}
		recs[i] = r
	}
	return recs
}

// replayConfigs are the installations the equivalence tests cover; the
// starved one keeps deep queues at the silo drive and the operator.
func replayConfigs(seed int64) map[string]Config {
	wb := DefaultConfig(seed)
	wb.WriteBehind = true
	optical := DefaultConfig(seed)
	optical.SmallOnOptical = true
	starved := DefaultConfig(seed)
	starved.SiloDrives, starved.Operators = 1, 1
	starvedWB := starved
	starvedWB.WriteBehind = true
	return map[string]Config{"default": DefaultConfig(seed), "write-behind": wb,
		"small-on-optical": optical, "starved": starved, "starved write-behind": starvedWB}
}

func collectStream(t *testing.T, st trace.Stream) []trace.Record {
	t.Helper()
	out, err := trace.Collect(st)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplayStreamMatchesReplay holds the stream form to the slice form
// record for record, and to the same ResourceStats and MountStats once
// the stream has reported io.EOF.
func TestReplayStreamMatchesReplay(t *testing.T) {
	traces := map[string]func(seed int64) []trace.Record{
		"mixed":       func(seed int64) []trace.Record { return syntheticTrace(seed, 3000, 0.05) },
		"error-heavy": func(seed int64) []trace.Record { return syntheticTrace(seed, 1500, 0.6) },
		"one record":  func(seed int64) []trace.Record { return syntheticTrace(seed, 1, 0) },
		"empty":       func(seed int64) []trace.Record { return nil },
	}
	for seed := int64(1); seed <= 3; seed++ {
		for cname, cfg := range replayConfigs(seed) {
			for tname, build := range traces {
				recs := build(seed)
				slice := NewSimulator(cfg)
				want, err := slice.Replay(recs)
				if err != nil {
					t.Fatal(err)
				}
				stream := NewSimulator(cfg)
				got := collectStream(t, stream.ReplayStream(trace.SliceStream(recs)))
				name := fmt.Sprintf("seed %d, %s, %s", seed, cname, tname)
				if len(got) != len(want) {
					t.Fatalf("%s: stream yielded %d records, Replay %d", name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: record %d differs:\n stream %+v\n slice  %+v", name, i, got[i], want[i])
					}
				}
				if !reflect.DeepEqual(stream.ResourceStats(), slice.ResourceStats()) {
					t.Errorf("%s: ResourceStats differ:\n stream %+v\n slice  %+v", name,
						stream.ResourceStats(), slice.ResourceStats())
				}
				gd, gs := stream.MountStats()
				wd, ws := slice.MountStats()
				if gd != wd || gs != ws {
					t.Errorf("%s: MountStats = %d/%d, Replay %d/%d", name, gd, gs, wd, ws)
				}
			}
		}
	}
}

// replayDigest folds a replay's whole observable result — every record,
// every station's statistics, the mount counts — into one hash.
func replayDigest(t *testing.T, cfg Config, recs []trace.Record) string {
	t.Helper()
	s := NewSimulator(cfg)
	out, err := s.Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := range out {
		r := &out[i]
		fmt.Fprintln(h, r.Start.UnixNano(), r.Op, r.Device, r.Err, r.Startup, r.Transfer, r.Size, r.MSSPath)
	}
	for _, st := range s.ResourceStats() {
		fmt.Fprintln(h, st.Name, st.Arrivals, st.MeanWait, st.MaxWait, st.MaxQueue, st.Utilization)
	}
	done, skipped := s.MountStats()
	fmt.Fprintln(h, done, skipped)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestReplayPinnedToClosureSimulator pins the request state machine and
// the merged admission loop to the simulator they replaced — one closure
// chain per device class, every arrival scheduled up front — whose
// digests of these replays are recorded here.
func TestReplayPinnedToClosureSimulator(t *testing.T) {
	want := map[string]string{
		"default":              "ef62070459273385",
		"write-behind":         "b8445e8bd5ea6a3d",
		"small-on-optical":     "b8b1ee09ad7746f7",
		"starved":              "7828b431a7b754ed",
		"starved write-behind": "56370ca03863cd9e",
	}
	recs := syntheticTrace(1993, 4000, 0.05)
	for name, cfg := range replayConfigs(1993) {
		if got := replayDigest(t, cfg, recs); got != want[name] {
			t.Errorf("%s: digest %s, the closure simulator's was %s", name, got, want[name])
		}
	}
}

func TestReplayStreamRejectsUnsortedAtIndex(t *testing.T) {
	recs := syntheticTrace(5, 40, 0)
	recs[25].Start = recs[24].Start.Add(-time.Second)
	wantErr := "mss: input records not time-sorted at 25"
	if _, err := NewSimulator(DefaultConfig(5)).Replay(recs); err == nil || err.Error() != wantErr {
		t.Errorf("Replay error = %v, want %q", err, wantErr)
	}
	st := NewSimulator(DefaultConfig(5)).ReplayStream(trace.SliceStream(recs))
	yielded := 0
	for {
		_, err := st.Next()
		if err == nil {
			yielded++
			continue
		}
		if err.Error() != wantErr {
			t.Fatalf("stream error = %v, want %q", err, wantErr)
		}
		break
	}
	if yielded >= 25 {
		t.Errorf("yielded %d records, at most the 25 before the offender can have completed", yielded)
	}
	if _, err := st.Next(); err == nil || err.Error() != wantErr {
		t.Errorf("error is not sticky: second Next = %v", err)
	}
}

// failingStream yields its records and then a transport error.
type failingStream struct {
	recs []trace.Record
	err  error
}

func (f *failingStream) Next() (trace.Record, error) {
	if len(f.recs) == 0 {
		return trace.Record{}, f.err
	}
	r := f.recs[0]
	f.recs = f.recs[1:]
	return r, nil
}

func TestReplayStreamSurfacesSourceError(t *testing.T) {
	recs := syntheticTrace(6, 200, 0.05)
	want := NewSimulator(DefaultConfig(6))
	full, err := want.Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("transport: connection reset")
	st := NewSimulator(DefaultConfig(6)).ReplayStream(&failingStream{recs: recs[:120], err: boom})
	yielded := 0
	for {
		r, err := st.Next()
		if err != nil {
			if err != boom {
				t.Fatalf("stream error = %v, want the source's", err)
			}
			break
		}
		if r != full[yielded] {
			t.Fatalf("record %d before the failure differs from the full replay", yielded)
		}
		yielded++
	}
	if yielded == 0 || yielded >= 120 {
		t.Errorf("yielded %d of the 120 records read before the failure; some, not all, can have completed", yielded)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Next(); err != boom {
			t.Fatalf("after the failure Next = %v, want the same error and no record", err)
		}
	}
}

// TestSimulatorReplaysOnce: a second replay used to die inside the engine
// ("sim: scheduling into the past"); it is a caller condition and comes
// back as an error from both entry points.
func TestSimulatorReplaysOnce(t *testing.T) {
	recs := syntheticTrace(7, 50, 0)
	s := NewSimulator(DefaultConfig(7))
	if _, err := s.Replay(recs); err != nil {
		t.Fatal(err)
	}
	stats := s.ResourceStats()
	if _, err := s.Replay(recs); err == nil || !strings.Contains(err.Error(), "already replayed") {
		t.Errorf("second Replay = %v, want an already-replayed error", err)
	}
	if _, err := s.ReplayStream(trace.SliceStream(recs)).Next(); err == nil || !strings.Contains(err.Error(), "already replayed") {
		t.Errorf("ReplayStream after Replay = %v, want an already-replayed error", err)
	}
	if !reflect.DeepEqual(s.ResourceStats(), stats) {
		t.Error("a refused replay changed the simulator's statistics")
	}
	// An unsorted slice is refused before the simulator is touched.
	fresh := NewSimulator(DefaultConfig(7))
	if _, err := fresh.Replay([]trace.Record{recs[len(recs)-1], recs[0]}); err == nil {
		t.Fatal("unsorted input accepted")
	}
	if _, err := fresh.Replay(recs); err != nil {
		t.Errorf("replay after a refused unsorted slice: %v", err)
	}
}

// TestReplaySteadyStateAllocs: requests are pooled state machines, so a
// replay allocates per simulator and per output slice, not per record
// (the closure chains cost ~10 allocations a record).
func TestReplaySteadyStateAllocs(t *testing.T) {
	const n = 4000
	recs := syntheticTrace(8, n, 0.05)
	perRecord := func(run func()) float64 { return testing.AllocsPerRun(5, run) / n }
	slice := perRecord(func() {
		if _, err := NewSimulator(DefaultConfig(8)).Replay(recs); err != nil {
			t.Fatal(err)
		}
	})
	stream := perRecord(func() {
		st := NewSimulator(DefaultConfig(8)).ReplayStream(trace.SliceStream(recs))
		for {
			if _, err := st.Next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("allocations per record: Replay %.3f, ReplayStream %.3f", slice, stream)
	if slice > 1 {
		t.Errorf("Replay allocates %.2f times per record, want at most 1", slice)
	}
	if stream > 0.1 {
		t.Errorf("ReplayStream allocates %.2f times per record, want a small constant", stream)
	}
}
