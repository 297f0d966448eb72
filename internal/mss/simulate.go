package mss

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"filemig/internal/device"
	"filemig/internal/sim"
	"filemig/internal/trace"
)

// Simulator replays a trace through the modelled installation, filling in
// each record's Startup (latency to first byte: queueing + mount + seek)
// and Transfer fields. A Simulator replays one trace; build a new one for
// the next.
type Simulator struct {
	cfg     Config
	engine  *sim.Engine
	rng     *rand.Rand
	catalog *Catalog

	mscp *sim.Resource
	// disk has no mounter and no mount cache: the medium is always on
	// its drive.
	disk, silo, manual, optical station

	mountsSkipped int
	mountsDone    int

	free *request // recycled requests, linked through next
}

// station is one device class's service path: the drives requests queue
// for, whoever mounts media on them (a robot arm or the operator pool),
// and which cartridges are still mounted.
type station struct {
	profile *device.Profile
	drive   *sim.Resource
	mounter *sim.Resource
	mounts  *MountCache
}

// NewSimulator builds a simulator from the configuration.
func NewSimulator(cfg Config) *Simulator {
	e := sim.New()
	optDrives := cfg.OpticalDrives
	if optDrives < 1 {
		optDrives = 1
	}
	optRobots := cfg.OpticalRobots
	if optRobots < 1 {
		optRobots = 1
	}
	s := &Simulator{
		cfg:     cfg,
		engine:  e,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		catalog: NewCatalog(cfg.Cartridges),
		mscp:    sim.NewResource(e, "mscp", cfg.MSCPServers),
	}
	s.disk = station{profile: &s.cfg.Disk, drive: sim.NewResource(e, "disk", cfg.DiskDrives)}
	s.silo = station{
		profile: &s.cfg.Silo,
		drive:   sim.NewResource(e, "silo-drive", cfg.SiloDrives),
		mounter: sim.NewResource(e, "silo-robot", cfg.SiloRobots),
		mounts:  NewMountCache(cfg.SiloDrives),
	}
	s.manual = station{
		profile: &s.cfg.Manual,
		drive:   sim.NewResource(e, "manual-drive", cfg.ManualDrives),
		mounter: sim.NewResource(e, "operator", cfg.Operators),
		mounts:  NewMountCache(cfg.ManualDrives),
	}
	s.optical = station{
		profile: &s.cfg.Optical,
		drive:   sim.NewResource(e, "optical-drive", optDrives),
		mounter: sim.NewResource(e, "optical-robot", optRobots),
		mounts:  NewMountCache(optDrives),
	}
	return s
}

// Replay simulates every record (which must be time-sorted) and returns a
// copy with latencies filled in, in input order. The input slice is not
// modified. It is ReplayStream collected into a slice.
func (s *Simulator) Replay(recs []trace.Record) ([]trace.Record, error) {
	for i := 1; i < len(recs); i++ {
		if recs[i].Start.Before(recs[i-1].Start) {
			return nil, fmt.Errorf("mss: input records not time-sorted at %d", i)
		}
	}
	out := make([]trace.Record, 0, len(recs))
	st := s.ReplayStream(trace.SliceStream(recs))
	for {
		r, err := st.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
}

// ReplayStream is the streaming form of Replay: it pulls arrivals from
// src (which must be time-sorted) and yields each record, latencies
// filled in, as soon as it and every record before it have completed, so
// the output is src's order and only the requests in flight are held. An
// arrival is merged into the event order ahead of anything already in
// flight at the same instant (sim.Engine.Arrive). At src's end the
// engine is drained — background write-behind copies included — so
// ResourceStats and MountStats cover the whole run once the stream
// reports io.EOF. An unsorted record fails the stream with its index; an
// error from src is returned as is; after either, nothing more is
// yielded.
func (s *Simulator) ReplayStream(src trace.Stream) trace.Stream {
	if s.engine.Steps() > 0 {
		return &replayStream{err: errors.New("mss: simulator already replayed a trace")}
	}
	return &replayStream{s: s, src: src}
}

// replayStream is the one admission loop behind Replay and ReplayStream.
type replayStream struct {
	s   *Simulator
	src trace.Stream
	err error // sticky; io.EOF once src has ended and the engine drained

	admitted   int       // arrivals taken from src
	epoch      time.Time // first arrival: the engine's time zero
	prev       time.Time // latest arrival
	head, tail *request  // visible requests in arrival order, oldest first
}

// Next yields the oldest unreported record once it has completed,
// admitting arrivals — and so advancing the clock — until it has.
func (rs *replayStream) Next() (trace.Record, error) {
	for {
		if q := rs.head; q != nil && q.stage == stageDone {
			if rs.head = q.next; rs.head == nil {
				rs.tail = nil
			}
			rec := q.rec
			rs.s.recycle(q)
			return rec, nil
		}
		if rs.err != nil {
			return trace.Record{}, rs.err
		}
		rec, err := rs.src.Next()
		if err == io.EOF {
			rs.s.engine.Run()
		}
		if err != nil {
			rs.err = err
			continue
		}
		if rs.admitted == 0 {
			rs.epoch, rs.prev = rec.Start, rec.Start
		}
		if rec.Start.Before(rs.prev) {
			rs.err = fmt.Errorf("mss: input records not time-sorted at %d", rs.admitted)
			continue
		}
		rs.prev = rec.Start
		rs.admitted++
		q := rs.s.newRequest()
		q.rec, q.visible = rec, true
		if rs.tail == nil {
			rs.head = q
		} else {
			rs.tail.next = q
		}
		rs.tail = q
		rs.s.engine.Arrive(rec.Start.Sub(rs.epoch), q)
	}
}

// stage is where a request stands in its pipeline: MSCP → drive →
// robot/operator → seek → transfer.
type stage uint8

const (
	stageArrive   stage = iota // not yet admitted
	stageMSCP                  // queued for, then held by, an MSCP server
	stageDrive                 // queued for a drive (or disk path)
	stageMount                 // queued for, then held by, the robot or operator
	stageSeek                  // on the drive, positioning to the first byte
	stageTransfer              // moving data
	stageDone
)

// request is one trace record moving through the installation. It is
// both the engine's event handler and the resources' waiter, so a
// request costs no allocation per stage, and requests are recycled.
type request struct {
	s       *Simulator
	next    *request // arrival order while visible and in flight; free list after
	rec     trace.Record
	visible bool // false: a write-behind background copy nobody waits for
	stage   stage
	mounted bool
	arrival time.Duration
	hold    time.Duration // MSCP service time
	cost    device.AccessCost
	at      *station
}

func (s *Simulator) newRequest() *request {
	q := s.free
	if q == nil {
		return &request{s: s}
	}
	s.free = q.next
	*q = request{s: s}
	return q
}

func (s *Simulator) recycle(q *request) {
	q.next = s.free
	s.free = q
}

// Fire advances the request at the end of a timed stage.
//
//filemig:hotpath
func (q *request) Fire(now time.Duration) {
	s := q.s
	switch q.stage {
	case stageArrive:
		q.arrival = now
		// Failed lookups bounce at the MSCP without touching a device.
		q.hold = s.cfg.ErrorBounce
		if q.rec.Err == trace.ErrNone {
			q.hold = s.lognormal(s.cfg.MSCPService, s.cfg.MSCPSigma)
		}
		q.stage = stageMSCP
		s.mscp.Request(q)
	case stageMSCP:
		s.mscp.Release()
		if q.rec.Err != trace.ErrNone {
			q.rec.Startup = now - q.arrival
			q.rec.Transfer = 0
			q.finish()
			return
		}
		s.route(q)
	case stageMount:
		q.at.mounter.Release()
		q.seek(now)
	case stageSeek:
		q.rec.Startup = now - q.arrival
		q.stage = stageTransfer
		s.engine.Schedule(now+q.cost.Transfer, q)
	case stageTransfer:
		q.rec.Transfer = q.cost.Transfer
		q.at.drive.Release()
		q.finish()
	}
}

// Granted advances the request when a server it queued for is free.
//
//filemig:hotpath
func (q *request) Granted(now, wait time.Duration) {
	switch q.stage {
	case stageMSCP:
		q.s.engine.Schedule(now+q.hold, q)
	case stageDrive:
		if q.mounted {
			q.seek(now)
			return
		}
		q.stage = stageMount
		q.at.mounter.Request(q)
	case stageMount:
		q.s.engine.Schedule(now+q.cost.Mount, q)
	}
}

// seek starts positioning on the drive the request holds.
func (q *request) seek(now time.Duration) {
	q.stage = stageSeek
	q.s.engine.Schedule(now+q.cost.Seek, q)
}

// finish ends the pipeline. A visible request waits, done, for the
// stream to report it; a background copy is recycled at once.
func (q *request) finish() {
	q.stage = stageDone
	if !q.visible {
		q.s.recycle(q)
	}
}

// route dispatches a request leaving the MSCP to its device pipeline.
func (s *Simulator) route(q *request) {
	rec := &q.rec
	tape := rec.Device == device.ClassSiloTape || rec.Device == device.ClassManualTape
	if s.cfg.WriteBehind && tape && rec.Op == trace.Write {
		// User-visible: a staging-disk write. The tape copy runs in the
		// background: it occupies a drive (and robot or operator) like
		// any transfer but records nothing in the trace — the user
		// already went home.
		s.startDisk(q)
		bg := s.newRequest()
		bg.rec = *rec
		if rec.Device == device.ClassManualTape {
			s.startTape(bg, &s.manual)
		} else {
			s.startTape(bg, &s.silo)
		}
		return
	}
	switch rec.Device {
	case device.ClassDisk:
		if s.cfg.SmallOnOptical {
			s.startTape(q, &s.optical)
			return
		}
		s.startDisk(q)
	case device.ClassManualTape:
		s.startTape(q, &s.manual)
	case device.ClassOptical:
		s.startTape(q, &s.optical)
	default:
		// Silo tape, and future classes: treat as silo-like.
		s.startTape(q, &s.silo)
	}
}

// startDisk queues a staging-disk transfer: a disk path, a seek
// (milliseconds), the transfer at the observed rate.
func (s *Simulator) startDisk(q *request) {
	q.cost = s.disk.profile.Access(s.rng.Float64(), q.rec.Size, true, s.rng)
	q.mounted = true
	q.at = &s.disk
	q.stage = stageDrive
	s.disk.drive.Request(q)
}

// startTape queues a removable-media transfer — silo tape, shelf tape or
// optical platter: a drive; if the cartridge is not already mounted, the
// robot arm or the human operator who fetches and mounts it (shelf
// tape's long-tailed stage); then seek and transfer. The jukebox trades
// a fast first byte for a slow last one — exactly the §2.2 trade.
func (s *Simulator) startTape(q *request, st *station) {
	cart := s.catalog.Cartridge(q.rec.MSSPath)
	q.mounted = st.mounts.Mounted(cart)
	q.cost = st.profile.Access(s.catalog.OffsetFrac(q.rec.MSSPath), q.rec.Size, q.mounted, s.rng)
	if q.mounted {
		s.mountsSkipped++
	} else {
		s.mountsDone++
		// Register at decision time so same-cartridge requests arriving
		// during the pick ride the same mount — the MSCP batches them
		// onto one drive (§6's coalescing opportunity).
		st.mounts.Mount(cart)
	}
	q.at = st
	q.stage = stageDrive
	st.drive.Request(q)
}

func (s *Simulator) lognormal(median time.Duration, sigma float64) time.Duration {
	if sigma <= 0 {
		return median
	}
	return time.Duration(float64(median) * math.Exp(sigma*s.rng.NormFloat64()))
}

// ResourceStats reports the queueing statistics of every station, in a
// fixed order: mscp, disk, silo-drive, silo-robot, manual-drive,
// operator, optical-drive, optical-robot.
func (s *Simulator) ResourceStats() []sim.Stats {
	return []sim.Stats{
		s.mscp.Stats(),
		s.disk.drive.Stats(),
		s.silo.drive.Stats(),
		s.silo.mounter.Stats(),
		s.manual.drive.Stats(),
		s.manual.mounter.Stats(),
		s.optical.drive.Stats(),
		s.optical.mounter.Stats(),
	}
}

// MountStats reports how many tape mounts were performed vs. avoided via
// an already-mounted cartridge.
func (s *Simulator) MountStats() (done, skipped int) {
	return s.mountsDone, s.mountsSkipped
}
