package fleet

import (
	"context"
	"fmt"
	"time"

	"cchunter/internal/auditor"
	"cchunter/internal/core"
	"cchunter/internal/obs"
	"cchunter/internal/recorder"
	"cchunter/internal/runner"
	"cchunter/internal/stream"
	"cchunter/internal/trace"
)

// Key identifies one detection shard: the monitored host, the tenant
// that owns it, the host-local stream index, and the channel family its
// traffic exercises. Stream keeps two same-channel streams on one host
// distinct at the hub (their Seq cursors must never collide).
type Key struct {
	Host    string `json:"host"`
	Tenant  string `json:"tenant"`
	Stream  int    `json:"stream"`
	Channel string `json:"channel"`
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/s%d/%s", k.Host, k.Tenant, k.Stream, k.Channel)
}

// shardConfig carries the per-stream construction knobs.
type shardConfig struct {
	Quantum      uint64
	QueueLen     int
	FlightEvents int
	Watchdog     time.Duration
	Metrics      *obs.Registry
	Wrap         func(Key, trace.Listener) trace.Listener
}

// CapturedFlight pairs a shard's flight capture with its key, for the
// daemon's -record-dir dump.
type CapturedFlight struct {
	Key    Key
	Flight recorder.Flight
}

// shard is one (host, channel) detection stream: a seeded source, a
// bounded ingest queue, and a streaming detector that renders one
// verdict per epoch. The producer side (pumpQuantum) runs on the host
// goroutine; the detector runs on the ingest's consumer goroutine
// until the epoch closes, after which the host goroutine owns it
// again (Close is the hand-off barrier).
type shard struct {
	key Key
	cfg shardConfig
	src *source

	aud   *auditor.Auditor
	det   *stream.Detector
	in    *stream.Ingest
	rec   *recorder.Recorder
	epoch int
	seq   uint64

	produced          uint64
	shedTotal         uint64
	lastQuantumEvents uint64
	endCycle          uint64

	flights []CapturedFlight
}

func newShard(key Key, cfg shardConfig) (*shard, error) {
	if cfg.Quantum == 0 {
		return nil, fmt.Errorf("fleet: shard %s needs a quantum", key)
	}
	return &shard{key: key, cfg: cfg}, nil
}

// buildDetector wires a fresh auditor + streaming detector, exactly as
// a solo run does — which is what keeps fleet verdicts byte-identical
// to single-host ones for identical trains. kinds selects the burst
// events to monitor with their paper Δt (the auditor watches at most
// auditor.MaxMonitoredUnits of them); empty means the classic bus +
// divider pair every pre-ring caller programmed. The caller owns the
// auditor and releases it once the detector has finalized.
func buildDetector(quantum uint64, kinds ...trace.Kind) (*auditor.Auditor, *stream.Detector, error) {
	aud, err := core.NewAuditor(quantum, kinds...)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultDetectorConfig(quantum, 0)
	return aud, stream.New(aud, stream.Config{Detector: cfg}), nil
}

// beginEpoch resets the source and stands up a fresh detector behind a
// fresh ingest queue. The auditor, queue batches and histograms come
// from the pools the previous epoch's finalize filled.
func (s *shard) beginEpoch(epoch int) {
	s.epoch = epoch
	s.endCycle = 0
	s.src.reset(epoch)
	aud, det, err := buildDetector(s.cfg.Quantum)
	if err != nil {
		// Construction can only fail on bad static config, which New
		// validated; a failure here is a bug worth crashing on.
		panic(fmt.Sprintf("fleet: rebuilding %s: %v", s.key, err))
	}
	s.aud, s.det = aud, det
	var dst trace.Listener = det
	if s.cfg.FlightEvents != 0 {
		s.rec = recorder.New(s.cfg.FlightEvents)
		dst = trace.Tee{det, s.rec}
	} else {
		s.rec = nil
	}
	if s.cfg.Wrap != nil {
		dst = s.cfg.Wrap(s.key, dst)
	}
	s.in = stream.NewIngest(dst, s.cfg.QueueLen, s.cfg.Metrics)
}

// pumpQuantum generates one quantum of source events into gen, enqueues
// them in BatchEvents-sized batches, and returns gen for the next call.
// The queue copies every batch, so one gen buffer serves all of a
// host's shards.
func (s *shard) pumpQuantum(gen []trace.Event, batchEvents int) []trace.Event {
	gen = s.src.genQuantum(gen[:0])
	s.lastQuantumEvents = uint64(len(gen))
	s.produced += uint64(len(gen))
	for i := 0; i < len(gen); i += batchEvents {
		s.in.OnEvents(gen[i:min(i+batchEvents, len(gen))])
	}
	s.endCycle = s.src.quantum0
	return gen
}

// interim submits a mid-epoch verdict. The analysis runs on the
// ingest's consumer goroutine (Do), after every batch queued so far —
// an ordered quiesce point, so it never races event delivery.
func (s *shard) interim(hub *Hub) {
	cycle := s.endCycle
	key, epoch := s.key, s.epoch
	det := s.det
	seq := s.nextSeq()
	s.in.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				hub.Submit(Update{
					Key: key, Seq: seq, Epoch: epoch,
					Report: core.DegradedReport(fmt.Sprintf("interim panic: %v", r)),
				})
			}
		}()
		rep := det.Interim(cycle)
		hub.Submit(Update{Key: key, Seq: seq, Epoch: epoch, Cycle: cycle, Report: rep})
	})
}

// finalizeEpoch closes the queue (draining it), reclaims the detector,
// and renders the epoch's final verdict under the watchdog. The shed
// count is folded into the verdict and, when a flight is captured,
// into its replay metadata.
func (s *shard) finalizeEpoch(hub *Hub) {
	s.in.Close()
	shed := s.in.Shed()
	s.shedTotal += shed
	s.det.SetShed(shed)
	end := s.endCycle

	det := s.det
	v, err := runner.Supervise(context.Background(), s.key.String(),
		s.cfg.Watchdog, s.cfg.Metrics, func(ctx context.Context) (interface{}, error) {
			return det.FinalizeContext(ctx, end), nil
		})
	var rep core.Report
	if err != nil {
		// A finalize the watchdog abandoned may still be reading the
		// auditor, so its buffers are left to the collector.
		rep = core.DegradedReport(err.Error())
	} else {
		rep = v.(core.Report)
		s.aud.Release()
	}
	hub.Submit(Update{
		Key: s.key, Seq: s.nextSeq(), Epoch: s.epoch,
		Cycle: end, Final: true, Report: rep,
	})
	if s.rec != nil && rep.Detected {
		f := s.rec.Capture("detection", recorder.Meta{
			Seed:               s.src.seed,
			QuantumCycles:      s.cfg.Quantum,
			Contexts:           defaultContexts,
			ObservationDivisor: 1,
			EndCycle:           end,
			EventsShed:         shed,
		})
		s.flights = append(s.flights, CapturedFlight{Key: s.key, Flight: f})
	}
	s.aud, s.det, s.in = nil, nil, nil
}

// takeFlights drains the shard's captured flights.
func (s *shard) takeFlights() []CapturedFlight {
	out := s.flights
	s.flights = nil
	return out
}

func (s *shard) nextSeq() uint64 {
	s.seq++
	return s.seq
}
