// Package fleet turns the single-machine CC-Hunter library into a
// multi-host detection service: N simulated hosts, each owned by a
// tenant, feed per-(host, channel) sharded streaming detectors through
// bounded ingest queues, and a hub aggregates the shards' interim and
// final verdicts into one fleet-wide picture.
//
// The layering mirrors a production deployment of the paper's auditor:
//
//	source (per stream)  — deterministic synthetic event generator,
//	                       standing in for a monitored host's sensor
//	ingest (per stream)  — stream.Ingest bounded queue; overload sheds
//	                       and counts instead of back-pressuring
//	shard  (per stream)  — auditor + stream.Detector, one detection
//	                       epoch at a time, finalized under a
//	                       runner.Supervise watchdog
//	hub    (per fleet)   — verdict dedupe, per-tenant accounting,
//	                       cross-host peak-lag correlation, JSON state
//
// Isolation is structural: every stream owns its queue, auditor, and
// detector, so a tenant that saturates its own queues sheds its own
// events and cannot stall or perturb another tenant's verdicts (the
// isolation tests pin this byte-for-byte). Determinism is preserved
// per stream: a stream's verdict depends only on its own seeded source
// and shed count, never on scheduling.
package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cchunter/internal/obs"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// Config sizes and seeds a fleet.
type Config struct {
	// Hosts is the number of simulated hosts (default 4).
	Hosts int
	// StreamsPerHost is the number of detection streams each host
	// feeds (default 2). Each stream is one (host, channel) shard.
	StreamsPerHost int
	// Tenants is the number of tenants hosts are assigned to,
	// round-robin (default 2, capped at Hosts).
	Tenants int
	// Quantum is the OS time quantum in simulated cycles
	// (default 100k — fleet hosts run a compressed clock; the per-host
	// CLIs keep the paper's 250M).
	Quantum uint64
	// EpochQuanta is the detection epoch length in quanta: every
	// stream finalizes a verdict each epoch and starts fresh
	// (default 32).
	EpochQuanta int
	// InterimEvery submits an interim verdict to the hub every this
	// many quanta (0 = epoch-end verdicts only).
	InterimEvery int
	// QueueLen is each stream's ingest queue capacity in batches
	// (default 64). Sizing it at or above an epoch's batch count makes
	// shedding impossible for a stream whose producer honors the epoch
	// cadence; smaller queues trade evidence for memory under overload.
	QueueLen int
	// QueueLenFor, when non-nil, overrides QueueLen per stream — the
	// hook for per-tenant QoS tiers (a best-effort tenant gets shallow
	// queues, a paying one deep). Returning <= 0 falls back to
	// QueueLen.
	QueueLenFor func(Key) int
	// BatchEvents is the event-batch granularity between source and
	// queue (default trace.DefaultBatchSize).
	BatchEvents int
	// CovertEvery plants a covert source on every Nth stream
	// (default 4; 0 disables covert traffic).
	CovertEvery int
	// SplitPair additionally plants one cross-host sender/receiver
	// pair: the first streams of the first two hosts share a covert
	// cache source signature, the co-residency scenario only a
	// multi-host hub can correlate.
	SplitPair bool
	// Seed drives every source in the fleet; per-stream seeds are
	// derived from it, the stream key, and the epoch.
	Seed uint64
	// Watchdog bounds each shard's finalize; an overrun or panic
	// becomes a degraded verdict at the hub (0 = unsupervised).
	Watchdog time.Duration
	// FlightEvents arms a per-stream flight recorder with this ring
	// capacity (negative = recorder default, 0 = off). A detection's
	// flight carries the stream's shed count for faithful replay.
	FlightEvents int
	// RatePerStream paces each stream's producer to roughly this many
	// events per second of wall clock (0 = unpaced, full speed).
	RatePerStream float64
	// Metrics receives fleet observability (hub counters, per-tenant
	// shed/backpressure, queue depths). Nil disables recording.
	Metrics *obs.Registry
	// WrapListener, when non-nil, wraps each shard's queue-side
	// listener — a test hook for injecting gates or taps between the
	// ingest queue and the detector. Production fleets leave it nil.
	WrapListener func(Key, trace.Listener) trace.Listener
}

func (c *Config) normalize() error {
	if c.Hosts <= 0 {
		c.Hosts = 4
	}
	if c.StreamsPerHost <= 0 {
		c.StreamsPerHost = 2
	}
	if c.Tenants <= 0 {
		c.Tenants = 2
	}
	if c.Tenants > c.Hosts {
		c.Tenants = c.Hosts
	}
	if c.Quantum == 0 {
		c.Quantum = 100_000
	}
	if c.EpochQuanta <= 0 {
		c.EpochQuanta = 32
	}
	if c.InterimEvery < 0 {
		c.InterimEvery = 0
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 64
	}
	if c.BatchEvents <= 0 {
		c.BatchEvents = trace.DefaultBatchSize
	}
	if c.CovertEvery < 0 {
		c.CovertEvery = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FlightEvents < 0 {
		c.FlightEvents = -1
	}
	return nil
}

// Fleet is a running set of simulated hosts and their detection
// shards, all reporting to one hub.
type Fleet struct {
	cfg   Config
	hub   *Hub
	hosts []*host
}

// host groups one simulated machine's streams under its tenant.
type host struct {
	name   string
	tenant string
	shards []*shard
}

// New builds a fleet. Nothing runs until Run.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, hub: newHub(cfg.Metrics, cfg.Hosts*cfg.StreamsPerHost)}
	for hi := 0; hi < cfg.Hosts; hi++ {
		h := &host{
			name:   fmt.Sprintf("host-%03d", hi),
			tenant: fmt.Sprintf("tenant-%02d", hi%cfg.Tenants),
		}
		for si := 0; si < cfg.StreamsPerHost; si++ {
			global := hi*cfg.StreamsPerHost + si
			profile := ProfileBenign
			if cfg.CovertEvery > 0 && global%cfg.CovertEvery == cfg.CovertEvery-1 {
				// Rotate covert channels so the fleet exercises every
				// detector family.
				switch (global / cfg.CovertEvery) % 3 {
				case 0:
					profile = ProfileCache
				case 1:
					profile = ProfileBus
				default:
					profile = ProfileDivider
				}
			}
			seed := deriveSeed(cfg.Seed, uint64(hi), uint64(si))
			period := uint64(3200 + 640*(global%5))
			if cfg.SplitPair && si == 0 && hi < 2 {
				// The split sender/receiver pair: same signature on two
				// different hosts. deriveSeed is shared so the two
				// sources emit phase-locked trains.
				profile = ProfileCache
				seed = deriveSeed(cfg.Seed, 0xfeed, 0xbeef)
				period = 4096
			}
			key := Key{Host: h.name, Tenant: h.tenant, Stream: si, Channel: profile.Channel()}
			queueLen := cfg.QueueLen
			if cfg.QueueLenFor != nil {
				if n := cfg.QueueLenFor(key); n > 0 {
					queueLen = n
				}
			}
			s, err := newShard(key, shardConfig{
				Quantum:      cfg.Quantum,
				QueueLen:     queueLen,
				FlightEvents: cfg.FlightEvents,
				Watchdog:     cfg.Watchdog,
				Metrics:      cfg.Metrics,
				Wrap:         cfg.WrapListener,
			})
			if err != nil {
				return nil, fmt.Errorf("fleet: building %s: %w", key, err)
			}
			s.src = newSource(seed, profile, cfg.Quantum, period)
			h.shards = append(h.shards, s)
			f.hub.register(key)
		}
		f.hosts = append(f.hosts, h)
	}
	return f, nil
}

// Hub returns the fleet's verdict hub (state snapshots, HTTP handler).
func (f *Fleet) Hub() *Hub { return f.hub }

// Streams reports the fleet's total stream count.
func (f *Fleet) Streams() int { return f.cfg.Hosts * f.cfg.StreamsPerHost }

// Run pumps the fleet for the given number of detection epochs
// (epochs <= 0 runs until ctx is cancelled; cancellation finishes the
// current epoch so every stream still renders a final verdict). Hosts
// run concurrently; within a host, streams pump quantum by quantum.
func (f *Fleet) Run(ctx context.Context, epochs int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var wg sync.WaitGroup
	for _, h := range f.hosts {
		wg.Add(1)
		go func(h *host) {
			defer wg.Done()
			f.runHost(ctx, h, epochs)
		}(h)
	}
	wg.Wait()
	f.hub.refreshCorrelations()
	return ctx.Err()
}

// runHost drives one host's streams through detection epochs.
func (f *Fleet) runHost(ctx context.Context, h *host, epochs int) {
	cfg := f.cfg
	var pace *pacer
	if cfg.RatePerStream > 0 {
		pace = newPacer(cfg.RatePerStream * float64(len(h.shards)))
	}
	var gen []trace.Event
	for epoch := 0; epochs <= 0 || epoch < epochs; epoch++ {
		for _, s := range h.shards {
			s.beginEpoch(epoch)
		}
		for q := 0; q < cfg.EpochQuanta; q++ {
			for _, s := range h.shards {
				gen = s.pumpQuantum(gen, cfg.BatchEvents)
				if pace != nil {
					pace.produced(s.lastQuantumEvents)
				}
			}
			if cfg.InterimEvery > 0 && (q+1)%cfg.InterimEvery == 0 && q+1 < cfg.EpochQuanta {
				for _, s := range h.shards {
					s.interim(f.hub)
				}
			}
			if pace != nil {
				pace.sleep()
			}
		}
		for _, s := range h.shards {
			s.finalizeEpoch(f.hub)
		}
		f.hub.accountHost(h.name, h.tenant, h.produced(), h.shed(), h.backlog())
		if ctx.Err() != nil {
			return
		}
	}
}

// produced sums the host's lifetime produced-event count.
func (h *host) produced() uint64 {
	var n uint64
	for _, s := range h.shards {
		n += s.produced
	}
	return n
}

// shed sums the host's lifetime shed-event count.
func (h *host) shed() uint64 {
	var n uint64
	for _, s := range h.shards {
		n += s.shedTotal
	}
	return n
}

// backlog sums the host's current queued-batch depth.
func (h *host) backlog() int {
	var n int
	for _, s := range h.shards {
		if s.in != nil {
			n += s.in.Pending()
		}
	}
	return n
}

// Flights drains every flight the fleet's shards captured so far
// (detections only; nil FlightEvents capture nothing).
func (f *Fleet) Flights() []CapturedFlight {
	var out []CapturedFlight
	for _, h := range f.hosts {
		for _, s := range h.shards {
			out = append(out, s.takeFlights()...)
		}
	}
	return out
}

// deriveSeed mixes the fleet seed with a stream coordinate, splitmix64
// style, so neighboring streams get decorrelated generators.
func deriveSeed(root, a, b uint64) uint64 {
	return stats.Mix64(root + 0x9e3779b97f4a7c15*(a+1) + 0x94d049bb133111eb*(b+1))
}

// pacer throttles a host's producers to a target event rate. Pacing is
// wall-clock only; it never alters the generated trains, so paced and
// unpaced fleets render identical verdicts.
type pacer struct {
	perSec  float64
	pending uint64
	last    time.Time
}

func newPacer(perSec float64) *pacer {
	return &pacer{perSec: perSec, last: time.Now()}
}

func (p *pacer) produced(n uint64) { p.pending += n }

func (p *pacer) sleep() {
	want := time.Duration(float64(p.pending) / p.perSec * float64(time.Second))
	elapsed := time.Since(p.last)
	if want > elapsed {
		time.Sleep(want - elapsed)
	}
	p.pending = 0
	p.last = time.Now()
}
