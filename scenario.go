package cchunter

import (
	"context"
	"fmt"
	"time"

	"cchunter/internal/auditor"
	"cchunter/internal/channels"
	"cchunter/internal/core"
	"cchunter/internal/faults"
	"cchunter/internal/mitigate"
	"cchunter/internal/recorder"
	"cchunter/internal/ring"
	"cchunter/internal/runner"
	"cchunter/internal/sim"
	"cchunter/internal/stream"
	"cchunter/internal/trace"
	"cchunter/internal/workload"
)

// Scenario describes one experiment: a machine, at most one covert
// channel, and any benign workloads. The zero value plus a Channel is
// runnable; unset fields take paper-calibrated defaults.
type Scenario struct {
	// Channel selects the covert channel (default ChannelNone).
	Channel Channel
	// BandwidthBPS is the channel bandwidth in bits per second
	// (default 1000, ignored for ChannelNone).
	BandwidthBPS float64
	// Message is the bit pattern to transmit; when nil, a 64-bit
	// random message derived from Seed is used.
	Message []int
	// CacheSets is the cache channel's total set count across G1 and
	// G0 (default 512).
	CacheSets int
	// CacheRounds overrides the channel's prime/probe rounds per bit
	// (0 = adapt to the bit slot).
	CacheRounds int
	// Workloads names benign programs (see WorkloadNames) that run
	// alongside; they are placed pairwise onto the cores after the
	// channel's, each pair sharing a core as hyperthreads (the
	// paper's §VI-D arrangement).
	Workloads []string
	// Background is the number of light noise processes, satisfying
	// the threat model's "at least three other active processes"
	// (default 3; set to -1 for none).
	Background int
	// ChannelStartQuanta delays the covert channel's first bit slot by
	// this many OS quanta of benign-only observation — the mid-run
	// channel-onset regime the streaming CUSUM detectors estimate.
	ChannelStartQuanta int
	// DurationQuanta is the observation length in OS time quanta.
	// Default: enough quanta to cover the whole message plus one,
	// after any ChannelStartQuanta delay.
	DurationQuanta int
	// QuantumCycles overrides the OS time quantum (default: the
	// paper's 0.1 s = 250M cycles at 2.5 GHz).
	QuantumCycles uint64
	// ObservationDivisor splits each quantum into finer oscillation
	// observation windows (§VI-A); default 1.
	ObservationDivisor int
	// IdealTracker selects the exact LRU-stack conflict tracker
	// instead of the practical generation/Bloom design.
	IdealTracker bool
	// EvasionNoise makes the bus trojan camouflage '0' slots with
	// random-intensity bursts (the §III evasion strategy); see the
	// evasion experiment.
	EvasionNoise float64
	// EvaderJitter arms the adaptive evader's period jitter: each bit
	// slot starts at a keyed pseudo-random offset of up to this fraction
	// of the slot (0..0.5). Both endpoints derive the same offsets from
	// the protocol seed, so the channel stays synchronized while the
	// inter-burst period stops being constant.
	EvaderJitter float64
	// EvaderDuty arms the adaptive evader's amplitude duty cycle: the
	// trojan thins its contention generation to this fraction of full
	// intensity (0 = off, otherwise (0,1]). Lower duty collapses the
	// per-Δt event densities the burst detector keys on — at the cost
	// of channel reliability. See the evasion-frontier experiment.
	EvaderDuty float64
	// FECFrame wraps the message in the channels' two-layer FEC framing
	// (Berger-checked 8+4 words plus one XOR parity word per group of
	// four): the trojan transmits the coded stream and the spy's decode
	// is corrected back to data bits before BitErrors is computed.
	FECFrame bool
	// Mitigation applies a post-detection defense for the whole run:
	// "" (none), "buslimit" (split-lock rate limiting), "partition"
	// (L2 way-partitioning per context), "tdm" (time-multiplexed
	// dividers), or "clockfuzz" (fuzzy time). See internal/mitigate.
	Mitigation string
	// Faults perturbs the event stream between the hardware units and
	// the CC-Auditor, modelling a degraded sensor path (dropped events,
	// timestamp jitter, context corruption, saturation — see
	// internal/faults). The zero value leaves the run bit-for-bit
	// identical to one without the injector.
	Faults FaultConfig
	// Metrics, when non-nil, instruments the whole pipeline — engine,
	// event delivery, fault injector, auditor, detectors — and attaches
	// a snapshot to Result.Report.Metrics. Metrics never influence any
	// verdict: runs are byte-identical with and without a registry (the
	// golden-verdict suite pins this). Nil disables recording at
	// near-zero cost.
	Metrics *MetricsRegistry
	// Seed drives every random choice in the scenario.
	Seed uint64
	// RecordRaw additionally captures the full undeduplicated event
	// train (memory-hungry on long runs; used by trace dumps and the
	// Figure 4 event-train plots).
	RecordRaw bool
	// Stream runs detection in streaming mode: the auditor's buffers
	// are drained continuously as events arrive, so the retained
	// conflict train and per-quantum histograms stay bounded by the
	// observation window instead of the run length, and the final
	// Report's verdict fields are byte-identical to the batch path.
	// Report.Oscillation.Windows still keeps one analysis, with its
	// autocorrelogram, per closed window, so the Report itself grows
	// with the run. The Report additionally carries a Streaming evidence block
	// (channel onset estimates, retention high-water marks). Trade-off:
	// the per-quantum record and conflict-train fields of Result are
	// consumed by the stream and come back empty or trimmed.
	Stream bool
	// Watchdog bounds the analysis stage's wall clock and converts an
	// analysis panic or overrun into a degraded verdict (Report.Failure
	// set, Confidence zero) instead of a crashed run. Zero disables
	// supervision, leaving the run byte-identical to one without it.
	Watchdog time.Duration
	// FlightEvents arms the flight recorder: a ring of the last N raw
	// events (negative = default capacity), captured into Result.Flight
	// after the verdict for deterministic offline replay (see cctrace
	// replay). Zero disables it.
	FlightEvents int

	// eventBatch overrides the simulator's event-delivery batch size
	// (0 = default, 1 = per-event callbacks). Unexported: batching is
	// observationally invisible, so only the equivalence regression
	// test has a reason to vary it.
	eventBatch int
}

// Result is everything a Scenario run produces.
type Result struct {
	// Report is the CC-Hunter detection report.
	Report Report
	// Sent and Decoded are the transmitted and spy-decoded bits
	// (empty for ChannelNone).
	Sent, Decoded []int
	// BitErrors counts decoding errors — the channel's reliability.
	BitErrors int
	// PerBitSeries is the spy's per-bit observable: average memory
	// latency (bus, Figure 2), average division-loop latency
	// (divider, Figure 3), G1/G0 access-time ratio (cache, Figure 7),
	// slow-probe fraction (ring), or the winning group's miss share
	// per 2-bit symbol (tlb).
	PerBitSeries []float64
	// BusHistogram and DivHistogram are the merged event density
	// histograms (Figure 6).
	BusHistogram, DivHistogram *Histogram
	// BusRecords and DivRecords are the per-quantum histograms.
	BusRecords, DivRecords []QuantumHistogram
	// ConflictTrain is the auditor's deduplicated conflict-miss train
	// (Figure 8a).
	ConflictTrain *Train
	// RawTrain is the full event train when RecordRaw was set.
	RawTrain *Train
	// FaultStats holds the sensor fault injector's counters; nil when
	// the run had a pristine sensor path (Scenario.Faults zero).
	FaultStats *FaultStats
	// Flight is the flight recorder's capture; nil unless
	// Scenario.FlightEvents armed it.
	Flight *recorder.Flight
	// EndCycle is the simulated duration.
	EndCycle uint64
	// QuantumCycles echoes the quantum used.
	QuantumCycles uint64
	// Contexts is the machine's hardware context count.
	Contexts int
}

// WorkloadNames lists the benign workloads a Scenario can name.
func WorkloadNames() []string {
	all := workload.All()
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	// Deterministic order for display.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// Run executes the scenario to completion and analyzes it.
func (sc Scenario) Run() (*Result, error) {
	cfg, err := sc.normalize()
	if err != nil {
		return nil, err
	}

	simCfg := sim.DefaultConfig()
	simCfg.QuantumCycles = cfg.QuantumCycles
	simCfg.Seed = cfg.Seed
	if cfg.IdealTracker {
		simCfg.Tracker = sim.TrackerIdeal
	}
	switch sc.Mitigation {
	case "":
	case "buslimit":
		// Allow a handful of split locks per 100k-cycle window; covert
		// transmission needs ~20.
		simCfg.Mitigations.BusLimiter = mitigate.NewBusLockLimiter(
			simCfg.Contexts(), 100_000, 2, 200_000)
	case "partition":
		// One partition group per hardware context (each context gets
		// 1 of 8 ways): no context can ever evict another's blocks —
		// Partition-Locking's guarantee, at Partition-Locking's cost.
		simCfg.Mitigations.Partition = mitigate.NewCachePartition(simCfg.Contexts(), nil)
	case "tdm":
		// Exclusive 10k-cycle divider epochs per hyperthread: cross-
		// context divider contention becomes impossible.
		simCfg.Mitigations.DividerTDM = mitigate.NewDividerTDM(10_000)
	case "clockfuzz":
		// Fuzz granularity must be commensurate with the bit slot —
		// spies average many samples per bit, which defeats any
		// fine-grained unbiased noise (Hu fuzzed 1–19 ms interrupts
		// against ms-scale channels for the same reason). Half a slot
		// of quantization plus a quarter slot of jitter leaves nothing
		// to average.
		slot := uint64(2_500_000_000 / cfg.BandwidthBPS)
		q := slot / 2
		if q < 500 {
			q = 500
		}
		simCfg.Mitigations.Fuzz = mitigate.NewClockFuzz(q, q/2, cfg.Seed)
	default:
		return nil, fmt.Errorf("cchunter: unknown mitigation %q", sc.Mitigation)
	}
	simCfg.Faults = faults.Config(sc.Faults)
	simCfg.EventBatch = sc.eventBatch
	simCfg.Metrics = sc.Metrics
	if cfg.channel != nil && cfg.channel.Ring {
		simCfg.Ring = ring.DefaultConfig()
	}
	system, err := sim.New(simCfg)
	if err != nil {
		return nil, fmt.Errorf("cchunter: building machine: %w", err)
	}

	// The auditor has two monitoring slots (§V-A); program them with
	// the pair that covers this scenario's channel.
	aud, err := core.NewAuditor(cfg.QuantumCycles, cfg.monitor[:]...)
	if err != nil {
		return nil, fmt.Errorf("cchunter: building auditor: %w", err)
	}
	aud.Instrument(sc.Metrics)

	detCfg := core.DefaultDetectorConfig(cfg.QuantumCycles, simCfg.Contexts())
	detCfg.ObservationDivisor = cfg.ObservationDivisor
	detCfg.Metrics = sc.Metrics

	end := uint64(cfg.DurationQuanta) * cfg.QuantumCycles

	// Streaming mode interposes the daemon between simulator and
	// auditor; it forwards every event and drains continuously.
	var streamDet *stream.Detector
	if sc.Stream {
		streamDet = stream.New(aud, stream.Config{Detector: detCfg})
		system.AddListener(streamDet)
	} else {
		system.AddListener(aud)
	}
	var flight *recorder.Recorder
	if sc.FlightEvents != 0 {
		flight = recorder.New(sc.FlightEvents)
		system.AddListener(flight)
	}
	var raw *trace.Recorder
	if cfg.RecordRaw {
		raw = trace.NewRecorder()
		system.AddListener(raw)
	}

	res := &Result{
		QuantumCycles: cfg.QuantumCycles,
		Contexts:      simCfg.Contexts(),
	}
	var spy channels.Spy
	var protocol channels.Protocol
	firstFreeCore := 0
	if ch := cfg.channel; ch != nil {
		// The trojan exfiltrates continuously (Repeat): detection's
		// recurrence step needs bursts across multiple OS time quanta,
		// and a real spy keeps listening for as long as it can.
		protocol = channels.Protocol{
			Message: cfg.Message,
			BPS:     cfg.BandwidthBPS,
			Start:   uint64(cfg.ChannelStartQuanta) * cfg.QuantumCycles,
			Seed:    cfg.Seed,
			Repeat:  true,
			Evader: channels.Evader{
				JitterFrac: sc.EvaderJitter,
				DutyFrac:   sc.EvaderDuty,
			},
		}
		var trojan sim.Program
		trojan, spy = ch.New(channels.Params{
			Protocol:     protocol,
			EvasionNoise: sc.EvasionNoise,
			CacheSets:    cfg.CacheSets,
			CacheRounds:  sc.CacheRounds,
		})
		system.Spawn(trojan, sim.Pin(ch.TrojanCtx))
		system.Spawn(spy, sim.Pin(ch.SpyCtx))
		firstFreeCore = ch.FirstFreeCore(simCfg.ThreadsPerCore)
	}
	if len(cfg.Workloads) > 0 {
		specs := workload.All() // builds a map: once per run, not per workload
		for i, name := range cfg.Workloads {
			spec, ok := specs[name]
			if !ok {
				return nil, fmt.Errorf("cchunter: unknown workload %q", name)
			}
			ctx := (firstFreeCore+i/2)*simCfg.ThreadsPerCore + i%2
			if ctx >= simCfg.Contexts() {
				return nil, fmt.Errorf("cchunter: too many workloads for %d contexts", simCfg.Contexts())
			}
			system.Spawn(workload.New(spec, cfg.Seed+uint64(i)+10), sim.Pin(ctx))
		}
	}
	for i := 0; i < cfg.Background; i++ {
		system.Spawn(workload.New(workload.Background(i), cfg.Seed+uint64(i)+100))
	}

	simSpan := sc.Metrics.Timer("scenario.sim_ns").Start()
	system.Run(end)
	simSpan.End()

	if fs, ok := system.FaultStats(); ok {
		// The injector self-reports its drops; fold them into every
		// verdict's degradation diagnostics.
		detCfg.UpstreamLossRate = fs.LossRate()
		if streamDet != nil {
			streamDet.SetUpstreamLoss(fs.LossRate())
		}
		stats := FaultStats(fs)
		res.FaultStats = &stats
	}
	anSpan := sc.Metrics.Timer("scenario.analyze_ns").Start()
	// The analysis honours the watchdog's context: once it fires, the
	// window loop stops and the supervised goroutine returns.
	analyze := func(ctx context.Context) (interface{}, error) {
		if streamDet != nil {
			return streamDet.FinalizeContext(ctx, end), nil
		}
		det := core.NewDetector(aud, detCfg)
		defer det.Release()
		return det.AnalyzeContext(ctx, end), nil
	}
	degraded := false
	if sc.Watchdog > 0 {
		// Supervised analysis: a panicking or overrunning detector
		// yields a degraded verdict and the run still completes.
		v, err := runner.Supervise(context.Background(), "scenario-analyze",
			sc.Watchdog, sc.Metrics, analyze)
		if err != nil {
			res.Report = core.DegradedReport(err.Error())
			degraded = true
		} else {
			res.Report = v.(core.Report)
		}
	} else {
		v, _ := analyze(context.Background())
		res.Report = v.(core.Report)
	}
	anSpan.End()
	if sc.Metrics != nil {
		// Re-snapshot after the analyze span closed so the attached
		// metrics include the full stage-time picture.
		res.Report.Metrics = sc.Metrics.Snapshot()
	}
	if flight != nil {
		reason := "no-detection"
		switch {
		case res.Report.Failed():
			reason = "detector-failure"
		case res.Report.Detected:
			reason = "detection"
		}
		var metaKinds []trace.Kind
		if cfg.monitor != auditor.ClassicPair {
			// The replayer must program the same slots. The classic pair
			// stays implicit so pre-existing flights (and their
			// byte-identical captures) keep replaying.
			metaKinds = cfg.monitor[:]
		}
		f := flight.Capture(reason, recorder.Meta{
			Seed:               cfg.Seed,
			QuantumCycles:      cfg.QuantumCycles,
			Contexts:           simCfg.Contexts(),
			ObservationDivisor: cfg.ObservationDivisor,
			EndCycle:           end,
			Kinds:              metaKinds,
		})
		res.Flight = &f
	}

	if spy != nil {
		res.Sent = append([]int(nil), cfg.Message...)
		res.Decoded, res.PerBitSeries = channels.Decode(*cfg.channel, protocol, spy.Samples())
		if sc.FECFrame {
			// The spy decoded the coded stream; run the FEC decoder over
			// each complete coded block so BitErrors counts data-bit
			// errors.
			res.Sent = append([]int(nil), cfg.DataBits...)
			res.Decoded = decodeFECStream(res.Decoded, len(cfg.Message), len(cfg.DataBits))
		}
		res.BitErrors = repeatedBitErrors(res.Sent, res.Decoded)
	}
	if !degraded {
		// After a watchdog abandonment the stuck analysis goroutine may
		// still own the auditor; leave the diagnostic histogram/train
		// fields empty rather than race it for them.
		res.BusHistogram = aud.MergedHistogram(trace.KindBusLock)
		res.DivHistogram = aud.MergedHistogram(trace.KindDivContention)
		res.BusRecords = aud.Histograms(trace.KindBusLock)
		res.DivRecords = aud.Histograms(trace.KindDivContention)
		res.ConflictTrain = aud.ConflictTrain()
	}
	if raw != nil {
		res.RawTrain = raw.Train()
	}
	res.EndCycle = end
	return res, nil
}

// normalized carries a Scenario with every default resolved.
type normalized struct {
	Scenario
	DataBits []int // pre-FEC message when FECFrame is set
	// channel is the scenario's channel table row; nil for none.
	channel *channels.Spec
	// monitor is the event pair the auditor's two slots watch: the
	// channel's, or the paper's classic pair without one.
	monitor auditor.Pair
}

func (sc Scenario) normalize() (normalized, error) {
	cfg := normalized{Scenario: sc}
	cfg.monitor = auditor.ClassicPair
	if sc.Channel != "" && sc.Channel != ChannelNone {
		ch, ok := channels.Lookup(string(sc.Channel))
		if !ok {
			return cfg, fmt.Errorf("cchunter: unknown channel %q", sc.Channel)
		}
		cfg.channel, cfg.monitor = &ch, ch.Monitor
	}
	if sc.EvaderJitter < 0 || sc.EvaderJitter > 0.5 {
		return cfg, fmt.Errorf("cchunter: EvaderJitter %v outside [0, 0.5]", sc.EvaderJitter)
	}
	if sc.EvaderDuty < 0 || sc.EvaderDuty > 1 {
		return cfg, fmt.Errorf("cchunter: EvaderDuty %v outside [0, 1]", sc.EvaderDuty)
	}
	if cfg.BandwidthBPS == 0 {
		cfg.BandwidthBPS = 1000
	}
	if cfg.BandwidthBPS < 0 {
		return cfg, fmt.Errorf("cchunter: negative bandwidth")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Message == nil {
		cfg.Message = RandomMessage(64, cfg.Seed)
	}
	if sc.FECFrame {
		// The channel carries the coded stream; the data bits come back
		// out of the spy's decode after FEC correction.
		cfg.DataBits = cfg.Message
		cfg.Message = channels.FECEncode(cfg.Message)
	}
	if cfg.CacheSets == 0 {
		cfg.CacheSets = 512
	}
	if cfg.Background == 0 {
		cfg.Background = 3
	} else if cfg.Background < 0 {
		cfg.Background = 0
	}
	if cfg.QuantumCycles == 0 {
		cfg.QuantumCycles = 250_000_000
	}
	if cfg.ObservationDivisor <= 0 {
		cfg.ObservationDivisor = 1
	}
	if cfg.ChannelStartQuanta < 0 {
		cfg.ChannelStartQuanta = 0
	}
	if cfg.DurationQuanta <= 0 {
		clock := 2_500_000_000.0
		slot := clock / cfg.BandwidthBPS
		need := slot * float64(len(cfg.Message)+2)
		cfg.DurationQuanta = int(need/float64(cfg.QuantumCycles)) + 1 + cfg.ChannelStartQuanta
		if cfg.DurationQuanta < 4 {
			cfg.DurationQuanta = 4 // recurrence needs several quanta
		}
	}
	return cfg, nil
}

// decodeFECStream splits the spy's decoded bit stream into complete
// coded blocks of blockLen bits and FEC-decodes each back to dataLen
// data bits; a trailing partial block is dropped.
func decodeFECStream(coded []int, blockLen, dataLen int) []int {
	if blockLen <= 0 {
		return nil
	}
	var data []int
	for off := 0; off+blockLen <= len(coded); off += blockLen {
		d, _, _ := channels.FECDecode(coded[off:off+blockLen], dataLen)
		data = append(data, d...)
	}
	return data
}

// repeatedBitErrors compares the decoded stream against the message
// repeated as often as the trojan sent it.
func repeatedBitErrors(sent, decoded []int) int {
	if len(sent) == 0 {
		return len(decoded)
	}
	errs := 0
	for i, d := range decoded {
		if d != sent[i%len(sent)] {
			errs++
		}
	}
	return errs
}
