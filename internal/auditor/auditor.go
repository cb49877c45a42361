// Package auditor models the CC-Auditor hardware of §V-A: the
// microarchitectural monitoring block that CC-Hunter adds to the chip.
//
// The auditor can monitor up to two hardware units at a time for
// contention events (the paper's deliberate cost/coverage trade-off).
// For each monitored unit it keeps a 32-bit countdown register loaded
// with Δt, a 16-bit accumulator counting event occurrences within the
// current Δt window, and a 128-entry × 16-bit histogram buffer that
// the software daemon records and clears at every OS time quantum.
//
// For cache conflict misses it keeps two alternating 128-byte vector
// registers recording the 3-bit context IDs of the replacer and the
// victim of every conflict miss; while one register fills, the
// software daemon drains the other.
//
// Programming the auditor models the paper's privileged instruction:
// it requires a privileged handle, as the OS would enforce through its
// authorization checks (§V-B).
package auditor

import (
	"errors"
	"fmt"
	"sync"

	"cchunter/internal/obs"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// Config sizes the auditor hardware.
type Config struct {
	// HistogramBins is the depth of each histogram buffer (paper:
	// 128 entries).
	HistogramBins int
	// VectorBytes is the size of each conflict-miss vector register
	// (paper: 128 bytes, one byte per recorded miss).
	VectorBytes int
	// QuantumCycles is the OS time quantum at which the software
	// daemon records and clears the buffers.
	QuantumCycles uint64
	// Privileged marks the creating principal as authorized to program
	// the auditor. The paper routes this through a privileged
	// instruction plus an OS authorization check.
	Privileged bool
}

// DefaultConfig returns the paper's hardware sizing.
func DefaultConfig(quantum uint64) Config {
	return Config{
		HistogramBins: 128,
		VectorBytes:   128,
		QuantumCycles: quantum,
		Privileged:    true,
	}
}

// MaxMonitoredUnits is how many hardware units the auditor can watch
// simultaneously (§V-A: "up to two different hardware units at any
// given time").
const MaxMonitoredUnits = 2

// Pair is one programming of the monitoring slots.
type Pair [MaxMonitoredUnits]trace.Kind

// ClassicPair is the slot programming of the paper's evaluation: bus
// locks and divider contention. A flight whose metadata names no kinds
// was monitored with it.
var ClassicPair = Pair{trace.KindBusLock, trace.KindDivContention}

// ErrNotPrivileged is returned when an unprivileged principal tries to
// program the auditor.
var ErrNotPrivileged = errors.New("auditor: programming requires privilege")

// ErrBadConfig is wrapped by every configuration validation error in
// this package.
var ErrBadConfig = errors.New("auditor: bad configuration")

// QuantumHistogram is one monitored unit's event-density histogram for
// one OS time quantum, as recorded by the software daemon.
type QuantumHistogram struct {
	// Quantum is the quantum index (Start = Quantum × QuantumCycles).
	Quantum uint64
	// Hist is the density histogram: bin i counts Δt windows holding i
	// events (the top bin clamps, as a saturating 7-bit density
	// encoder would).
	Hist *stats.Histogram
}

// slot is one monitored unit's counting hardware.
type slot struct {
	kind        trace.Kind
	deltaT      uint64
	accum       uint16
	windowStart uint64
	quantum     uint64
	hist        *stats.Histogram
	records     []QuantumHistogram
	bins        int
	quantumLen  uint64

	windows     uint64 // Δt windows closed so far
	saturations uint64 // windows whose 16-bit accumulator hit its ceiling
	satThisWin  bool

	// drainedClamped accumulates the clamped-window tallies of records
	// handed out through DrainHistograms, so Integrity keeps reporting
	// whole-run clamping after the streaming daemon takes ownership of
	// the per-quantum histograms.
	drainedClamped uint64

	mWindows *obs.Counter   // Δt windows closed
	mQuanta  *obs.Counter   // quantum histograms recorded by the daemon
	mDensity *obs.Histogram // per-window event densities

	// Local metric tallies, flushed to the registry at quantum rolls
	// and on Auditor.Flush. The slot is single-writer (the delivery
	// goroutine), so plain increments here keep the per-window cost of
	// an instrumented run to an array bump instead of atomic traffic;
	// densityAcc's last entry collects everything past the registry
	// histogram's top bound. Nil when uninstrumented.
	densityAcc []uint64
	winAcc     uint64
}

func newSlot(kind trace.Kind, deltaT uint64, bins int, quantumLen uint64) *slot {
	return &slot{
		kind:       kind,
		deltaT:     deltaT,
		bins:       bins,
		quantumLen: quantumLen,
		hist:       newHistogram(bins),
	}
}

// histograms recycles quantum histogram buffers: RecycleHistogram and
// Release put dead ones back, and every slot's quantum roll takes its
// next buffer from here.
var histograms sync.Pool

// newHistogram takes a histogram of the given depth from the pool,
// zeroed like a fresh stats.NewHistogram (bins, clamped and invalid
// tallies), or allocates one. A pooled buffer of another depth is left
// to the collector.
func newHistogram(bins int) *stats.Histogram {
	if h, _ := histograms.Get().(*stats.Histogram); h != nil && h.NumBins() == bins {
		h.Reset()
		return h
	}
	return stats.NewHistogram(bins)
}

// advance closes out all Δt windows and quanta strictly before cycle.
// A quiet stretch is closed in bulk: while the open window is empty
// and unsaturated, every window up to cycle or to the quantum's last
// window records density 0, so closeWindow's per-window work collapses
// to one AddN and a few additions. The window that rolls the quantum,
// and any window holding events, still goes through closeWindow, so
// the state is exactly that of closing the windows one at a time.
func (s *slot) advance(cycle uint64) {
	for cycle >= s.windowStart+s.deltaT {
		if s.accum == 0 && !s.satThisWin {
			toEvent := (cycle - s.windowStart) / s.deltaT
			// The close that reaches qEnd rolls the quantum; stop
			// one short of it.
			qEnd := (s.quantum + 1) * s.quantumLen
			beforeRoll := (qEnd - s.windowStart - 1) / s.deltaT
			if k := min(toEvent, beforeRoll); k > 0 {
				s.closeEmpty(k)
				continue
			}
		}
		s.closeWindow()
	}
}

// closeEmpty closes k empty, unsaturated Δt windows none of which
// rolls the quantum: k closeWindow calls at density 0, in one step.
func (s *slot) closeEmpty(k uint64) {
	s.hist.AddN(0, k)
	if s.densityAcc != nil {
		s.densityAcc[0] += k
		s.winAcc += k
	}
	s.windows += k
	s.windowStart += k * s.deltaT
}

// closeWindow flushes the accumulator into the histogram and starts
// the next Δt window, also rolling the quantum when crossed.
func (s *slot) closeWindow() {
	s.hist.Add(int(s.accum))
	if s.densityAcc != nil {
		d := int(s.accum)
		if d >= len(s.densityAcc) {
			d = len(s.densityAcc) - 1
		}
		s.densityAcc[d]++
		s.winAcc++
	}
	s.accum = 0
	s.windows++
	if s.satThisWin {
		s.saturations++
		s.satThisWin = false
	}
	s.windowStart += s.deltaT
	if s.windowStart >= (s.quantum+1)*s.quantumLen {
		s.records = append(s.records, QuantumHistogram{Quantum: s.quantum, Hist: s.hist})
		s.hist = newHistogram(s.bins)
		s.quantum = s.windowStart / s.quantumLen
		s.mQuanta.Inc()
		s.flushMetrics()
	}
}

// flushMetrics publishes the locally tallied window metrics; the
// quantum roll is the natural cadence (the daemon's own drain point).
func (s *slot) flushMetrics() {
	if s.densityAcc == nil {
		return
	}
	for d, n := range s.densityAcc {
		if n != 0 {
			s.mDensity.ObserveN(float64(d), n)
			s.densityAcc[d] = 0
		}
	}
	s.mWindows.Add(s.winAcc)
	s.winAcc = 0
}

func (s *slot) onEvent(cycle uint64) {
	s.advance(cycle)
	if s.accum < ^uint16(0) {
		s.accum++
	} else {
		// The real register saturates rather than wrapping; remember
		// that this window's count is a floor, not an exact density.
		s.satThisWin = true
	}
}

// onEvents sweeps a batch for this slot's kind. The common case — the
// event lands inside the currently open, unsaturated Δt window — is a
// single compare and a register bump with the window bound hoisted
// into a local; only window-crossing or saturating events take the
// full onEvent path. State after the sweep is identical to calling
// onEvent per matching event.
func (s *slot) onEvents(events []trace.Event) {
	kind := s.kind
	winEnd := s.windowStart + s.deltaT
	accum := s.accum
	for i := range events {
		if events[i].Kind != kind {
			continue
		}
		c := events[i].Cycle
		if c < winEnd && accum < ^uint16(0) {
			accum++
			continue
		}
		s.accum = accum
		s.onEvent(c)
		accum = s.accum
		winEnd = s.windowStart + s.deltaT
	}
	s.accum = accum
}

// histogramClamped sums the windows clamped into the top histogram bin
// across recorded quanta plus the still-open one.
func (s *slot) histogramClamped() uint64 {
	var n uint64
	for _, rec := range s.records {
		n += rec.Hist.Clamped()
	}
	return n + s.drainedClamped + s.hist.Clamped()
}

// Auditor is the CC-Auditor hardware instance. It implements
// trace.Listener; wire it into the simulator with System.AddListener.
type Auditor struct {
	cfg   Config
	slots []*slot
	osc   *oscillator

	reg     *obs.Registry
	mEvents *obs.Counter // events entering the auditor
}

// Instrument points the auditor at a metrics registry: each monitored
// slot records its Δt-window fills and per-window densities, and the
// conflict capture path its recorded/deduplicated/dropped entries.
// Call after the Monitor calls (slots registered later are picked up
// too — Monitor instruments new slots from the stored registry). A nil
// registry keeps every instrument nil, the no-op fast path.
func (a *Auditor) Instrument(reg *obs.Registry) {
	a.reg = reg
	a.mEvents = reg.Counter("auditor.events")
	for _, s := range a.slots {
		s.instrument(reg)
	}
	if a.osc != nil {
		a.osc.instrument(reg)
	}
}

// instrument resolves a slot's instruments, named by the monitored
// event kind (e.g. auditor.bus-lock.density).
func (s *slot) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	prefix := "auditor." + s.kind.String() + "."
	s.mWindows = reg.Counter(prefix + "windows")
	s.mQuanta = reg.Counter(prefix + "quanta")
	// Densities are small integers bounded by the histogram depth;
	// power-of-two buckets show the occupancy shape at a glance.
	s.mDensity = reg.Histogram(prefix+"density", []float64{0, 1, 2, 4, 8, 16, 32, 64, 128})
	// One tally per exact density up to the top bound, plus a catch-all.
	s.densityAcc = make([]uint64, 130)
}

// New builds an auditor. A zero HistogramBins or VectorBytes selects
// the paper's 128; a zero quantum is a configuration error (the
// software daemon would never drain the buffers).
func New(cfg Config) (*Auditor, error) {
	if cfg.HistogramBins < 0 {
		return nil, fmt.Errorf("%w: negative histogram depth %d", ErrBadConfig, cfg.HistogramBins)
	}
	if cfg.VectorBytes < 0 {
		return nil, fmt.Errorf("%w: negative vector register size %d", ErrBadConfig, cfg.VectorBytes)
	}
	if cfg.HistogramBins == 0 {
		cfg.HistogramBins = 128
	}
	if cfg.VectorBytes == 0 {
		cfg.VectorBytes = 128
	}
	if cfg.QuantumCycles == 0 {
		return nil, fmt.Errorf("%w: quantum must be positive", ErrBadConfig)
	}
	return &Auditor{cfg: cfg}, nil
}

// MustNew is New for configurations known to be valid (internal
// wiring, tests); it panics on error.
func MustNew(cfg Config) *Auditor {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Monitor programs the auditor to watch the given indicator event with
// observation window deltaT, occupying one of the two monitoring
// slots. It models the paper's privileged CC-auditor instruction.
func (a *Auditor) Monitor(kind trace.Kind, deltaT uint64) error {
	if !a.cfg.Privileged {
		return ErrNotPrivileged
	}
	if deltaT == 0 {
		return errors.New("auditor: deltaT must be positive")
	}
	if kind == trace.KindConflictMiss {
		return errors.New("auditor: conflict misses use MonitorConflicts")
	}
	if len(a.slots) >= MaxMonitoredUnits {
		return fmt.Errorf("auditor: all %d monitoring slots in use", MaxMonitoredUnits)
	}
	for _, s := range a.slots {
		if s.kind == kind {
			return fmt.Errorf("auditor: %v already monitored", kind)
		}
	}
	s := newSlot(kind, deltaT, a.cfg.HistogramBins, a.cfg.QuantumCycles)
	s.instrument(a.reg)
	a.slots = append(a.slots, s)
	return nil
}

// MonitorConflicts enables the conflict-miss vector registers.
func (a *Auditor) MonitorConflicts() error {
	if !a.cfg.Privileged {
		return ErrNotPrivileged
	}
	if a.osc != nil {
		return errors.New("auditor: conflict monitoring already enabled")
	}
	a.osc = newOscillator(a.cfg.VectorBytes)
	a.osc.instrument(a.reg)
	return nil
}

// OnEvents implements trace.Listener. Each monitored unit's slot
// sweeps the whole batch in turn — the slot test and counting-path
// bookkeeping are hoisted out of the per-event hot loop. The slots and
// the conflict capture path are independent state machines keyed only
// on the event sequence, so the final auditor state is the same at any
// batch size, one event included.
func (a *Auditor) OnEvents(events []trace.Event) {
	a.mEvents.Add(uint64(len(events)))
	for _, s := range a.slots {
		s.onEvents(events)
	}
	if a.osc != nil {
		for i := range events {
			if events[i].Kind == trace.KindConflictMiss {
				a.osc.onEvent(events[i])
			}
		}
	}
}

// Flush closes out all Δt windows and quanta up to the given cycle;
// call it after the simulation run so trailing quiet quanta are
// recorded (hardware-wise, the daemon's final read).
func (a *Auditor) Flush(cycle uint64) {
	for _, s := range a.slots {
		s.advance(cycle)
		s.flushMetrics()
	}
	if a.osc != nil {
		a.osc.flush()
	}
}

// Histograms returns the per-quantum density histograms recorded for a
// monitored event kind. The returned slice is shared; treat it as
// read-only.
func (a *Auditor) Histograms(kind trace.Kind) []QuantumHistogram {
	for _, s := range a.slots {
		if s.kind == kind {
			return s.records
		}
	}
	return nil
}

// DrainHistograms appends every quantum histogram recorded for kind
// since the last drain to dst and clears the auditor-side record list,
// returning the extended slice. This is the streaming daemon's read
// path: ownership of the drained records (and their histograms) moves
// to the caller, the auditor's buffer stays O(1) quanta deep, and the
// counting-path Integrity diagnostics keep covering the whole run.
func (a *Auditor) DrainHistograms(kind trace.Kind, dst []QuantumHistogram) []QuantumHistogram {
	for _, s := range a.slots {
		if s.kind != kind {
			continue
		}
		for _, rec := range s.records {
			s.drainedClamped += rec.Hist.Clamped()
		}
		dst = append(dst, s.records...)
		s.records = s.records[:0]
	}
	return dst
}

// RecycleHistogram hands a dead histogram back: one the caller drained
// with DrainHistograms or took from MergedHistogram, and no longer
// reads. Its buffer goes to the pool every slot's next quantum roll
// draws from; the caller must not touch it afterwards. Nil is ignored.
func (a *Auditor) RecycleHistogram(h *stats.Histogram) {
	if h != nil {
		histograms.Put(h)
	}
}

// Release gives the auditor's buffers back to the pools its successors
// draw from: the conflict vector register and train, every recorded
// quantum histogram still held, and each slot's open histogram. Call
// it once no verdict or result reads the auditor any more; neither the
// auditor nor anything read from it (ConflictTrain, Histograms) may be
// used afterwards. An auditor that is never released is simply
// collected.
func (a *Auditor) Release() {
	for _, s := range a.slots {
		for _, rec := range s.records {
			a.RecycleHistogram(rec.Hist)
		}
		a.RecycleHistogram(s.hist)
		s.records, s.hist = nil, nil
	}
	a.slots = nil
	if a.osc != nil {
		oscillators.Put(a.osc)
		a.osc = nil
	}
}

// MergedHistogram returns the union of all per-quantum histograms for
// kind — the full-run event density histogram of Figure 6. The result
// is the caller's; it can go back with RecycleHistogram.
func (a *Auditor) MergedHistogram(kind trace.Kind) *stats.Histogram {
	var out *stats.Histogram
	for _, s := range a.slots {
		if s.kind != kind {
			continue
		}
		out = newHistogram(s.bins)
		for _, rec := range s.records {
			out.Merge(rec.Hist)
		}
		// Include the still-open quantum.
		out.Merge(s.hist)
	}
	return out
}

// DeltaT returns the programmed observation window for kind (0 when
// not monitored).
func (a *Auditor) DeltaT(kind trace.Kind) uint64 {
	for _, s := range a.slots {
		if s.kind == kind {
			return s.deltaT
		}
	}
	return 0
}

// ConflictTrain returns the recorded conflict-miss train (drained
// vector-register contents, in order). Nil when conflict monitoring is
// not enabled.
func (a *Auditor) ConflictTrain() *trace.Train {
	if a.osc == nil {
		return nil
	}
	return a.osc.train
}

// ForceDrainConflicts drains the active vector register into the train
// without ending the run: the streaming daemon's mid-run read. Unlike
// Flush it leaves the hardware dedup comparator's state alone, so the
// recorded train is byte-identical to one drained only by register
// swaps and the final flush — just visible earlier.
func (a *Auditor) ForceDrainConflicts() {
	if a.osc != nil {
		a.osc.drainActive()
	}
}

// TrimConflicts releases recorded conflict entries with Cycle < before
// from the train, returning how many were dropped. The streaming
// daemon calls it after analyzing a closed observation window, bounding
// the train to O(window) entries; ConflictIntegrity keeps counting the
// released entries as recorded.
func (a *Auditor) TrimConflicts(before uint64) int {
	if a.osc == nil {
		return 0
	}
	n := a.osc.train.TrimFront(before)
	a.osc.trimmed += uint64(n)
	return n
}

// SlotIntegrity describes one monitored unit's counting-path health:
// how trustworthy its recorded densities are.
type SlotIntegrity struct {
	// Windows is the number of Δt windows closed so far.
	Windows uint64
	// AccumSaturations counts windows whose 16-bit accumulator hit its
	// ceiling: the recorded density is a floor, not an exact count.
	AccumSaturations uint64
	// HistogramClamped counts windows folded into the top histogram
	// bin because their density exceeded the buffer depth.
	HistogramClamped uint64
}

// SaturationRate is the fraction of windows with a saturated count.
func (i SlotIntegrity) SaturationRate() float64 {
	if i.Windows == 0 {
		return 0
	}
	return float64(i.AccumSaturations+i.HistogramClamped) / float64(i.Windows)
}

// Integrity returns the counting-path diagnostics for a monitored
// event kind (zero value when the kind is not monitored).
func (a *Auditor) Integrity(kind trace.Kind) SlotIntegrity {
	for _, s := range a.slots {
		if s.kind == kind {
			return SlotIntegrity{
				Windows:          s.windows,
				AccumSaturations: s.saturations,
				HistogramClamped: s.histogramClamped(),
			}
		}
	}
	return SlotIntegrity{}
}

// ConflictIntegrity describes the conflict-capture path's health.
type ConflictIntegrity struct {
	// Recorded is the number of entries in the drained train.
	Recorded uint64
	// ClampedTimestamps counts entries whose arrival order contradicted
	// their timestamps and were clamped on ingest (a degraded or
	// reordered sensor path; zero on a healthy pipeline).
	ClampedTimestamps uint64
}

// ConflictIntegrity returns the conflict-capture diagnostics (zero
// value when conflict monitoring is off).
func (a *Auditor) ConflictIntegrity() ConflictIntegrity {
	if a.osc == nil {
		return ConflictIntegrity{}
	}
	return ConflictIntegrity{
		Recorded:          uint64(a.osc.train.Len()) + a.osc.trimmed,
		ClampedTimestamps: a.osc.clamped,
	}
}
