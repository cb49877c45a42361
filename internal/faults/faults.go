// Package faults is the sensor fault model for the CC-Auditor event
// pipeline. The paper's detectors assume the auditor delivers a clean,
// complete event train, but the hardware budget it argues for (16-bit
// accumulators, 128-entry histogram buffers, byte-wide vector-register
// entries) makes dropped, saturated, delayed, and mislabelled events
// inevitable at production scale. The Injector perturbs the event
// stream between the hardware units and the auditor with a
// deterministic, seeded fault model so every detector can be
// characterized — and regression-tested — under degraded sensors
// instead of only under laboratory-clean ones.
//
// Fault modes, and the hardware failure each one models:
//
//   - uniform drop: lost monitor messages on a congested on-chip
//     interconnect, or a daemon that cannot drain buffers fast enough;
//   - bursty drop: a monitoring buffer overrun — once a buffer fills,
//     *consecutive* events vanish until the daemon catches up;
//   - timestamp jitter: skew between per-unit countdown registers and
//     the global cycle counter (events are stamped where the unit saw
//     them, not where they happened);
//   - duplication: replayed vector-register entries when a drain races
//     the register swap;
//   - bounded reordering: events from different units arriving through
//     queues of different depth;
//   - context-ID corruption: bit flips or stale context tags in the
//     3-bit replacer/victim fields — either swapping Actor and Victim
//     or smearing a field to NoContext;
//   - saturation: a narrow saturating counter between the unit and the
//     auditor — within each window only the first N events are
//     delivered, mirroring the 16-bit accumulator / 128-entry
//     histogram-bin clamp at a configurable, smaller width;
//   - truncation: the monitoring path dying mid-run (daemon crash,
//     auditor reprogrammed away) — no events at all after some cycle.
//
// Everything is driven by one seeded RNG, so a faulted run is exactly
// as reproducible as a clean one, and a Config that IsZero() injects
// nothing and leaves the pipeline bit-identical to an unwired one.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cchunter/internal/obs"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// ErrBadConfig is wrapped by every configuration validation error in
// this package, so callers can errors.Is against one sentinel.
var ErrBadConfig = errors.New("faults: bad configuration")

// Config selects which sensor faults to inject and how hard.
// The zero value injects nothing.
type Config struct {
	// DropProb is the per-event probability of a uniform drop.
	DropProb float64
	// BurstDropProb is the per-event probability that a drop *burst*
	// starts; once started, BurstLen consecutive events (this one
	// included) are discarded, modelling a monitoring-buffer overrun.
	BurstDropProb float64
	// BurstLen is the length of each drop burst (default 8 when a
	// burst probability is set).
	BurstLen int
	// JitterCycles perturbs each event's timestamp by a uniform offset
	// in [-JitterCycles, +JitterCycles] (clamped at cycle 0). Jittered
	// streams are generally no longer monotonic; consumers must clamp.
	JitterCycles uint64
	// DupProb is the per-event probability the event is delivered
	// twice, modelling a replayed vector-register entry.
	DupProb float64
	// ReorderProb is the per-event probability the event is held back
	// and delivered after its successor (bounded reordering of depth
	// one, applied independently per fault decision).
	ReorderProb float64
	// CtxFlipProb is the per-event probability that Actor and Victim
	// are swapped — a corrupted direction bit in the recorded pair.
	CtxFlipProb float64
	// CtxSmearProb is the per-event probability that the Victim field
	// is smeared to NoContext — a stale or unreadable context tag.
	CtxSmearProb float64
	// SaturateWindow and SaturateMax model a narrow saturating counter
	// in the delivery path: within each aligned window of
	// SaturateWindow cycles, only the first SaturateMax events are
	// delivered; the rest are absorbed by the saturated counter. Both
	// must be set for saturation to apply.
	SaturateWindow uint64
	SaturateMax    int
	// TruncateAfter, when non-zero, drops every event at or after this
	// cycle: the monitoring path went dark mid-run.
	TruncateAfter uint64
	// Seed drives all fault randomness (default 1).
	Seed uint64
}

// IsZero reports whether the configuration injects no faults at all.
func (c Config) IsZero() bool {
	return c.DropProb == 0 && c.BurstDropProb == 0 && c.JitterCycles == 0 &&
		c.DupProb == 0 && c.ReorderProb == 0 && c.CtxFlipProb == 0 &&
		c.CtxSmearProb == 0 && (c.SaturateWindow == 0 || c.SaturateMax == 0) &&
		c.TruncateAfter == 0
}

// Validate checks every knob's range, wrapping ErrBadConfig.
func (c Config) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"drop", c.DropProb},
		{"burst-drop", c.BurstDropProb},
		{"dup", c.DupProb},
		{"reorder", c.ReorderProb},
		{"ctx-flip", c.CtxFlipProb},
		{"ctx-smear", c.CtxSmearProb},
	}
	for _, p := range probs {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("%w: %s probability %v outside [0,1]", ErrBadConfig, p.name, p.v)
		}
	}
	if c.BurstLen < 0 {
		return fmt.Errorf("%w: burst length %d negative", ErrBadConfig, c.BurstLen)
	}
	if c.SaturateMax < 0 {
		return fmt.Errorf("%w: saturate max %d negative", ErrBadConfig, c.SaturateMax)
	}
	if c.SaturateMax > 0 && c.SaturateWindow == 0 {
		return fmt.Errorf("%w: saturate max without a saturate window", ErrBadConfig)
	}
	return nil
}

// Stats counts what the injector did to the stream; every counter is a
// number of events.
type Stats struct {
	// Seen is how many events entered the injector.
	Seen uint64
	// Delivered is how many events left it (duplicates included).
	Delivered uint64
	// Dropped counts uniform drops; DroppedBurst counts burst drops.
	Dropped, DroppedBurst uint64
	// Saturated counts events absorbed by the saturating counter.
	Saturated uint64
	// Truncated counts events past the truncation cycle.
	Truncated uint64
	// Jittered, Duplicated, Reordered, CtxFlipped, CtxSmeared count the
	// non-destructive corruptions applied.
	Jittered, Duplicated, Reordered, CtxFlipped, CtxSmeared uint64
}

// Lost is the total number of events that never reached the consumer.
func (s Stats) Lost() uint64 {
	return s.Dropped + s.DroppedBurst + s.Saturated + s.Truncated
}

// LossRate is the fraction of seen events lost, 0 for an empty stream.
func (s Stats) LossRate() float64 {
	if s.Seen == 0 {
		return 0
	}
	return float64(s.Lost()) / float64(s.Seen)
}

// Injector is a trace.Listener that applies the configured faults and
// forwards the surviving (possibly corrupted) events downstream. It is
// deterministic for a given (Config, event stream) pair — and, because
// the fault state machine is strictly per-event, for a given stream
// the delivered sequence is identical whether events arrive one
// callback at a time (OnEvent) or in slices (OnEvents).
type Injector struct {
	cfg  Config
	out  trace.Listener
	rng  *stats.RNG
	st   Stats
	skip int // remaining events of the current drop burst

	held    *trace.Event // event delayed by a reorder fault
	satSlot uint64       // current saturation window index
	satSeen int          // events delivered in the current window

	outBuf []trace.Event // survivors of the batch being processed

	// Live metrics, published per delivery (see Instrument). Gauges
	// mirror the Stats counters so a metrics endpoint shows sensor
	// degradation while the run is in flight.
	mSeen, mDelivered, mLost, mCorrupted *obs.Gauge
}

// Instrument points the injector at a metrics registry. After every
// delivery the injector publishes its seen/delivered/lost/corrupted
// totals as gauges. A nil registry disables publishing.
func (in *Injector) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	in.mSeen = reg.Gauge("faults.seen")
	in.mDelivered = reg.Gauge("faults.delivered")
	in.mLost = reg.Gauge("faults.lost")
	in.mCorrupted = reg.Gauge("faults.corrupted")
}

// publish pushes the current Stats totals into the gauges.
func (in *Injector) publish() {
	if in.mSeen == nil {
		return
	}
	in.mSeen.Set(int64(in.st.Seen))
	in.mDelivered.Set(int64(in.st.Delivered))
	in.mLost.Set(int64(in.st.Lost()))
	in.mCorrupted.Set(int64(in.st.Jittered + in.st.Duplicated + in.st.Reordered +
		in.st.CtxFlipped + in.st.CtxSmeared))
}

// NewInjector validates cfg and builds an injector forwarding to out.
func NewInjector(cfg Config, out trace.Listener) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("%w: nil downstream listener", ErrBadConfig)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.BurstDropProb > 0 && cfg.BurstLen == 0 {
		cfg.BurstLen = 8
	}
	return &Injector{cfg: cfg, out: out, rng: stats.NewRNG(cfg.Seed ^ 0xfa017)}, nil
}

// OnEvent implements trace.Listener.
func (in *Injector) OnEvent(e trace.Event) {
	in.outBuf = in.process(e, in.outBuf[:0])
	in.publish()
	trace.Deliver(in.out, in.outBuf)
}

// OnEvents implements trace.BatchListener: the whole batch runs
// through the fault stages in one pass, survivors accumulate in a
// reused arena, and the downstream chain is entered exactly once —
// the amortization that makes an always-on injector affordable. The
// fault state machine is applied to each event in order, so the
// delivered sequence and every RNG draw are identical to the
// per-event path's.
func (in *Injector) OnEvents(events []trace.Event) {
	out := in.outBuf[:0]
	for _, e := range events {
		out = in.process(e, out)
	}
	in.outBuf = out
	in.publish()
	trace.Deliver(in.out, out)
}

// process applies every fault stage to one event, appending the
// survivors (zero, one, or more events, counting reorder releases and
// duplicates) to out.
func (in *Injector) process(e trace.Event, out []trace.Event) []trace.Event {
	in.st.Seen++

	// Destructive faults first: an event that is never delivered
	// cannot also be corrupted.
	if in.cfg.TruncateAfter != 0 && e.Cycle >= in.cfg.TruncateAfter {
		in.st.Truncated++
		return out
	}
	if in.skip > 0 {
		in.skip--
		in.st.DroppedBurst++
		return out
	}
	if in.cfg.BurstDropProb > 0 && in.rng.Float64() < in.cfg.BurstDropProb {
		in.skip = in.cfg.BurstLen - 1
		in.st.DroppedBurst++
		return out
	}
	if in.cfg.DropProb > 0 && in.rng.Float64() < in.cfg.DropProb {
		in.st.Dropped++
		return out
	}
	if in.cfg.SaturateWindow > 0 && in.cfg.SaturateMax > 0 {
		slot := e.Cycle / in.cfg.SaturateWindow
		if slot != in.satSlot {
			in.satSlot, in.satSeen = slot, 0
		}
		if in.satSeen >= in.cfg.SaturateMax {
			in.st.Saturated++
			return out
		}
		in.satSeen++
	}

	// Corruptions.
	if in.cfg.JitterCycles > 0 {
		span := 2*in.cfg.JitterCycles + 1
		off := in.rng.Uint64() % span
		old := e.Cycle
		if off <= in.cfg.JitterCycles {
			e.Cycle += off
		} else if back := off - in.cfg.JitterCycles; back <= e.Cycle {
			e.Cycle -= back
		} else {
			e.Cycle = 0
		}
		if e.Cycle != old {
			in.st.Jittered++
		}
	}
	if in.cfg.CtxFlipProb > 0 && e.Victim != trace.NoContext &&
		in.rng.Float64() < in.cfg.CtxFlipProb {
		e.Actor, e.Victim = e.Victim, e.Actor
		in.st.CtxFlipped++
	}
	if in.cfg.CtxSmearProb > 0 && e.Victim != trace.NoContext &&
		in.rng.Float64() < in.cfg.CtxSmearProb {
		e.Victim = trace.NoContext
		in.st.CtxSmeared++
	}

	// Bounded reordering: hold this event back one delivery slot.
	if in.held != nil {
		held := *in.held
		in.held = nil
		out = in.emit(e, out)
		return in.emit(held, out)
	}
	if in.cfg.ReorderProb > 0 && in.rng.Float64() < in.cfg.ReorderProb {
		held := e
		in.held = &held
		in.st.Reordered++
		return out
	}
	return in.emit(e, out)
}

// emit appends a surviving event (plus its duplicate when the dup
// fault fires) to the batch being assembled.
func (in *Injector) emit(e trace.Event, out []trace.Event) []trace.Event {
	out = append(out, e)
	in.st.Delivered++
	if in.cfg.DupProb > 0 && in.rng.Float64() < in.cfg.DupProb {
		out = append(out, e)
		in.st.Delivered++
		in.st.Duplicated++
	}
	return out
}

// Flush releases any event still held by a reorder fault. Call it at
// the end of the run, before reading consumers.
func (in *Injector) Flush() {
	if in.held != nil {
		e := *in.held
		in.held = nil
		in.outBuf = in.emit(e, in.outBuf[:0])
		in.publish()
		trace.Deliver(in.out, in.outBuf)
	}
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats { return in.st }

// specKeys maps -faults spec keys to setters, shared by ParseSpec and
// its error message.
var specKeys = map[string]func(*Config, float64) error{
	"drop":      func(c *Config, v float64) error { c.DropProb = v; return nil },
	"burstdrop": func(c *Config, v float64) error { c.BurstDropProb = v; return nil },
	"burstlen":  func(c *Config, v float64) error { c.BurstLen = int(v); return nil },
	"jitter":    func(c *Config, v float64) error { c.JitterCycles = uint64(v); return nil },
	"dup":       func(c *Config, v float64) error { c.DupProb = v; return nil },
	"reorder":   func(c *Config, v float64) error { c.ReorderProb = v; return nil },
	"ctxflip":   func(c *Config, v float64) error { c.CtxFlipProb = v; return nil },
	"ctxsmear":  func(c *Config, v float64) error { c.CtxSmearProb = v; return nil },
	"satwindow": func(c *Config, v float64) error { c.SaturateWindow = uint64(v); return nil },
	"satmax":    func(c *Config, v float64) error { c.SaturateMax = int(v); return nil },
	"truncate":  func(c *Config, v float64) error { c.TruncateAfter = uint64(v); return nil },
	"seed":      func(c *Config, v float64) error { c.Seed = uint64(v); return nil },
}

// SpecKeys lists the keys ParseSpec understands, sorted, for usage
// messages.
func SpecKeys() []string {
	out := make([]string, 0, len(specKeys))
	for k := range specKeys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ParseSpec parses a compact fault specification of the form
// "key=value,key=value", e.g. "drop=0.05,jitter=200,seed=7". An empty
// spec returns the zero Config. Unknown keys, malformed values, and
// out-of-range settings return errors wrapping ErrBadConfig.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return cfg, fmt.Errorf("%w: %q is not key=value", ErrBadConfig, part)
		}
		key := strings.ToLower(strings.TrimSpace(kv[0]))
		set, ok := specKeys[key]
		if !ok {
			return cfg, fmt.Errorf("%w: unknown fault key %q (known: %s)",
				ErrBadConfig, key, strings.Join(SpecKeys(), " "))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return cfg, fmt.Errorf("%w: value for %q: %v", ErrBadConfig, key, err)
		}
		if v < 0 {
			return cfg, fmt.Errorf("%w: value for %q is negative", ErrBadConfig, key)
		}
		if err := set(&cfg, v); err != nil {
			return cfg, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// String renders the configuration as a canonical spec string, the
// inverse of ParseSpec for the set fields. Zero configs render "none".
func (c Config) String() string {
	if c.IsZero() {
		return "none"
	}
	var parts []string
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", k, v))
		}
	}
	add("drop", c.DropProb)
	add("burstdrop", c.BurstDropProb)
	add("burstlen", float64(c.BurstLen))
	add("jitter", float64(c.JitterCycles))
	add("dup", c.DupProb)
	add("reorder", c.ReorderProb)
	add("ctxflip", c.CtxFlipProb)
	add("ctxsmear", c.CtxSmearProb)
	add("satwindow", float64(c.SaturateWindow))
	add("satmax", float64(c.SaturateMax))
	add("truncate", float64(c.TruncateAfter))
	return strings.Join(parts, ",")
}
