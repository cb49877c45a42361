// Package core implements CC-Hunter's detection algorithms — the
// paper's primary contribution:
//
//   - recurrent burst pattern detection (§IV-B) for covert channels on
//     combinational hardware (memory bus, integer divider), built on
//     event density histograms, a threshold-density split, a
//     likelihood-ratio test, and k-means clustering of discretized
//     histograms to establish recurrence; and
//   - oscillatory pattern detection (§IV-D) for covert channels on
//     memory hardware (shared caches), built on the autocorrelation of
//     the conflict-miss event train.
//
// The package consumes the CC-Auditor's outputs (internal/auditor) and
// is deliberately independent of the simulator: feed it event trains
// from any source. Every analysis runs in a pooled Workspace, every
// observation window goes through AnalyzeOscillationWindows, and every
// verdict — batch Detector.Analyze and the streaming daemon's
// (internal/stream) interim and final ones — is folded by one
// assembler, Assemble.
package core

import (
	"fmt"

	"cchunter/internal/auditor"
	"cchunter/internal/trace"
)

// Paper-calibrated observation windows (§IV-B step 1): for the memory
// bus channel Δt is 100,000 cycles (40 µs at 2.5 GHz); for the integer
// divider channel, 500 cycles (200 ns). The ring and TLB windows are
// ours, derived with DeltaTHeuristic from each channel's maximum
// bandwidth and conflicts-per-bit (see DESIGN.md §16).
const (
	DeltaTBus     uint64 = 100_000
	DeltaTDivider uint64 = 500
	DeltaTRing    uint64 = 1_250
	DeltaTTLB     uint64 = 10_000
)

// BurstKinds lists, in canonical order, every indicator event analyzed
// by the recurrent-burst detector. Batch and streaming detectors both
// iterate this list (filtered to the kinds the auditor monitored), so
// report ordering is identical across paths.
var BurstKinds = []trace.Kind{
	trace.KindBusLock,
	trace.KindDivContention,
	trace.KindRingContention,
	trace.KindTLBConflict,
}

// DefaultDeltaT returns the paper's Δt for the given indicator event.
// Conflict misses are analyzed by the oscillation detector and have no
// Δt; asking for one panics.
func DefaultDeltaT(kind trace.Kind) uint64 {
	switch kind {
	case trace.KindBusLock:
		return DeltaTBus
	case trace.KindDivContention:
		return DeltaTDivider
	case trace.KindRingContention:
		return DeltaTRing
	case trace.KindTLBConflict:
		return DeltaTTLB
	default:
		panic("core: no default Δt for " + kind.String())
	}
}

// NewAuditor builds a CC-Auditor with the paper's hardware sizing for
// the given OS quantum and programs it the way every detection path
// does: each burst kind in its own slot at its DefaultDeltaT
// (auditor.ClassicPair when kinds is empty), plus the conflict-miss
// vector registers. The caller owns the auditor and releases it.
func NewAuditor(quantum uint64, kinds ...trace.Kind) (*auditor.Auditor, error) {
	aud, err := auditor.New(auditor.DefaultConfig(quantum))
	if err != nil {
		return nil, err
	}
	if len(kinds) == 0 {
		kinds = auditor.ClassicPair[:]
	}
	for _, k := range kinds {
		if err := aud.Monitor(k, DefaultDeltaT(k)); err != nil {
			aud.Release()
			return nil, fmt.Errorf("monitoring %v: %w", k, err)
		}
	}
	if err := aud.MonitorConflicts(); err != nil {
		aud.Release()
		return nil, err
	}
	return aud, nil
}

// DeltaTHeuristic derives an observation window from the channel
// characteristics of a hardware unit, encoding the paper's α recipe:
// Δt sits at the geometric midpoint between the burst's inter-event
// spacing and the bit slot, i.e. Δt = bitCycles / √conflictsPerBit,
// where bitCycles is the bit-slot length at the *maximum* achievable
// bandwidth and conflictsPerBit is how many conflicts a reliable bit
// needs. For the memory bus (1000 bps max, ~500 locks per bit) this
// yields ≈112k cycles against the paper's empirical 100k; treat it as
// a starting point and prefer the paper's calibrated constants where
// they exist.
func DeltaTHeuristic(bitCycles uint64, conflictsPerBit float64) uint64 {
	if bitCycles == 0 || conflictsPerBit <= 0 {
		panic("core: invalid channel characteristics")
	}
	dt := uint64(float64(bitCycles) / sqrtf(conflictsPerBit))
	if dt < 1 {
		dt = 1
	}
	return dt
}
