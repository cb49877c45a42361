// Package channels implements the covert timing channels CC-Hunter is
// evaluated against. Three are the paper's (§IV):
//
//   - a memory bus channel after Wu et al. [9]: the trojan signals '1'
//     by issuing atomic unaligned accesses that lock the bus, and the
//     spy decodes from its memory access latencies;
//   - an integer divider channel after Wang & Lee [7]: trojan and spy
//     run as hyperthreads of one core; the trojan saturates the
//     divider for '1' and the spy times division loops;
//   - a shared-cache channel after Xu et al. [10]: the trojan replaces
//     the blocks of one of two dynamically chosen cache-set groups
//     (G1 for '1', G0 for '0') and the spy compares its probe
//     latencies over the two groups.
//
// Two more run on the same detection machinery: a ring interconnect
// channel, where the trojan's loads occupy the ring path into one LLC
// slice and the spy times its own transits, and a TLB channel, where
// the trojan evicts one of four TLB-set groups per 2-bit symbol and
// the spy counts its probes' page walks.
//
// Each channel is a (Trojan, Spy) pair of sim.Programs synchronized by
// bit slots derived from the configured bandwidth, as real
// implementations synchronize on wall-clock slots. Table declares all
// five, one row each; adding a channel is adding a row and its rule in
// Decode. Both programs take Params; every other value of a channel's
// shape is a constant beside the code that uses it. Spies only sample:
// each records a fixed number of raw integers per slot, and Decode
// alone turns them into bits.
package channels

import (
	"cchunter/internal/sim"
	"cchunter/internal/stats"
)

// Protocol is the part of a channel configuration the trojan and spy
// agree on beforehand (the covert channel's synchronization phase).
type Protocol struct {
	// Message is the bit sequence to transmit (e.g. a 64-bit credit
	// card number).
	Message []int
	// BPS is the channel bandwidth in bits per second; each bit
	// occupies ClockHz/BPS cycles.
	BPS float64
	// Start is the absolute cycle of the first bit slot.
	Start uint64
	// Repeat loops the message until the simulation stops.
	Repeat bool
	// Seed parameterizes dynamic choices (e.g. which cache sets carry
	// the cache channel).
	Seed uint64
	// Evader parameterizes the adaptive sender sweeping against the
	// auditor; the zero value transmits exactly as before.
	Evader Evader
}

// Evader is the adaptive-sender parameterization (after "Towards a
// Better Indicator for Cache Timing Channels"): senders that modulate
// their period and amplitude to slide under recurrence detectors.
// Trojan and spy share the Protocol, so both derive identical slot
// offsets and pacing — evasion costs detection confidence, not (much)
// channel fidelity.
type Evader struct {
	// JitterFrac shifts every bit slot's active phase by a
	// seed-and-slot-keyed pseudorandom offset of up to this fraction
	// of the slot, breaking the train's strict periodicity. Must be
	// in [0, 0.5]; 0 disables jitter.
	JitterFrac float64
	// DutyFrac is the amplitude duty cycle in (0, 1]: the sender thins
	// its contention to this fraction of its natural event rate
	// (inflated intra-burst spacing, skipped priming rounds), draining
	// the per-Δt densities the burst detector feeds on. 0 or 1 means
	// full amplitude.
	DutyFrac float64
}

// validate panics on out-of-range evader parameters.
func (e Evader) validate() {
	if e.JitterFrac < 0 || e.JitterFrac > 0.5 {
		panic("channels: JitterFrac must be in [0, 0.5]")
	}
	if e.DutyFrac < 0 || e.DutyFrac > 1 {
		panic("channels: DutyFrac must be in [0, 1]")
	}
}

// hash64 is SplitMix64's finalizer — the keyed draw behind the
// evader's per-slot choices. Pure arithmetic: no allocation, no state.
func hash64(x uint64) uint64 { return stats.Mix64(x + 0x9e3779b97f4a7c15) }

// slotJitter returns the evader's phase offset for global slot i, in
// [0, JitterFrac×slot). Both ends of the channel call it with the same
// protocol, so the shifted slots stay aligned.
func (p Protocol) slotJitter(i int, slot uint64) uint64 {
	f := p.Evader.JitterFrac
	if f <= 0 {
		return 0
	}
	span := uint64(f * float64(slot))
	if span == 0 {
		return 0
	}
	return hash64(p.Seed^uint64(i)*0x9e3779b97f4a7c15) % span
}

// dutyGap returns the idle stretch the sender inserts after an op of
// the given latency so its event rate scales by DutyFrac: at duty d,
// rate×d means a gap of latency×(1-d)/d.
func (p Protocol) dutyGap(latency uint64) uint64 {
	d := p.Evader.DutyFrac
	if d <= 0 || d >= 1 {
		return 0
	}
	return uint64(float64(latency) * (1 - d) / d)
}

// dutySpacing inflates a fixed intra-burst event spacing by
// 1/DutyFrac, thinning the event rate to the duty cycle.
func (p Protocol) dutySpacing(spacing uint64) uint64 {
	d := p.Evader.DutyFrac
	if d <= 0 || d >= 1 {
		return spacing
	}
	return uint64(float64(spacing) / d)
}

// dutySkip reports whether the evader drops sub-unit n of slot i (a
// priming round, a probe): at duty d a pseudorandom (1-d) share of
// them is skipped, keyed so the pattern never repeats across slots.
func (p Protocol) dutySkip(i, n int) bool {
	d := p.Evader.DutyFrac
	if d <= 0 || d >= 1 {
		return false
	}
	x := hash64(p.Seed ^ uint64(i)<<32 ^ uint64(n))
	return float64(x>>11)/(1<<53) >= d
}

// validate panics on unusable protocol parameters: channel
// configurations are experiment code, not user input.
func (p Protocol) validate() {
	if len(p.Message) == 0 {
		panic("channels: empty message")
	}
	if p.BPS <= 0 {
		panic("channels: bandwidth must be positive")
	}
	for _, b := range p.Message {
		if b != 0 && b != 1 {
			panic("channels: message bits must be 0 or 1")
		}
	}
	p.Evader.validate()
}

// slotCycles returns the bit-slot length for the machine geometry.
func (p Protocol) slotCycles(geo sim.Geometry) uint64 {
	return uint64(float64(geo.ClockHz) / p.BPS)
}

// bitAt returns the bit transmitted in global slot index i.
func (p Protocol) bitAt(i int) (bit int, done bool) {
	if i < len(p.Message) {
		return p.Message[i], false
	}
	if !p.Repeat {
		return 0, true
	}
	return p.Message[i%len(p.Message)], false
}

// RandomMessage generates an n-bit random message — the experiments'
// stand-in for the paper's "randomly-chosen 64-bit credit card
// number".
func RandomMessage(n int, seed uint64) []int {
	return stats.NewRNG(seed).Bits(n)
}

// BitErrors counts positions where decoded differs from sent,
// comparing up to the shorter length and counting missing bits as
// errors.
func BitErrors(sent, decoded []int) int {
	errs := 0
	n := len(sent)
	if len(decoded) < n {
		errs += n - len(decoded)
		n = len(decoded)
	}
	for i := 0; i < n; i++ {
		if sent[i] != decoded[i] {
			errs++
		}
	}
	return errs
}
