// Package cchunter is a from-scratch reproduction of "CC-Hunter:
// Uncovering Covert Timing Channels on Shared Processor Hardware"
// (Chen & Venkataramani, MICRO 2014).
//
// The library bundles three layers:
//
//   - a deterministic discrete-event simulator of an SMT multicore
//     (internal/sim) with the shared hardware the paper's channels
//     exploit: a lockable memory bus, per-core integer dividers, and a
//     hyperthread-shared L2 cache with conflict-miss tracking;
//   - the CC-Auditor hardware model (internal/auditor): event density
//     histogram buffers and conflict-miss vector registers;
//   - the detection algorithms (internal/core): recurrent burst
//     pattern detection and oscillatory pattern detection.
//
// The public API is Scenario: describe a machine, optionally a covert
// channel (memory bus, integer divider, or shared cache) with its
// bandwidth and message, plus benign workloads — then Run it and
// inspect the Result's detection Report and raw observables.
//
//	msg := cchunter.RandomMessage(64, 1)
//	res, err := cchunter.Scenario{
//		Channel:      cchunter.ChannelMemoryBus,
//		BandwidthBPS: 1000,
//		Message:      msg,
//	}.Run()
//
// Every run is bit-for-bit reproducible for a given Scenario: the
// simulator has no dependence on wall-clock time or the Go runtime's
// scheduling.
package cchunter

import (
	"cchunter/internal/channels"
	"cchunter/internal/stats"
)

// Channel selects which covert timing channel a scenario runs.
type Channel string

// The covert channels the paper evaluates, plus ChannelNone for
// benign/false-alarm scenarios and two post-paper channels on the same
// detection machinery: the slotted ring interconnect (cross-core slice
// traffic) and the hyperthread-shared TLB (accessed-translation
// evictions).
const (
	ChannelNone             Channel = "none"
	ChannelMemoryBus        Channel = "bus"
	ChannelIntegerDivider   Channel = "divider"
	ChannelSharedCache      Channel = "cache"
	ChannelRingInterconnect Channel = "ring"
	ChannelTLB              Channel = "tlb"
)

// ChannelNames lists the channel names a Scenario accepts: one per row
// of the channel table, then ChannelNone.
func ChannelNames() []string {
	names := make([]string, 0, len(channels.Table)+1)
	for _, ch := range channels.Table {
		names = append(names, ch.Name)
	}
	return append(names, string(ChannelNone))
}

// RandomMessage generates an n-bit random message, the experiments'
// stand-in for the paper's randomly-chosen 64-bit credit card number.
func RandomMessage(n int, seed uint64) []int {
	return channels.RandomMessage(n, seed)
}

// Uint64Message encodes a 64-bit value as bits, MSB first.
func Uint64Message(v uint64) []int {
	return stats.Uint64Bits(v)
}

// BitErrors counts positions where decoded differs from sent.
func BitErrors(sent, decoded []int) int {
	return channels.BitErrors(sent, decoded)
}
