// Package bench is the repository benchmark: three workloads driven
// through the public entry points of the cchunter module (Scenario.Run,
// flight replay, the auditor/detector pair, and the fleet daemon), each
// timed untraced, checked against a committed verdict reference, and
// optionally re-run traced to attribute host time to layers.
//
// The scenario lists live here rather than in internal/experiments, so
// editing a figure cannot silently change what the benchmark measures.
package bench

import (
	"fmt"
	"time"

	"cchunter"
	"cchunter/internal/fleet"
)

// Workload names, as passed to --workload.
const (
	Frontier  = "frontier"
	BenignMix = "benign-mix"
	Fleet     = "fleet"
)

// Workloads lists every workload in the order BENCHMARK.json names them.
var Workloads = []string{Frontier, BenignMix, Fleet}

// Cell is one named scenario of a scenario workload.
type Cell struct {
	Name     string
	Scenario cchunter.Scenario
}

// frontierSettings is the adaptive-evader grid of the detection-vs-
// evasion frontier: the full-amplitude baseline, four amplitude duty
// cycles down to deep starvation, and two period jitters.
var frontierSettings = []struct{ Jitter, Duty float64 }{
	{0, 0}, {0, 0.125}, {0, 0.06}, {0, 0.03}, {0, 0.002}, {0.2, 0}, {0.5, 0},
}

// frontierChannels are the five modelled covert channels.
var frontierChannels = []cchunter.Channel{
	cchunter.ChannelMemoryBus,
	cchunter.ChannelIntegerDivider,
	cchunter.ChannelSharedCache,
	cchunter.ChannelRingInterconnect,
	cchunter.ChannelTLB,
}

// FrontierCells is the evasion figure at time scale 2000: four bus
// camouflage-noise rows, then every channel under every evader setting
// (39 scenarios). The scenario seed is the workload seed itself; the
// messages are balanced (see BalancedMessage), so every seed sends as
// many 1-bits as any other and costs about as much to simulate.
func FrontierCells(seed uint64) []Cell {
	var cells []Cell
	for _, noise := range []float64{0, 0.25, 0.5, 1} {
		cells = append(cells, Cell{
			Name: fmt.Sprintf("noise%g", noise),
			Scenario: cchunter.Scenario{
				Channel:        cchunter.ChannelMemoryBus,
				BandwidthBPS:   2500,
				Message:        BalancedMessage(32, seed),
				QuantumCycles:  100_000_000,
				DurationQuanta: 2,
				EvasionNoise:   noise,
				Seed:           seed,
			},
		})
	}
	for _, ch := range frontierChannels {
		for _, set := range frontierSettings {
			sc := cchunter.Scenario{
				Channel:      ch,
				Seed:         seed,
				EvaderJitter: set.Jitter,
				EvaderDuty:   set.Duty,
			}
			if ch == cchunter.ChannelSharedCache {
				sc.BandwidthBPS = 1000
				sc.QuantumCycles = 25_000_000
				sc.CacheSets = 256
				sc.Message = BalancedMessage(10, seed)
			} else {
				sc.BandwidthBPS = 2500
				sc.QuantumCycles = 100_000_000
				sc.DurationQuanta = 2
				sc.Message = BalancedMessage(16, seed)
			}
			cells = append(cells, Cell{
				Name:     fmt.Sprintf("%s/j%g-d%g", ch, set.Jitter, set.Duty),
				Scenario: sc,
			})
		}
	}
	return cells
}

// benignPrograms are the benign workloads a mix draws from.
var benignPrograms = []string{
	"bzip2", "gobmk", "h264ref", "mailserver", "mcf", "sjeng", "stream", "tenant", "webserver",
}

// benignMixes and benignQuanta size the benign-mix workload: one mix
// per program left out, each filling all eight hardware contexts for
// eight 25M-cycle quanta.
const (
	benignMixes   = 9
	benignQuanta  = 8
	benignPerMix  = 8
	benignQuantum = 25_000_000
)

// BenignCells is the no-channel workload: mix i runs the eight programs
// that follow the i-th one in benignPrograms (wrapping), so every
// program is left out of exactly one mix and runs in every context
// position once. The expected verdict of every mix is "not detected".
func BenignCells(seed uint64) []Cell {
	cells := make([]Cell, 0, benignMixes)
	for i := 0; i < benignMixes; i++ {
		progs := make([]string, benignPerMix)
		for k := range progs {
			progs[k] = benignPrograms[(i+1+k)%len(benignPrograms)]
		}
		cells = append(cells, Cell{
			Name: fmt.Sprintf("mix%d", i),
			Scenario: cchunter.Scenario{
				Channel:        cchunter.ChannelNone,
				Workloads:      progs,
				DurationQuanta: benignQuanta,
				QuantumCycles:  benignQuantum,
				Seed:           DeriveSeed(seed, uint64(i)),
			},
		})
	}
	return cells
}

// The fleet workload runs the cchuntd pipeline at the daemon's default
// epoch, interim, batch, watchdog, quantum and tenant settings.
const (
	fleetStreams      = 512
	fleetEpochs       = 1
	fleetEpochQuanta  = 32
	fleetInterimEvery = 8
	fleetBatchEvents  = 512
	fleetQuantum      = 100_000
	fleetTenants      = 2
	fleetWatchdog     = 30 * time.Second
	// fleetFlightEvents is the traced run's per-stream flight ring. A
	// divider stream, the densest covert profile, emits about 13.4k
	// events per epoch (16 burst quanta at one event per ~120 cycles).
	fleetFlightEvents = 1 << 14
)

// fleetMinEventGap is the smallest cycle gap between two consecutive
// events any fleet source profile can emit: the divider profile's burst
// quanta advance its clock by 60 + rng%120 cycles per event.
const fleetMinEventGap = 60

// FleetMaxBatchesPerEpoch bounds how many queue entries one stream can
// enqueue in an epoch: at most ceil(quantum/minGap) events per quantum,
// cut into batches of batchEvents, plus one interim control entry per
// interim point.
func FleetMaxBatchesPerEpoch(cfg fleet.Config) int {
	eventsPerQuantum := int((cfg.Quantum + fleetMinEventGap - 1) / fleetMinEventGap)
	batchesPerQuantum := (eventsPerQuantum + cfg.BatchEvents - 1) / cfg.BatchEvents
	interims := 0
	if cfg.InterimEvery > 0 {
		interims = (cfg.EpochQuanta - 1) / cfg.InterimEvery
	}
	return cfg.EpochQuanta*batchesPerQuantum + interims
}

// FleetConfig is the fleet workload's configuration: one producer
// goroutine (host) per usable CPU, at least fleetStreams streams, covert
// traffic on every fourth stream plus the split pair, and per-stream
// queues deep enough to hold a whole epoch, so no event can shed.
func FleetConfig(seed uint64, hosts int) fleet.Config {
	if hosts < 1 {
		hosts = 1
	}
	cfg := fleet.Config{
		Hosts:          hosts,
		StreamsPerHost: (fleetStreams + hosts - 1) / hosts,
		Tenants:        fleetTenants,
		Quantum:        fleetQuantum,
		EpochQuanta:    fleetEpochQuanta,
		InterimEvery:   fleetInterimEvery,
		BatchEvents:    fleetBatchEvents,
		CovertEvery:    4,
		SplitPair:      true,
		Seed:           DeriveSeed(seed, 0xf1ee7),
		Watchdog:       fleetWatchdog,
	}
	cfg.QueueLen = FleetMaxBatchesPerEpoch(cfg)
	return cfg
}

// BalancedMessage is an n-bit message with n/2 ones, in an order
// shuffled by seed. A trojan works (and the auditor records events)
// mostly on its 1-bits: with free random messages the full-amplitude
// ring cells alone record 1.3M events on one seed and 1.8M on another,
// so the frontier's cost would follow the seed more than the code.
func BalancedMessage(n int, seed uint64) []int {
	bits := make([]int, n)
	for i := range bits {
		bits[i] = i % 2
	}
	for i := n - 1; i > 0; i-- { // Fisher-Yates
		j := int(DeriveSeed(seed, uint64(i)) % uint64(i+1))
		bits[i], bits[j] = bits[j], bits[i]
	}
	return bits
}

// DeriveSeed mixes the workload seed with a coordinate, splitmix64
// style, so every derived scenario or fleet seed is a pure function of
// the seed passed on the command line.
func DeriveSeed(seed, k uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(k+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
