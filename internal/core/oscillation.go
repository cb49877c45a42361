package core

import (
	"context"

	"cchunter/internal/pool"
	"cchunter/internal/stats"
	"cchunter/internal/trace"
)

// OscillationConfig tunes the oscillatory pattern detector (§IV-D).
type OscillationConfig struct {
	// MaxLag bounds the autocorrelogram (paper plots go to lag 1000).
	MaxLag int
	// MinLag ignores trivially short periods, which benign tight
	// loops produce in abundance.
	MinLag int
	// PeakThreshold is the minimum autocorrelation coefficient for a
	// peak to count as significant. The paper's channels peak at
	// 0.85–0.95; benign programs stay well below.
	PeakThreshold float64
	// HarmonicTolerance is the relative lag tolerance when matching
	// harmonics of the fundamental period (random conflicts shift the
	// paper's 512-set peak to lag 533, ~4%).
	HarmonicTolerance float64
	// MinHarmonics is how many periodic peaks (fundamental included)
	// must be present for sustained periodicity. Requiring ≥2 rejects
	// the paper's webserver case, whose brief periodicity dies past
	// lag 180.
	MinHarmonics int
	// MinProminence is how far a candidate peak must rise above the
	// lowest autocorrelation at any smaller lag. Benign run-length
	// correlation decays slowly from lag 0 and its wiggles sit on a
	// high shoulder (near-zero prominence); a true oscillation's peak
	// climbs from a deep valley (the anti-phase at half its period).
	MinProminence float64
	// MinCoupleShare is the minimum fraction of the train's events a
	// context couple must contribute before it is worth
	// autocorrelating (a covert channel's endpoints dominate their
	// train; couples below this share cannot carry a usable channel
	// within the window).
	MinCoupleShare float64
	// RawPairSeries selects the paper's original series formulation:
	// one series over all events, each labelled with its unique
	// ordered-pair identifier (§IV-D). Interleaved noise events then
	// carry labels far from the series mean and dilute the
	// autocorrelation — which is why the paper needs finer observation
	// windows for low-bandwidth channels (Figure 11). The default
	// (false) projects each candidate couple onto a ±1/0 series, which
	// is invariant to the amplitude of interleaved noise and only
	// sees its phase stretch; the ablation benchmarks compare the two.
	RawPairSeries bool
	// SegmentLen, when positive, switches the correlogram to the
	// segmented Wiener–Khinchin estimate: Bartlett-averaged
	// autocorrelograms over fixed-size chunks. The streaming daemon
	// uses it for mid-window interim verdicts — each chunk costs
	// O(SegmentLen log SegmentLen) and nothing ever transforms the
	// whole series. It is an estimate; final (and batch) analyses leave
	// it zero and compute the exact §IV-D statistic.
	SegmentLen int
}

// DefaultOscillationConfig returns parameters matching the paper's
// plots.
func DefaultOscillationConfig() OscillationConfig {
	return OscillationConfig{
		MaxLag:            1000,
		MinLag:            8,
		PeakThreshold:     0.5,
		HarmonicTolerance: 0.15,
		MinHarmonics:      2,
		MinProminence:     0.2,
		MinCoupleShare:    0.05,
	}
}

// OscillationAnalysis is the outcome of one oscillation analysis.
type OscillationAnalysis struct {
	// Pair is the unordered context couple whose event series showed
	// the strongest (or, failing detection, the most) structure.
	Pair [2]uint8
	// Autocorrelogram holds r_p for lags 0..MaxLag of the best
	// couple's label series (Figure 8b).
	Autocorrelogram []float64
	// Peaks are the significant local maxima.
	Peaks []stats.Peak
	// FundamentalLag is the lag of the strongest significant peak —
	// for a cache channel, approximately the number of cache sets used
	// for covert communication (plus an offset from interleaved
	// noise, as in the paper's 533 vs 512).
	FundamentalLag int
	// PeakValue is the autocorrelation at the fundamental lag.
	PeakValue float64
	// Harmonics counts significant peaks at (approximate) multiples of
	// the fundamental, itself included.
	Harmonics int
	// Events is the number of conflict-miss entries in the analyzed
	// window.
	Events int
	// Detected reports sustained periodicity: a covert timing channel
	// on the monitored cache.
	Detected bool
}

// AnalyzeOscillation runs the oscillatory pattern detector over a
// conflict-miss train (normally one observation window's worth — an OS
// time quantum, or a fraction of one for low-bandwidth channels, per
// §VI-A).
//
// Every conflict miss carries its ordered (replacer → victim) pair
// identifier. For each context couple {a, b} with a non-trivial share
// of the window, the train is mapped to a label series — +1 for a→b,
// −1 for b→a, 0 for events of other pairs (which thereby stretch the
// apparent period, exactly the paper's lag-533-for-512-sets effect) —
// and the series is autocorrelated. The strongest couple is reported.
// Every autocorrelation runs in ws, so analyzing many couples and
// windows in sequence allocates no per-call scratch.
func AnalyzeOscillation(train *trace.Train, cfg OscillationConfig, ws *Workspace) OscillationAnalysis {
	var out OscillationAnalysis
	if train == nil {
		return out
	}
	out.Events = train.Len()
	if out.Events < 4 {
		return out
	}
	if cfg.RawPairSeries {
		series := appearanceOrderSeries(train)
		out = analyzeSeries(series, cfg, &ws.acf)
		pool.PutFloat64s(series)
		out.Pair = dominantCouple(train)
		out.Events = train.Len()
		return out
	}
	minEvents := int(cfg.MinCoupleShare * float64(out.Events))
	if minEvents < 4 {
		minEvents = 4
	}
	for _, couple := range coupleCounts(train, minEvents) {
		a := analyzeCouple(train, couple, cfg, &ws.acf)
		if better(a, out) {
			// The dethroned analysis's correlogram is dead scratch now:
			// recycle it. The winner's transfers out of the pool with the
			// returned analysis and is never Put.
			pool.PutFloat64s(out.Autocorrelogram)
			out = a
		} else {
			pool.PutFloat64s(a.Autocorrelogram)
		}
	}
	out.Events = train.Len()
	return out
}

// ctxSlot maps a context id (or trace.NoContext) to its coordinate in
// the 16×16 flat pattern tables below. NoContext takes the last slot;
// real ids 15 and above do not fit and send the caller to the
// map-based reference build.
func ctxSlot(v uint8) (int, bool) {
	if v < 15 {
		return int(v), true
	}
	if v == trace.NoContext {
		return 15, true
	}
	return 0, false
}

// appearanceOrderSeries maps each event to its ordered pair's
// identifier, assigning identifiers in order of first appearance —
// the paper's "S→T is assigned '0' and T→S is assigned '1'". The
// transmitting pair's two directions dominate the window and thus get
// the small, adjacent identifiers. The returned series is pooled; the
// caller returns it after analysis.
//
// Identifiers live in a flat 256-entry table (16×16 ordered pairs,
// NoContext folded into the last slot) instead of a map: zeroing 512
// bytes replaces the per-window map allocation and per-pair hashing.
// appearanceOrderSeriesRef is the retained map build — the
// differential reference, and the fallback for machines with contexts
// the flat table cannot index.
func appearanceOrderSeries(train *trace.Train) []float64 {
	var ids [256]int16
	for i := range ids {
		ids[i] = -1
	}
	out := pool.Float64s(train.Len())
	next := int16(0)
	for i, e := range train.Events() {
		ai, okA := ctxSlot(e.Actor)
		vi, okV := ctxSlot(e.Victim)
		if !okA || !okV {
			pool.PutFloat64s(out)
			return appearanceOrderSeriesRef(train)
		}
		idx := ai<<4 | vi
		id := ids[idx]
		if id < 0 {
			id = next
			ids[idx] = id
			next++
		}
		out[i] = float64(id)
	}
	return out
}

// appearanceOrderSeriesRef is the original map-based build of
// appearanceOrderSeries, kept as the differential reference (first
// appearance assigns the next identifier — identical to the flat scan)
// and as the fallback for out-of-range context ids.
func appearanceOrderSeriesRef(train *trace.Train) []float64 {
	ids := make(map[[2]uint8]int)
	out := pool.Float64s(train.Len())
	for i, e := range train.Events() {
		key := [2]uint8{e.Actor, e.Victim}
		id, ok := ids[key]
		if !ok {
			id = len(ids)
			ids[key] = id
		}
		out[i] = float64(id)
	}
	return out
}

// dominantCouple reports the couple with the most events, for raw-mode
// attribution. Counts accumulate in a flat 16×16 table; the ascending
// (a, b) scan with a strict > keeps the smallest couple among count
// ties, exactly the reference's max-count-then-less ordering.
func dominantCouple(train *trace.Train) [2]uint8 {
	var counts [256]int
	for _, e := range train.Events() {
		if e.Victim == trace.NoContext || e.Victim == e.Actor {
			continue
		}
		a, b := e.Actor, e.Victim
		if a > b {
			a, b = b, a
		}
		if b >= 15 { // b = max(a, b): one compare guards both ids
			return dominantCoupleRef(train)
		}
		counts[int(a)<<4|int(b)]++
	}
	var best [2]uint8
	bestN := 0
	for a := 0; a < 15; a++ {
		for b := a + 1; b < 15; b++ {
			if n := counts[a<<4|b]; n > bestN {
				best, bestN = [2]uint8{uint8(a), uint8(b)}, n
			}
		}
	}
	return best
}

// dominantCoupleRef is the original map-based dominantCouple, kept as
// the differential reference and the wide-machine fallback.
func dominantCoupleRef(train *trace.Train) [2]uint8 {
	counts := make(map[[2]uint8]int)
	for _, e := range train.Events() {
		if e.Victim == trace.NoContext || e.Victim == e.Actor {
			continue
		}
		a, b := e.Actor, e.Victim
		if a > b {
			a, b = b, a
		}
		counts[[2]uint8{a, b}]++
	}
	var best [2]uint8
	bestN := 0
	for c, n := range counts {
		if n > bestN || (n == bestN && less(c, best)) {
			best, bestN = c, n
		}
	}
	return best
}

// better orders analyses: detected beats undetected; then higher peak.
func better(a, b OscillationAnalysis) bool {
	if a.Detected != b.Detected {
		return a.Detected
	}
	return a.PeakValue > b.PeakValue
}

// BetterOscillation reports whether a is a stronger analysis than b
// under the exact ordering BestWindow uses. The streaming daemon folds
// its per-window analyses through this incrementally, so its running
// "best window" is the one a batch BestWindow call over the same
// window sequence would pick.
func BetterOscillation(a, b OscillationAnalysis) bool { return better(a, b) }

// coupleCounts returns the unordered context couples with at least
// minEvents events (both directions combined) in the train. Counts
// accumulate in a flat 16×16 table whose ascending scan emits couples
// already in less() order — the reference's insertion sort, for free.
func coupleCounts(train *trace.Train, minEvents int) [][2]uint8 {
	var counts [256]int
	for _, e := range train.Events() {
		if e.Victim == trace.NoContext || e.Victim == e.Actor {
			continue
		}
		a, b := e.Actor, e.Victim
		if a > b {
			a, b = b, a
		}
		if b >= 15 {
			return coupleCountsRef(train, minEvents)
		}
		counts[int(a)<<4|int(b)]++
	}
	var out [][2]uint8
	for a := 0; a < 15; a++ {
		for b := a + 1; b < 15; b++ {
			if counts[a<<4|b] >= minEvents {
				out = append(out, [2]uint8{uint8(a), uint8(b)})
			}
		}
	}
	return out
}

// coupleCountsRef is the original map-based coupleCounts, kept as the
// differential reference and the wide-machine fallback.
func coupleCountsRef(train *trace.Train, minEvents int) [][2]uint8 {
	counts := make(map[[2]uint8]int)
	for _, e := range train.Events() {
		if e.Victim == trace.NoContext || e.Victim == e.Actor {
			continue
		}
		a, b := e.Actor, e.Victim
		if a > b {
			a, b = b, a
		}
		counts[[2]uint8{a, b}]++
	}
	var out [][2]uint8
	for c, n := range counts {
		if n >= minEvents {
			out = append(out, c)
		}
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func less(a, b [2]uint8) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// analyzeCouple autocorrelates one couple's ±1/0 label series. The
// series is pooled scratch: it is dead once analyzeSeries has copied
// out everything the analysis keeps.
func analyzeCouple(train *trace.Train, couple [2]uint8, cfg OscillationConfig, w *stats.Workspace) OscillationAnalysis {
	series := pool.Float64s(train.Len())
	for i, e := range train.Events() {
		switch {
		case e.Actor == couple[0] && e.Victim == couple[1]:
			series[i] = 1
		case e.Actor == couple[1] && e.Victim == couple[0]:
			series[i] = -1
		}
	}
	out := analyzeSeries(series, cfg, w)
	pool.PutFloat64s(series)
	out.Pair = couple
	out.Events = train.Len()
	return out
}

// analyzeSeries runs the peak/prominence/harmonic machinery over one
// label series, autocorrelating it in w.
func analyzeSeries(series []float64, cfg OscillationConfig, w *stats.Workspace) OscillationAnalysis {
	var out OscillationAnalysis
	maxLag := cfg.MaxLag
	if maxLag <= 0 {
		maxLag = 1000
	}
	if maxLag > len(series)-1 {
		maxLag = len(series) - 1
	}
	// The workspace owns the slice it returns and will overwrite it on
	// its next use; OscillationAnalysis outlives that, so copy — into a
	// pooled buffer, which AnalyzeOscillation recycles when this
	// analysis loses the couple comparison.
	var acf []float64
	if cfg.SegmentLen > 0 {
		acf = w.SegmentedAutocorrelogram(series, cfg.SegmentLen, maxLag)
	} else {
		acf = w.Autocorrelogram(series, maxLag)
	}
	out.Autocorrelogram = pool.Float64s(len(acf))
	copy(out.Autocorrelogram, acf)
	out.Peaks = stats.Peaks(out.Autocorrelogram, cfg.PeakThreshold)
	// Track the running minimum so each candidate peak's prominence
	// (rise above the deepest preceding valley) is available in one
	// pass. Pooled scratch, dead once the peak loop below finishes.
	runMin := pool.Float64s(len(out.Autocorrelogram))
	low := 1.0
	for lag := 1; lag < len(out.Autocorrelogram); lag++ {
		if out.Autocorrelogram[lag] < low {
			low = out.Autocorrelogram[lag]
		}
		runMin[lag] = low
	}
	for _, p := range out.Peaks {
		if p.Lag < cfg.MinLag {
			continue
		}
		if p.Value-runMin[p.Lag] < cfg.MinProminence {
			continue // wiggle on a decay shoulder, not an oscillation
		}
		if p.Value > out.PeakValue {
			out.FundamentalLag = p.Lag
			out.PeakValue = p.Value
		}
	}
	pool.PutFloat64s(runMin)
	if out.FundamentalLag == 0 {
		return out
	}
	out.Harmonics = countHarmonics(series, out.Autocorrelogram, out.FundamentalLag, cfg, w)
	out.Detected = out.Harmonics >= cfg.MinHarmonics
	return out
}

// countHarmonics counts multiples m×fundamental (m = 1, 2, ...) at
// which the label series shows a significant autocorrelation peak,
// scanning within the tolerance band around each multiple. Lags inside
// the precomputed correlogram are read from it; harmonics beyond
// MaxLag (a long fundamental in a short plot) are verified with
// targeted autocorrelation probes that reuse the centered copy and
// energy the correlogram pass just left in w (bit-identical to the
// coefficient computed from scratch, none of the per-lag mean/energy
// rework).
// Periodicity must be sustained, so counting stops at the first
// missing harmonic; harmonics the series is too short to verify cannot
// be counted.
func countHarmonics(series, acf []float64, fundamental int, cfg OscillationConfig, w *stats.Workspace) int {
	count := 0
	for m := 1; ; m++ {
		center := m * fundamental
		tol := int(float64(center) * cfg.HarmonicTolerance)
		if tol < 2 {
			tol = 2
		}
		if center-tol >= len(series) {
			break
		}
		// Harmonics decay with lag; accept a gentle relaxation of the
		// threshold for higher multiples.
		need := cfg.PeakThreshold
		if m > 1 {
			need *= 0.8
		}
		probe := func(lag int) bool {
			if lag < len(acf) {
				return acf[lag] >= need
			}
			// The workspace's centered buffer still holds this series:
			// analyzeSeries probes harmonics immediately after its
			// Autocorrelogram call.
			return w.CenteredAutocorrelation(lag) >= need
		}
		// The harmonic passes iff any lag in the band clears need — a
		// property of the set of band lags, indifferent to scan order.
		// A present harmonic peaks at or near the exact multiple, so
		// scanning outward from the center finds a clearing lag in O(1)
		// probes instead of sweeping the whole band; an absent harmonic
		// (the terminating case) still probes every lag once.
		lo, hi := center-tol, center+tol
		if lo < 1 {
			lo = 1
		}
		if hi >= len(series) {
			hi = len(series) - 1
		}
		c0 := center
		if c0 > hi {
			c0 = hi
		}
		if c0 < lo {
			c0 = lo
		}
		cleared := false
		for off := 0; !cleared; off++ {
			up, down := c0+off, c0-off
			inUp, inDown := up <= hi, off > 0 && down >= lo
			if !inUp && !inDown {
				break
			}
			if inUp && probe(up) {
				cleared = true
			}
			if !cleared && inDown && probe(down) {
				cleared = true
			}
		}
		if cleared {
			count++
		} else {
			break
		}
	}
	return count
}

// AnalyzeOscillationWindows slices [start, end) of the train into
// observation windows of the given length in cycles (§VI-A's
// finer-granularity analysis: fractions of an OS time quantum; the last
// window may be short), analyzes every non-empty window independently
// in ws, and hands each analysis to fold with its window's start cycle,
// in order. It is the one observation-window loop: the batch detector,
// the streaming daemon's final flush and Figure 11 all run it. ctx is
// checked before each window; once it is done the loop stops and
// returns ctx.Err().
func AnalyzeOscillationWindows(ctx context.Context, train *trace.Train, start, end, window uint64, cfg OscillationConfig, ws *Workspace, fold func(start uint64, a OscillationAnalysis)) error {
	if train == nil || window == 0 {
		return nil
	}
	for lo := start; lo < end; lo += window {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w := train.Window(lo, min(lo+window, end)); w.Len() > 0 {
			fold(lo, AnalyzeOscillation(w, cfg, ws))
		}
	}
	return nil
}

// BestWindow returns the analysis with the strongest detected
// periodicity (highest peak among detected windows, falling back to
// the highest peak overall). ok is false for an empty slice.
func BestWindow(analyses []OscillationAnalysis) (best OscillationAnalysis, ok bool) {
	for _, a := range analyses {
		if !ok {
			best, ok = a, true
			continue
		}
		if better(a, best) {
			best = a
		}
	}
	return best, ok
}
