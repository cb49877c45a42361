package stats

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-width integer histogram over event densities: bin
// i counts how many Δt observation windows contained exactly i events
// (or, for densities past the last bin, are clamped into it). It mirrors
// the CC-Auditor's 128-entry histogram buffer but is not bounded to 128
// bins so the software analysis can work at any resolution.
type Histogram struct {
	bins []uint64
	// clamped counts windows whose density exceeded the highest bin;
	// they are folded into the last bin but remembered so analyses can
	// tell saturation from genuine mass at the top.
	clamped uint64
	// invalid counts observations rejected as impossible (negative
	// densities). They carry no mass; a corrupted sensor path degrades
	// the record, it must not crash the detector.
	invalid uint64
}

// NewHistogram returns a histogram with the given number of bins; a
// non-positive count is clamped to one bin (every density then records
// as clamped mass — degraded, never crashed).
func NewHistogram(bins int) *Histogram {
	if bins <= 0 {
		bins = 1
	}
	return &Histogram{bins: make([]uint64, bins)}
}

// Add records one observation window containing density events.
// Negative densities are counted as invalid and otherwise ignored:
// densities are counts, and a value that cannot be a count is sensor
// corruption, not mass.
func (h *Histogram) Add(density int) {
	if density < 0 {
		h.invalid++
		return
	}
	if density >= len(h.bins) {
		h.clamped++
		density = len(h.bins) - 1
	}
	h.bins[density]++
}

// AddAll records one observation window per density — the bulk fill
// for density slices. The hot loop is unrolled four-wide: a group of
// four in-range densities costs four array bumps and a single combined
// range check, and only groups containing a negative or clamped value
// fall back to the scalar path. Equivalent to calling Add per element.
func (h *Histogram) AddAll(densities []int) {
	bins := h.bins
	top := len(bins)
	i := 0
	for ; i+4 <= len(densities); i += 4 {
		d0, d1, d2, d3 := densities[i], densities[i+1], densities[i+2], densities[i+3]
		// A negative value sets the sign bit of the OR; a clamped one
		// fails the max comparison. Either sends the group scalar.
		if d0|d1|d2|d3 >= 0 && d0 < top && d1 < top && d2 < top && d3 < top {
			bins[d0]++
			bins[d1]++
			bins[d2]++
			bins[d3]++
			continue
		}
		h.Add(d0)
		h.Add(d1)
		h.Add(d2)
		h.Add(d3)
	}
	for ; i < len(densities); i++ {
		h.Add(densities[i])
	}
}

// AddN records n observation windows at the same density.
func (h *Histogram) AddN(density int, n uint64) {
	if density < 0 {
		h.invalid += n
		return
	}
	if density >= len(h.bins) {
		h.clamped += n
		density = len(h.bins) - 1
	}
	h.bins[density] += n
}

// Bins returns a copy of the bin counts.
func (h *Histogram) Bins() []uint64 {
	return append([]uint64(nil), h.bins...)
}

// Bin returns the count in bin i, or 0 when i is out of range.
func (h *Histogram) Bin(i int) uint64 {
	if i < 0 || i >= len(h.bins) {
		return 0
	}
	return h.bins[i]
}

// NumBins returns the number of bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// Clamped returns how many observations exceeded the top bin.
func (h *Histogram) Clamped() uint64 { return h.clamped }

// Invalid returns how many observations were rejected as impossible
// (negative densities from a corrupted path).
func (h *Histogram) Invalid() uint64 { return h.invalid }

// Total returns the number of recorded observation windows.
func (h *Histogram) Total() uint64 {
	var t uint64
	for _, b := range h.bins {
		t += b
	}
	return t
}

// TotalFrom returns the number of windows with density >= from.
func (h *Histogram) TotalFrom(from int) uint64 {
	if from < 0 {
		from = 0
	}
	var t uint64
	for i := from; i < len(h.bins); i++ {
		t += h.bins[i]
	}
	return t
}

// Reset clears all bins.
func (h *Histogram) Reset() {
	for i := range h.bins {
		h.bins[i] = 0
	}
	h.clamped = 0
	h.invalid = 0
}

// Merge adds other's bins into h. Histograms of equal depth merge
// exactly. When other is deeper, its out-of-range mass folds into h's
// top bin and counts as clamped — the same degradation Add applies to
// an over-deep density. When other is shallower, its bins land where
// they are; only mass at other's own top bin may under-report the true
// density, which other's clamped tally already records.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i, b := range other.bins {
		if i >= len(h.bins) {
			h.bins[len(h.bins)-1] += b
			h.clamped += b
			continue
		}
		h.bins[i] += b
	}
	h.clamped += other.clamped
	h.invalid += other.invalid
}

// Unmerge subtracts other's bins from h — the inverse of a prior
// equal-depth Merge(other). The streaming daemon's sliding window
// keeps one merged histogram over the last N quanta and evicts the
// oldest quantum in O(bins) with this instead of re-merging the whole
// window. Both histograms must have the same depth and other must have
// been merged into h earlier (counts never go negative; a violation
// clamps at zero rather than wrapping).
func (h *Histogram) Unmerge(other *Histogram) {
	if other == nil || len(other.bins) != len(h.bins) {
		return
	}
	for i, b := range other.bins {
		if b > h.bins[i] {
			h.bins[i] = 0
			continue
		}
		h.bins[i] -= b
	}
	if other.clamped > h.clamped {
		h.clamped = 0
	} else {
		h.clamped -= other.clamped
	}
	if other.invalid > h.invalid {
		h.invalid = 0
	} else {
		h.invalid -= other.invalid
	}
}

// NonZeroMax returns the highest bin index with a non-zero count, or -1
// when the histogram is empty.
func (h *Histogram) NonZeroMax() int {
	for i := len(h.bins) - 1; i >= 0; i-- {
		if h.bins[i] != 0 {
			return i
		}
	}
	return -1
}

// MeanDensity returns the mean event density across all windows.
func (h *Histogram) MeanDensity() float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	var s float64
	for i, b := range h.bins {
		s += float64(float64(i) * float64(b))
	}
	return s / float64(total)
}

// MeanDensityFrom returns the mean density restricted to bins >= from.
// The burst detector uses this to check that the second distribution's
// mean sits above 1.0 (§IV-B step 3).
func (h *Histogram) MeanDensityFrom(from int) float64 {
	if from < 0 {
		from = 0
	}
	var s, n float64
	for i := from; i < len(h.bins); i++ {
		s += float64(float64(i) * float64(h.bins[i]))
		n += float64(h.bins[i])
	}
	if n == 0 {
		return 0
	}
	return s / n
}

// Floats returns the bin counts as float64s, convenient for the curve
// and correlation helpers.
func (h *Histogram) Floats() []float64 {
	out := make([]float64, len(h.bins))
	for i, b := range h.bins {
		out[i] = float64(b)
	}
	return out
}

// String renders a compact ASCII sketch of the histogram, useful in test
// failures and the cctrace tool.
func (h *Histogram) String() string {
	top := h.NonZeroMax()
	if top < 0 {
		return "Histogram{empty}"
	}
	var max uint64
	for _, b := range h.bins[:top+1] {
		if b > max {
			max = b
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Histogram{total=%d", h.Total())
	if h.clamped > 0 {
		fmt.Fprintf(&sb, " clamped=%d", h.clamped)
	}
	sb.WriteString("}\n")
	for i := 0; i <= top; i++ {
		bar := 0
		if max > 0 {
			bar = int(h.bins[i] * 40 / max)
		}
		fmt.Fprintf(&sb, "%4d | %-40s %d\n", i, strings.Repeat("#", bar), h.bins[i])
	}
	return sb.String()
}
