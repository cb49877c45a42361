package stats

// Peak describes a local maximum in an autocorrelogram.
type Peak struct {
	Lag   int     // lag at which the peak occurs
	Value float64 // autocorrelation coefficient at the peak
}

// Peaks returns the local maxima of an autocorrelogram whose value is at
// least minValue, skipping lag 0 (which is trivially 1). A point is a
// local maximum when it is strictly greater than its left neighbour and
// at least its right neighbour; plateaus report their left edge.
func Peaks(acf []float64, minValue float64) []Peak {
	var out []Peak
	for i := 1; i < len(acf); i++ {
		left := acf[i-1]
		right := left // treat the series end as a falling edge
		if i+1 < len(acf) {
			right = acf[i+1]
		}
		if acf[i] > left && acf[i] >= right && acf[i] >= minValue {
			out = append(out, Peak{Lag: i, Value: acf[i]})
		}
	}
	return out
}
