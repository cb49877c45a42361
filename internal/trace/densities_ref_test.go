package trace

import (
	"reflect"
	"testing"
)

// TestDensitiesMatchesReference pins the density fill against a
// per-event reference count for assorted window alignments: ranges
// that start and end off the Δt grid, a partial trailing window kept
// or dropped, Δt of one cycle, and an empty range.
func TestDensitiesMatchesReference(t *testing.T) {
	tr := NewTrain(0)
	cycle := uint64(0)
	for i := 0; i < 500; i++ {
		tr.Append(Event{Cycle: cycle})
		cycle += uint64(1 + (i*7)%97)
	}
	for _, tc := range []struct {
		start, end, dt uint64
		partial        bool
	}{
		{0, cycle, 100, false},
		{0, cycle, 100, true},
		{50, cycle - 31, 7, true},
		{0, cycle, 1, false},
		{cycle, cycle, 10, true}, // empty range
	} {
		var want []int
		if tc.end > tc.start {
			span := tc.end - tc.start
			n := int(span / tc.dt)
			if span%tc.dt != 0 && tc.partial {
				n++
			}
			want = make([]int, n)
			for _, e := range tr.Events() {
				if e.Cycle < tc.start || e.Cycle >= tc.end {
					continue
				}
				if idx := int((e.Cycle - tc.start) / tc.dt); idx < n {
					want[idx]++
				}
			}
		}
		if got := tr.Densities(tc.start, tc.end, tc.dt, tc.partial); !reflect.DeepEqual(got, want) {
			t.Errorf("Densities(%+v) differs from reference", tc)
		}
	}
}
