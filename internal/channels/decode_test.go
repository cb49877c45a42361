package channels

import (
	"math"
	"reflect"
	"testing"
)

// TestDecode pins every channel's decision rule at its boundary on
// hand-built samples: the bits, and the series values bit for bit.
func TestDecode(t *testing.T) {
	msg := func(n int) Protocol { return Protocol{Message: make([]int, n), BPS: 1000} }
	duty := func(p Protocol, d float64) Protocol { p.Evader.DutyFrac = d; return p }
	repeat := func(p Protocol) Protocol { p.Repeat = true; return p }
	for _, tc := range []struct {
		name    string
		channel string
		p       Protocol
		samples []uint64
		decoded []int
		series  []float64
	}{
		{"bus average 600 and 601", "bus", msg(3),
			[]uint64{600 * busSamplesPerBit, 601 * busSamplesPerBit, 601*busSamplesPerBit - 1},
			[]int{0, 1, 0}, []float64{600, 601, 600}},
		{"divider average 150 and 151", "divider", msg(3),
			[]uint64{1500, 10, 1510, 10, 1509, 10},
			[]int{0, 1, 0}, []float64{150, 151, 150}},
		{"cache ratio exactly 1", "cache", msg(3),
			[]uint64{5000, 5000, 5001, 5000, 4999, 5000},
			[]int{0, 1, 0}, []float64{1, 5001.0 / 5000, 4999.0 / 5000}},
		{"ring slow*8 == thresh at duty 0", "ring", msg(2),
			[]uint64{10, 80, 11, 80},
			[]int{0, 1}, []float64{10.0 / 80, 11.0 / 80}},
		{"ring slow*8 == thresh at duty 0.5", "ring", duty(msg(3), 0.5),
			// 79 probes thin to 39.5, truncated to 39, which 5*8 clears.
			[]uint64{5, 80, 6, 80, 5, 79},
			[]int{0, 1, 1}, []float64{5.0 / 80, 6.0 / 80, 5.0 / 79}},
		{"ring no probes", "ring", msg(1),
			[]uint64{0, 0},
			[]int{0}, []float64{math.NaN()}},
		{"tlb tied groups", "tlb", msg(4),
			[]uint64{5, 5, 2, 5, 0, 3, 9, 9},
			[]int{0, 0, 1, 0}, []float64{5.0 / 17, 9.0 / 21}},
		{"tlb all-zero histogram", "tlb", msg(2),
			[]uint64{0, 0, 0, 0},
			[]int{0, 0}, []float64{0}},
		{"tlb odd non-repeating message", "tlb", msg(3),
			[]uint64{0, 0, 0, 7, 0, 0, 1, 0},
			[]int{1, 1, 1}, []float64{1, 1}},
		{"tlb odd repeating message", "tlb", repeat(msg(3)),
			[]uint64{0, 0, 0, 7, 0, 0, 1, 0},
			[]int{1, 1, 1, 0}, []float64{1, 1}},
		{"no samples", "bus", msg(1), nil, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, ok := Lookup(tc.channel)
			if !ok {
				t.Fatalf("no %s row", tc.channel)
			}
			decoded, series := Decode(spec, tc.p, tc.samples)
			if !reflect.DeepEqual(decoded, tc.decoded) {
				t.Errorf("decoded %v, want %v", decoded, tc.decoded)
			}
			if len(series) != len(tc.series) {
				t.Fatalf("series %v, want %v", series, tc.series)
			}
			for i, v := range series {
				if math.Float64bits(v) != math.Float64bits(tc.series[i]) &&
					!(math.IsNaN(v) && math.IsNaN(tc.series[i])) {
					t.Errorf("series[%d] = %v, want %v", i, v, tc.series[i])
				}
			}
		})
	}
}
