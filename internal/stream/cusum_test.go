package stream

import "testing"

// feed pushes a series into a fresh detector and returns it.
func feed(series []float64) *CUSUM {
	c := NewCUSUM()
	for i, x := range series {
		c.Add(x, uint64(i)*1000)
	}
	return c
}

// TestCUSUMSeries drives the change detector through the canonical
// shapes a detection statistic can take: a step change (channel
// switches on), a slow ramp, a pulsed sender, benign drift, and
// benign noise. Only genuine changes may fire, and the onset estimate
// must land at the change, not at the alarm.
func TestCUSUMSeries(t *testing.T) {
	mk := func(n int, f func(i int) float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = f(i)
		}
		return s
	}
	// Deterministic triangle "noise" in [-amp, +amp].
	tri := func(i int, amp float64) float64 {
		return amp * (float64((i*7)%20)/10 - 1)
	}

	cases := []struct {
		name     string
		series   []float64
		wantFire bool
		onsetMin int // inclusive bounds on OnsetIndex when fired
		onsetMax int
	}{
		{
			name: "step",
			series: mk(60, func(i int) float64 {
				if i >= 30 {
					return 0.8
				}
				return 0.1
			}),
			wantFire: true,
			onsetMin: 30, onsetMax: 32,
		},
		{
			name: "ramp",
			series: mk(80, func(i int) float64 {
				if i < 40 {
					return 0.1
				}
				return 0.1 + 0.02*float64(i-40)
			}),
			wantFire: true,
			onsetMin: 40, onsetMax: 48,
		},
		{
			name: "pulsed", // sender active 5 of every 10 samples
			series: mk(80, func(i int) float64 {
				if i >= 30 && (i/5)%2 == 0 {
					return 0.9
				}
				return 0.1
			}),
			wantFire: true,
			onsetMin: 30, onsetMax: 40,
		},
		{
			name: "benign-drift", // slow wander the EWMA absorbs
			series: mk(200, func(i int) float64 {
				return 0.1 + 0.0004*float64(i) + tri(i, 0.01)
			}),
			wantFire: false,
		},
		{
			name: "benign-noise",
			series: mk(200, func(i int) float64 {
				return 0.2 + tri(i, 0.03)
			}),
			wantFire: false,
		},
		{
			name:     "constant",
			series:   mk(100, func(int) float64 { return 0.3 }),
			wantFire: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := feed(tc.series)
			r := c.Report()
			if r.Detected != tc.wantFire {
				t.Fatalf("fired = %v, want %v (stat %.3f vs thr %.3f)",
					r.Detected, tc.wantFire, r.Statistic, r.Threshold)
			}
			if r.Samples != len(tc.series) {
				t.Errorf("samples = %d, want %d", r.Samples, len(tc.series))
			}
			if !tc.wantFire {
				return
			}
			if r.OnsetIndex < tc.onsetMin || r.OnsetIndex > tc.onsetMax {
				t.Errorf("onset index = %d, want in [%d, %d]", r.OnsetIndex, tc.onsetMin, tc.onsetMax)
			}
			if r.OnsetCycle != uint64(r.OnsetIndex)*1000 {
				t.Errorf("onset cycle %d does not match index %d", r.OnsetCycle, r.OnsetIndex)
			}
			if r.FiredCycle < r.OnsetCycle {
				t.Errorf("alarm at %d before onset %d", r.FiredCycle, r.OnsetCycle)
			}
			if r.Statistic < r.Threshold {
				t.Errorf("fired with statistic %.3f below threshold %.3f", r.Statistic, r.Threshold)
			}
		})
	}
}

// TestCUSUMLatches verifies the alarm is sticky: once fired, a return
// to baseline does not clear it, and the recorded onset is preserved.
func TestCUSUMLatches(t *testing.T) {
	c := NewCUSUM()
	for i := 0; i < 30; i++ {
		c.Add(0.1, uint64(i))
	}
	for i := 30; i < 40; i++ {
		c.Add(0.9, uint64(i))
	}
	if !c.Fired() {
		t.Fatal("step did not fire")
	}
	onset := c.Report().OnsetCycle
	for i := 40; i < 200; i++ {
		c.Add(0.1, uint64(i))
	}
	if !c.Fired() {
		t.Error("alarm un-latched")
	}
	if got := c.Report().OnsetCycle; got != onset {
		t.Errorf("onset moved after latch: %d -> %d", onset, got)
	}
}

// TestCUSUMWarmupSuppression: no alarm can fire inside the warmup
// window even on an extreme series.
func TestCUSUMWarmupSuppression(t *testing.T) {
	c := NewCUSUM()
	for i := 0; i < cusumWarmup; i++ {
		if c.Add(float64(i), uint64(i)) {
			t.Fatalf("fired during warmup at sample %d", i)
		}
	}
}

// TestCUSUMFloorAndDrift pins the calibration on a constant baseline
// (σ = 0, so the threshold is its 0.2 floor): a step of 0.255 clears
// drift plus floor on its first sample, straight after the eight
// warmup samples, and a sustained step of 0.04, inside the 0.05 drift
// allowance, never accumulates.
func TestCUSUMFloorAndDrift(t *testing.T) {
	step := func(size float64) *CUSUM {
		series := make([]float64, 200)
		for i := range series {
			series[i] = 0.1
			if i >= 8 {
				series[i] += size
			}
		}
		return feed(series)
	}
	if r := step(0.255).Report(); !r.Detected || r.OnsetIndex != 8 || r.FiredCycle != 8000 {
		t.Errorf("0.255 step: %+v, want fired on sample 8", r)
	}
	if r := step(0.04).Report(); r.Detected {
		t.Errorf("0.04 step inside the drift allowance fired: %+v", r)
	}
}

// TestCUSUMThresholdBoundary pins the σ-scaled threshold on a noisy
// baseline. Eight warmup samples of ±0.1 noise around 0.1 set σ ≈ 0.1;
// sixteen samples of ±0.03 noise, inside the drift allowance, then
// pull the EWMA down to σ ≈ 0.0611 (at α = 0.05; α = 0.06 would reach
// 0.0575). A step to 0.505 adds 0.355 ≈ 5.8σ per sample: above 5σ and
// the faster-decayed 6σ, below 6σ, so the alarm fires on the step's
// second sample with the onset at its first.
func TestCUSUMThresholdBoundary(t *testing.T) {
	var series []float64
	for i := 0; i < 8; i++ {
		series = append(series, 0.1+0.1*float64(1-2*(i%2)))
	}
	for i := 0; i < 16; i++ {
		series = append(series, 0.1+0.03*float64(1-2*(i%2)))
	}
	const step = 24
	for i := 0; i < 8; i++ {
		series = append(series, 0.505)
	}
	r := feed(series).Report()
	if !r.Detected || r.OnsetIndex != step || r.FiredCycle != (step+1)*1000 {
		t.Fatalf("%+v, want onset at sample %d and the alarm on sample %d", r, step, step+1)
	}
	if sigma := r.Threshold / cusumK; r.Threshold <= cusumMinThreshold || sigma < 0.06 || sigma > 0.062 {
		t.Errorf("threshold %.4f is not 6σ of the decayed baseline σ ≈ 0.0611", r.Threshold)
	}
}
