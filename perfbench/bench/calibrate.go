package bench

import (
	"runtime"
	"sync"
	"time"
)

// The host the benchmark runs on is shared, and its speed drifts: a
// fixed loop took anywhere from 0.9 to 2.2 ms, one second to the
// next, on a 2-vCPU guest. Raw CPU seconds therefore spread by more
// than any useful bound between runs of the same code. The untraced
// run instead times every measured unit (a scenario cell, a fleet
// pass, one set-up) against a fixed reference kernel run right next
// to it, and reports the unit's time in reference seconds: its CPU
// time divided by the kernel's time per unit, times refUnitSeconds.
// A drift that slows the program and the kernel alike cancels; a
// change that makes the program slower or faster does not.

// refWords sizes the reference kernel's table: 512 KiB, more than the
// L1 cache holds but within a core's own L2, so the kernel tracks the
// core's speed (its clock, the time the hypervisor steals) rather than
// the last-level cache that other guests share.
const refWords = 1 << 17

// refSteps is the work in one kernel unit.
const refSteps = 1 << 12

// refUnitSeconds is the nominal CPU time of one kernel unit: about its
// median on a 2-vCPU KVM guest of an Intel Xeon (family 6, model 207).
// It only scales the reported figures; any fixed value would do.
const refUnitSeconds = 55e-6

// refKernel is one lane of reference work: a xorshift stream that
// updates random words of its table and takes a data-dependent branch
// per step, so it mixes L1 misses, mispredictions and integer and
// floating-point arithmetic as the measured code does. It does not
// allocate.
type refKernel struct {
	table []uint32
	x     uint64
	f     float64
}

func newRefKernel(lane int) *refKernel {
	return &refKernel{table: make([]uint32, refWords), x: DeriveSeed(0x5eed, uint64(lane))}
}

// run performs units kernel units.
func (k *refKernel) run(units int) {
	t, x, f := k.table, k.x, k.f
	for i := 0; i < units*refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := uint32(x) & (refWords - 1)
		v := t[j] + uint32(x>>32)
		t[j] = v
		if v&1 == 0 {
			f = f*0.999 + float64(v&0xff)
		} else {
			f -= 1
		}
	}
	k.x, k.f = x, f
}

// calibrator times measured units against the reference kernel, on as
// many parallel lanes as the measured code keeps busy.
type calibrator struct {
	lanes []*refKernel
	// unit is the kernel's CPU time per lane-unit when the calibrator
	// was made, which sizes the kernel runs.
	unit time.Duration
}

// newCalibrator returns a warmed calibrator with the given lane count.
func newCalibrator(lanes int) *calibrator {
	c := &calibrator{}
	for i := 0; i < max(lanes, 1); i++ {
		c.lanes = append(c.lanes, newRefKernel(i))
	}
	for i := 0; i < 3; i++ { // fault the tables in and warm the code
		c.kernelCPU(8)
	}
	c.unit = c.kernelCPU(8)
	return c
}

// unitsFor sizes the kernel runs around a measured unit of typical CPU
// time (an estimate, in seconds): the two take about a third of it
// together, and at least one kernel unit each.
func (c *calibrator) unitsFor(typical float64) int {
	return max(1, int(typical/6/c.unit.Seconds()))
}

// kernelCPU runs units kernel units on every lane at once and returns
// the CPU time per lane-unit.
func (c *calibrator) kernelCPU(units int) time.Duration {
	c0 := cpuTime()
	if len(c.lanes) == 1 {
		c.lanes[0].run(units)
	} else {
		var wg sync.WaitGroup
		for _, k := range c.lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				k.run(units)
			}()
		}
		wg.Wait()
	}
	return (cpuTime() - c0) / time.Duration(units*len(c.lanes))
}

// measure runs fn between two kernel runs of units units and returns
// fn's CPU time in reference seconds (against the mean of the two
// kernel runs) and in raw seconds. It first collects the heap, so the
// garbage of earlier units is not collected on fn's time or the
// kernel's.
func (c *calibrator) measure(units int, fn func() error) (ref, raw float64, err error) {
	runtime.GC()
	before := c.kernelCPU(units)
	c0 := cpuTime()
	err = fn()
	raw = (cpuTime() - c0).Seconds()
	unit := (before + c.kernelCPU(units)) / 2
	return raw / unit.Seconds() * refUnitSeconds, raw, err
}

// setupSeconds is the median over reps of fn's wall time per call in
// reference seconds (wall time: set-up takes microseconds, below what
// CPU accounting resolves). Each rep times a batch of calls, about as
// long as one kernel unit together, against one kernel unit run right
// before it, and starts from a freshly collected heap, so a collection
// triggered by an earlier rep's garbage does not land in it. The calls
// that size the batch warm fn up.
func setupSeconds(reps int, fn func()) float64 {
	k := newRefKernel(0)
	k.run(3)
	t0 := time.Now()
	k.run(1)
	unit := time.Since(t0)
	calls := 0
	for t := time.Now(); time.Since(t) < 2*time.Millisecond; calls++ {
		fn()
	}
	batch := max(1, calls*int(unit)/int(2*time.Millisecond))
	xs := make([]float64, reps)
	for i := range xs {
		runtime.GC()
		t0 := time.Now()
		k.run(1)
		t1 := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		xs[i] = time.Since(t1).Seconds() / float64(batch) / t1.Sub(t0).Seconds() * refUnitSeconds
	}
	return median(xs)
}
