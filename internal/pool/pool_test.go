package pool

import "testing"

func TestGetReturnsZeroedExactLength(t *testing.T) {
	for _, n := range []int{0, 1, 3, 8, 100, 1 << 12} {
		s := Float64s(n)
		if len(s) != n {
			t.Fatalf("Float64s(%d): len %d", n, len(s))
		}
		for i := range s {
			s[i] = 42
		}
		PutFloat64s(s)
		r := Float64s(n)
		if len(r) != n {
			t.Fatalf("recycled Float64s(%d): len %d", n, len(r))
		}
		for i, v := range r {
			if v != 0 {
				t.Fatalf("recycled Float64s(%d)[%d] = %v, want 0 (stale data leaked)", n, i, v)
			}
		}
		PutFloat64s(r)
	}
}

// TestIntsRoundTrip runs the pool family over a second element type:
// a larger request from the same size class comes back zeroed at its
// own length.
func TestIntsRoundTrip(t *testing.T) {
	var ints typedPools[int]
	s := ints.get(17)
	if len(s) != 17 {
		t.Fatalf("get(17): len %d", len(s))
	}
	s[3] = 9
	ints.put(s)
	r := ints.get(30) // larger request from the same class (cap 32)
	if len(r) != 30 {
		t.Fatalf("get(30): len %d", len(r))
	}
	for i, v := range r {
		if v != 0 {
			t.Fatalf("get(30)[%d] = %d, want 0", i, v)
		}
	}
	ints.put(r)
}

func TestPutOddCapacityStaysUsable(t *testing.T) {
	// A caller-made buffer with a non-power-of-two capacity lands in
	// the floor class and must still satisfy that class's gets.
	odd := make([]float64, 5, 13)
	PutFloat64s(odd)
	for i := 0; i < 4; i++ {
		s := Float64s(8) // class 3 (cap 8): a cap-13 buffer may serve it
		if len(s) != 8 {
			t.Fatalf("Float64s(8): len %d", len(s))
		}
		for _, v := range s {
			if v != 0 {
				t.Fatal("stale data in recycled odd-capacity buffer")
			}
		}
		PutFloat64s(s)
	}
}

func TestZeroAndHugeRequests(t *testing.T) {
	if s := Float64s(0); s != nil {
		t.Errorf("Float64s(0) = %v, want nil", s)
	}
	PutFloat64s(nil) // no-op
}

// TestWarmRoundTripAllocatesNothing: once a buffer and its box are in
// the pool, Float64s/PutFloat64s move them back and forth without a
// single allocation.
func TestWarmRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts")
	}
	PutFloat64s(Float64s(100))
	if n := testing.AllocsPerRun(100, func() { PutFloat64s(Float64s(100)) }); n != 0 {
		t.Errorf("warm Float64s/PutFloat64s round trip: %v allocs, want 0", n)
	}
}
