package bloom

import (
	"errors"
	"testing"

	"cchunter/internal/stats"
)

// unpack splits a probe word into its positions.
func unpack(probes uint64) [Hashes]uint64 {
	var out [Hashes]uint64
	for i := range out {
		out[i] = probes >> (i * ProbeBits) & probeMask
	}
	return out
}

// TestBankMatchesFilters pins the bit-sliced bank against four
// independent reference filters of the same size, at power-of-two
// sizes (positions reduced with a mask) and others (with %): a key's
// packed probes unpack to the filter's positions, and after random
// inserts spread over the four slices AnyContains equals "some filter
// contains the key", for inserted and fresh keys alike. Clearing one
// slice empties exactly that filter and leaves the other three's
// answers unchanged.
func TestBankMatchesFilters(t *testing.T) {
	for _, nbits := range []int{64, 100, 1024, 4096, 4160, 1 << 14} {
		bank, err := NewBank(nbits)
		if err != nil {
			t.Fatal(err)
		}
		var filters [4]*Filter
		for i := range filters {
			filters[i] = MustNew(nbits, Hashes)
		}
		if bank.Bits() != filters[0].Bits() {
			t.Fatalf("%d bits: bank rounds to %d, filter to %d", nbits, bank.Bits(), filters[0].Bits())
		}
		r := stats.NewRNG(uint64(nbits))
		for k := 0; k < nbits/8; k++ {
			key := r.Uint64() % 4096
			s := r.Intn(len(filters))
			filters[s].Add(key)
			bank.Add(bank.Probes(key), s)
		}
		check := func(stage string) {
			t.Helper()
			hits := 0
			for key := uint64(0); key < 8192; key++ {
				probes := bank.Probes(key)
				if got, want := unpack(probes), filters[0].indexes(key, nil); got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
					t.Fatalf("%d bits: key %d: bank positions %v, filter %v", nbits, key, got, want)
				}
				want := false
				for _, f := range filters {
					want = want || f.Contains(key)
				}
				if got := bank.AnyContains(probes); got != want {
					t.Fatalf("%d bits %s: key %d: bank %v, filters %v", nbits, stage, key, got, want)
				}
				if want {
					hits++
				}
			}
			if hits == 0 {
				t.Fatalf("%d bits %s: no key present; the check is vacuous", nbits, stage)
			}
		}
		check("filled")
		bank.ClearSlice(2)
		filters[2].Clear()
		check("after clearing slice 2")
		for key := uint64(0); key < 4096; key++ {
			probes := bank.Probes(key)
			for _, pos := range unpack(probes) {
				if bank.column(pos)&(1<<2) != 0 {
					t.Fatalf("%d bits: position %d of cleared slice 2 still set", nbits, pos)
				}
			}
		}
		bank.Clear()
		for key := uint64(0); key < 4096; key++ {
			if bank.AnyContains(bank.Probes(key)) {
				t.Fatalf("%d bits: cleared bank contains key %d", nbits, key)
			}
		}
	}
}

// TestBankPositionsFitProbeBits checks the largest bank: every
// position of a packed probe stays below MaxBits, so the three fields
// never overlap.
func TestBankPositionsFitProbeBits(t *testing.T) {
	bank, err := NewBank(MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(9)
	for i := 0; i < 10000; i++ {
		probes := bank.Probes(r.Uint64())
		if probes>>(Hashes*ProbeBits) != 0 {
			t.Fatalf("probe word %#x spills past %d bits", probes, Hashes*ProbeBits)
		}
		for _, pos := range unpack(probes) {
			if pos >= MaxBits {
				t.Fatalf("position %d beyond %d", pos, MaxBits)
			}
		}
	}
}

func TestBankConstructorErrors(t *testing.T) {
	for _, nbits := range []int{0, -1, MaxBits + 1} {
		b, err := NewBank(nbits)
		if err == nil || b != nil || !errors.Is(err, ErrBadConfig) {
			t.Errorf("NewBank(%d) = %v, %v; want an ErrBadConfig error", nbits, b, err)
		}
	}
}
