package channels

import (
	"reflect"
	"testing"
)

// corruptWord flips one bit inside coded word w (data or parity) —
// the Berger check detects every single-bit flip, so the word becomes
// an erasure.
func corruptWord(coded []int, w, bit int) {
	off := w*fecWordBits + bit%fecWordBits
	if off < len(coded) {
		coded[off] ^= 1
	}
}

// fecCodedLen is the coded length in bits for n data bits: whole
// groups of fecGroup words, each with its parity word.
func fecCodedLen(n int) int {
	words := (n + 7) / 8
	groups := (words + fecGroup - 1) / fecGroup
	return (groups*fecGroup + groups) * fecWordBits
}

func TestFECRoundTripClean(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 16, 31, 32, 33, 64, 100} {
		data := RandomMessage(n, uint64(n)+1)
		coded := FECEncode(data)
		if want := fecCodedLen(n); len(coded) != want {
			t.Errorf("n=%d: coded length %d, want %d", n, len(coded), want)
		}
		got, erasures, unrecovered := FECDecode(coded, n)
		if !reflect.DeepEqual(got, data) {
			t.Errorf("n=%d: clean round trip corrupted the data", n)
		}
		if erasures != 0 || unrecovered != 0 {
			t.Errorf("n=%d: clean frame reported %d erasures, %d unrecovered",
				n, erasures, unrecovered)
		}
	}
}

func TestFECRecoversSingleErasurePerGroup(t *testing.T) {
	const n = 64 // 8 words = 2 groups
	data := RandomMessage(n, 5)
	words := (n + 7) / 8
	groups := (words + fecGroup - 1) / fecGroup
	// One corrupted word per group, sweeping every in-group position
	// including the parity word itself.
	for pos := 0; pos < fecGroup+1; pos++ {
		coded := FECEncode(data)
		for g := 0; g < groups; g++ {
			corruptWord(coded, g*(fecGroup+1)+pos, 3+g)
		}
		got, erasures, unrecovered := FECDecode(coded, n)
		if !reflect.DeepEqual(got, data) {
			t.Errorf("pos=%d: single erasure per group not recovered", pos)
		}
		if unrecovered != 0 {
			t.Errorf("pos=%d: %d words stayed unrecovered", pos, unrecovered)
		}
		wantErasures := groups
		if pos == fecGroup {
			wantErasures = 0 // parity corruption erases no data word
		}
		if erasures != wantErasures {
			t.Errorf("pos=%d: %d erasures, want %d", pos, erasures, wantErasures)
		}
	}
}

func TestFECDoubleErasureReported(t *testing.T) {
	const n = 32 // one group
	data := RandomMessage(n, 6)
	coded := FECEncode(data)
	corruptWord(coded, 0, 0)
	corruptWord(coded, 1, 5)
	_, erasures, unrecovered := FECDecode(coded, n)
	if erasures != 2 {
		t.Errorf("erasures = %d, want 2", erasures)
	}
	if unrecovered != 2 {
		t.Errorf("unrecovered = %d, want 2 (one parity cannot fix two words)",
			unrecovered)
	}
}

func TestFECDecodeGarbageSafe(t *testing.T) {
	for _, coded := range [][]int{
		nil,
		{},
		{1},
		make([]int, 5),
		RandomMessage(200, 9),
	} {
		for _, n := range []int{0, 1, 8, 64, 1000} {
			got, _, _ := FECDecode(coded, n)
			if len(got) != n {
				t.Fatalf("FECDecode(len %d coded, %d) returned %d bits",
					len(coded), n, len(got))
			}
		}
	}
	if got, _, _ := FECDecode(RandomMessage(48, 2), -3); len(got) != 0 {
		t.Error("negative nbits must decode to an empty slice")
	}
}

// FuzzFECRoundTrip drives the framing layer with adversarial payloads
// and corruption positions: encode → corrupt at most one word per
// group → decode must never panic and must reproduce the payload
// exactly; decoding raw garbage must never panic either.
func FuzzFECRoundTrip(f *testing.F) {
	f.Add([]byte{0xa5, 0x5a}, uint16(16), uint64(0), uint64(0))
	f.Add([]byte{1, 2, 3, 4, 5}, uint16(33), uint64(3), uint64(7))
	f.Add([]byte{}, uint16(1), uint64(1), uint64(11))
	f.Fuzz(func(t *testing.T, payload []byte, nbitsRaw uint16, wordSel, bitSel uint64) {
		nbits := int(nbitsRaw)%200 + 1
		data := make([]int, nbits)
		for i := range data {
			if len(payload) > 0 {
				data[i] = int(payload[i%len(payload)]>>(uint(i)%8)) & 1
			}
		}
		coded := FECEncode(data)

		// Clean decode is exact.
		got, erasures, unrecovered := FECDecode(coded, nbits)
		if !reflect.DeepEqual(got, data) {
			t.Fatal("clean round trip corrupted the payload")
		}
		if erasures != 0 || unrecovered != 0 {
			t.Fatalf("clean frame reported erasures=%d unrecovered=%d",
				erasures, unrecovered)
		}

		// One corrupted word per group — any position, data or parity —
		// must be fully recovered.
		words := (nbits + 7) / 8
		groups := (words + fecGroup - 1) / fecGroup
		for g := 0; g < groups; g++ {
			w := g*(fecGroup+1) + int(wordSel%uint64(fecGroup+1))
			corruptWord(coded, w, int(bitSel))
		}
		got, _, unrecovered = FECDecode(coded, nbits)
		if unrecovered != 0 {
			t.Fatalf("single corrupt word per group left %d unrecovered", unrecovered)
		}
		if !reflect.DeepEqual(got, data) {
			t.Fatal("single corrupt word per group not corrected")
		}

		// Truncated and garbage frames decode without panicking.
		if len(coded) > 0 {
			FECDecode(coded[:int(wordSel)%len(coded)], nbits)
		}
		garbage := make([]int, int(bitSel)%97)
		for i := range garbage {
			garbage[i] = int(wordSel>>uint(i%64)) & 1
		}
		if out, _, _ := FECDecode(garbage, nbits); len(out) != nbits {
			t.Fatalf("garbage decode returned %d bits, want %d", len(out), nbits)
		}
	})
}
