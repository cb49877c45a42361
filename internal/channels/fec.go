package channels

// Two-layer forward-error-correction framing in the style of the TLB
// channel literature: an inner Berger-style check per 8-bit data word
// turns corrupted words into *erasures* (the check counts zero bits, so
// it detects every unidirectional error and most random flips), and an
// outer XOR parity word per group of fecGroup data words recovers any
// single erased word in the group. Both layers are pure bit-slice
// transforms, usable over every channel in this package: encode the
// message before handing it to a trojan, decode what the spy received.
//
// Frame layout, all bits in transmission order:
//
//	group := fecGroup × (8 data bits + 4-bit zero-count check)
//	         followed by one parity word (8+4 bits) = XOR of the
//	         group's data bytes, Berger-checked like a data word
//
// The last group is padded with zero bytes; FECDecode trims back to
// the caller's bit count.

// fecGroup is the outer-code group size: one parity word protects this
// many data words.
const fecGroup = 4

// fecWordBits is the size of one coded word: 8 data bits plus the
// 4-bit Berger check.
const fecWordBits = 12

// FECEncode frames data bits (values 0/1) for transmission. The result
// always decodes back to the input via FECDecode, even with any single
// corrupted word per group.
func FECEncode(data []int) []int {
	words := (len(data) + 7) / 8
	groups := (words + fecGroup - 1) / fecGroup
	out := make([]int, 0, (groups*fecGroup+groups)*fecWordBits)
	bitOf := func(i int) int {
		if i < len(data) && data[i] == 1 {
			return 1
		}
		return 0
	}
	appendWord := func(b byte) {
		zeros := 8
		for k := 7; k >= 0; k-- {
			bit := int(b>>uint(k)) & 1
			zeros -= bit
			out = append(out, bit)
		}
		for k := 3; k >= 0; k-- {
			out = append(out, (zeros>>uint(k))&1)
		}
	}
	for g := 0; g < groups; g++ {
		parity := byte(0)
		for w := 0; w < fecGroup; w++ {
			var b byte
			base := (g*fecGroup + w) * 8
			for k := 0; k < 8; k++ {
				b = b<<1 | byte(bitOf(base+k))
			}
			parity ^= b
			appendWord(b)
		}
		appendWord(parity)
	}
	return out
}

// fecReadWord decodes one coded word starting at off. A word that runs
// past the input, or whose Berger check disagrees with its payload, is
// an erasure (ok == false).
func fecReadWord(coded []int, off int) (b byte, ok bool) {
	if off+fecWordBits > len(coded) {
		return 0, false
	}
	zeros := 0
	for k := 0; k < 8; k++ {
		bit := coded[off+k] & 1
		b = b<<1 | byte(bit)
		zeros += 1 - bit
	}
	check := 0
	for k := 8; k < fecWordBits; k++ {
		check = check<<1 | coded[off+k]&1
	}
	return b, check == zeros
}

// FECDecode recovers nbits data bits from a coded frame. Words whose
// inner check fails are erasures; each group's parity word reconstructs
// a single erasure. It returns the recovered bits (zero-filled where
// recovery failed), the erasure count, and how many erased words stayed
// unrecovered. It never panics, whatever the input: short frames and
// garbage decode to best effort.
func FECDecode(coded []int, nbits int) (data []int, erasures, unrecovered int) {
	if nbits < 0 {
		nbits = 0
	}
	words := (nbits + 7) / 8
	groups := (words + fecGroup - 1) / fecGroup
	data = make([]int, nbits)
	for g := 0; g < groups; g++ {
		var word [fecGroup]byte
		var bad [fecGroup]bool
		badCount := 0
		base := g * (fecGroup + 1) * fecWordBits
		parityAcc := byte(0)
		for w := 0; w < fecGroup; w++ {
			b, ok := fecReadWord(coded, base+w*fecWordBits)
			word[w] = b
			if !ok {
				bad[w] = true
				badCount++
				erasures++
			} else {
				parityAcc ^= b
			}
		}
		parity, parityOK := fecReadWord(coded, base+fecGroup*fecWordBits)
		if badCount == 1 && parityOK {
			for w := 0; w < fecGroup; w++ {
				if bad[w] {
					word[w] = parity ^ parityAcc
					bad[w] = false
					badCount--
				}
			}
		}
		unrecovered += badCount
		for w := 0; w < fecGroup; w++ {
			if bad[w] {
				continue // leave the zero fill
			}
			for k := 0; k < 8; k++ {
				i := (g*fecGroup+w)*8 + k
				if i < nbits {
					data[i] = int(word[w]>>uint(7-k)) & 1
				}
			}
		}
	}
	return data, erasures, unrecovered
}
