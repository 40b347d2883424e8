package core

import (
	"math/bits"
	"unicode"
	"unicode/utf8"

	"firehose/internal/simhash"
)

// FNV-1a 64-bit constants, as in simhash.HashToken.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint computes the SimHash fingerprint of a post text using the
// normalization the paper found best (Figure 4): lowercase, collapse
// whitespace, strip non-alphanumerics, then hash the token bag.
//
// It is the fused form of simhash.Hash(textnorm.NormalizedTokens(text)) —
// those two functions are the executable spec, and FuzzFingerprintFused pins
// the equality. One pass over the text, no intermediate string and no token
// slice: each token's FNV-1a hash accumulates as its bytes arrive, and token
// hashes are summed per bit position in bit-sliced counters (bitCounter)
// instead of 64 signed adds per token.
func Fingerprint(text string) simhash.Fingerprint {
	var bc bitCounter
	h := uint64(fnvOffset64)
	inToken := false
	for i := 0; i < len(text); {
		c := text[i]
		if c < utf8.RuneSelf {
			i++
			switch {
			case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
			case 'A' <= c && c <= 'Z':
				c += 'a' - 'A'
			case c == ' ', '\t' <= c && c <= '\r':
				if inToken {
					bc.add(h)
					h, inToken = fnvOffset64, false
				}
				continue
			default:
				continue // non-alphanumeric: dropped without ending the token
			}
			h = (h ^ uint64(c)) * fnvPrime64
			inToken = true
			continue
		}
		// Invalid UTF-8 decodes as (U+FFFD, 1), exactly as range does.
		r, size := utf8.DecodeRuneInString(text[i:])
		i += size
		switch {
		case unicode.IsSpace(r):
			if inToken {
				bc.add(h)
				h, inToken = fnvOffset64, false
			}
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			var buf [utf8.UTFMax]byte
			for _, b := range buf[:utf8.EncodeRune(buf[:], unicode.ToLower(r))] {
				h = (h ^ uint64(b)) * fnvPrime64
			}
			inToken = true
		}
	}
	if inToken {
		bc.add(h)
	}
	return bc.majority()
}

// bitCounter counts, for each of the 64 bit positions, how many of the added
// vectors had the bit set. Counts live bit-sliced: planes[k] holds bit k of
// all 64 counters, so adding a vector is a ripple-carry that stops at the
// first plane without a carry (amortized two words per add) rather than 64
// separate increments. 64 planes cannot overflow: a text has fewer tokens
// than bytes.
type bitCounter struct {
	planes [64]uint64
	total  uint
}

func (bc *bitCounter) add(v uint64) {
	bc.total++
	for k := 0; v != 0; k++ {
		bc.planes[k], v = bc.planes[k]^v, bc.planes[k]&v
	}
}

// majority returns the vector whose bit i is set iff more than half of the
// added vectors had bit i set — simhash's sign-of-the-sum collapse, since a
// ±1 sum is positive exactly when 2·ones > total. The comparison runs in all
// 64 lanes at once, most significant occupied plane first.
func (bc *bitCounter) majority() simhash.Fingerprint {
	half := bc.total / 2 // ones > total/2 ⇔ ones > ⌊total/2⌋ for integer ones
	gt, eq := uint64(0), ^uint64(0)
	for k := bits.Len(bc.total) - 1; k >= 0; k-- {
		if half>>uint(k)&1 == 0 {
			gt |= eq & bc.planes[k]
			eq &^= bc.planes[k]
		} else {
			eq &= bc.planes[k]
		}
	}
	return simhash.Fingerprint(gt)
}
