package core

import (
	"math/rand"
	"strings"
	"testing"

	"firehose/internal/simhash"
	"firehose/internal/textnorm"
)

// referenceFingerprint is the executable spec of Fingerprint.
func referenceFingerprint(text string) simhash.Fingerprint {
	return simhash.Hash(textnorm.NormalizedTokens(text))
}

// fingerprintSeeds exercise every branch of the fused kernel: the ASCII fast
// path, multi-byte letters and digits, the non-ASCII spaces, runes whose
// lower case is ASCII (U+0130, U+212A), invalid UTF-8, and token counts on
// both sides of a new counter plane (255→256 adds).
var fingerprintSeeds = []string{
	"",
	"   \t\n ",
	"Over 300 people missing after ferry sinks",
	"  Mixed   CASE  and\tpunctuation!!! don't-split ",
	"émoji ☕ 中文 Köln ÀÉÎ ǅ",
	"nbsp\u00a0nextline\u0085em\u2003ideographic\u3000end",
	"\u0130stanbul \u212aelvin ١٢٣ ⅷ",
	"bad\xffbyte \xc3\x28 \xe2\x82 tail\xc0",
	"\v\f\r a\x00b \x1c\x1f",
	strings.Repeat("tok ", 254),
	strings.Repeat("tok ", 255),
	strings.Repeat("tok ", 256),
	strings.Repeat("a b c ", 400),
}

func TestFingerprintMatchesReference(t *testing.T) {
	for _, s := range fingerprintSeeds {
		if got, want := Fingerprint(s), referenceFingerprint(s); got != want {
			t.Errorf("Fingerprint(%q) = %016x, reference %016x", s, got, want)
		}
	}
	// Random strings over an alphabet that mixes every rune class, long
	// enough to occupy ten counter planes.
	alphabet := []string{"a", "Z", "7", " ", "\t", "-", "'", "é", "Ü", "中", "\u00a0",
		"\u0085", "\u2003", "\u0130", "\u212a", "☕", "\xff", "\xe2\x82", "٣"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		var sb strings.Builder
		for n := rng.Intn(1 + rng.Intn(3000)); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		s := sb.String()
		if got, want := Fingerprint(s), referenceFingerprint(s); got != want {
			t.Fatalf("Fingerprint(%q) = %016x, reference %016x", s, got, want)
		}
	}
}

// FuzzFingerprintFused pins the fused kernel to its spec on arbitrary bytes.
func FuzzFingerprintFused(f *testing.F) {
	for _, s := range fingerprintSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Fingerprint(s), referenceFingerprint(s); got != want {
			t.Fatalf("Fingerprint(%q) = %016x, reference %016x", s, got, want)
		}
	})
}

var fingerprintSink simhash.Fingerprint

const benchTweet = "Breaking: Over 300 people missing after ferry sinks off the coast — rescue teams & volunteers search through the night http://t.co/AbC123 #ferry @newsdesk"

func BenchmarkFingerprint(b *testing.B) {
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fingerprintSink = referenceFingerprint(benchTweet)
		}
	})
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fingerprintSink = Fingerprint(benchTweet)
		}
	})
}
