package minimizer

import (
	"math/rand"
	"testing"
)

func benchSeq(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	return randDNA(rng, n)
}

func benchExtract(b *testing.B, p Params) {
	s := benchSeq(1 << 20)
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(s, p)
	}
}

func BenchmarkExtractLex(b *testing.B) { benchExtract(b, Params{K: 16, W: 100}) }

func BenchmarkExtractHash(b *testing.B) { benchExtract(b, Params{K: 16, W: 100, Order: OrderHash}) }

func BenchmarkExtractSmallWindow(b *testing.B) { benchExtract(b, Params{K: 16, W: 10}) }

// BenchmarkExtractSegment is the query-side shape: one 1000-bp end
// segment at the paper's k=16, w=100, extracted into a reused buffer
// through a reused Extractor, as a mapping session does.
func BenchmarkExtractSegment(b *testing.B) {
	s := benchSeq(1000)
	p := Params{K: 16, W: 100}
	var e Extractor
	var dst []Tuple
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.AppendExtract(dst[:0], s, p)
	}
}
