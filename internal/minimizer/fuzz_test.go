package minimizer

import (
	"bytes"
	"testing"
)

// FuzzExtract differentially tests the fused-roll ring extractor
// against the naive O(n·w) oracles on arbitrary bytes: lower case, N,
// IUPAC codes and CR break or extend k-mer runs exactly as the oracle
// says. k, w and the ordering come from the input, so k = 31, w = 1 and
// rings larger than AppendExtract's stack ring are all reached. Each
// input runs through the package-level AppendExtract and through an
// Extractor whose ring an unrelated sequence dirtied first, both
// appending to a non-empty dst that must come back untouched.
func FuzzExtract(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGTACGT"), uint8(4), uint8(3), false)
	f.Add([]byte("acgtNNacgtRYKMacgt\r\nACGTTGCA"), uint8(2), uint8(1), true)
	f.Add(bytes.Repeat([]byte{'A'}, 80), uint8(30), uint8(5), false)
	f.Add(bytes.Repeat([]byte("GATTACA"), 40), uint8(30), uint8(200), true)
	f.Add([]byte("TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT"), uint8(12), uint8(0), false)
	f.Fuzz(func(t *testing.T, s []byte, kb, wb uint8, hashed bool) {
		p := Params{K: 1 + int(kb)%31, W: 1 + int(wb)%160}
		if hashed {
			p.Order = OrderHash
		}
		want := naiveExtractOrdered(s, p)
		if !hashed {
			lex := naiveExtract(s, p)
			if !equalTuples(want, lex) {
				t.Fatalf("oracles disagree: %v vs %v", want, lex)
			}
		}
		prefix := []Tuple{{Kmer: 7, Pos: -3, FwdIsCanon: true}, {Kmer: 1, Pos: 99}}
		dst := append(make([]Tuple, 0, 4), prefix...)
		check := func(name string, got []Tuple) {
			t.Helper()
			if !equalTuples(got[:len(prefix)], prefix) {
				t.Fatalf("%s (k=%d w=%d hashed=%v): dst prefix overwritten: %v", name, p.K, p.W, hashed, got[:len(prefix)])
			}
			if !equalTuples(got[len(prefix):], want) {
				t.Fatalf("%s (k=%d w=%d hashed=%v) on %q:\ngot  %v\nwant %v", name, p.K, p.W, hashed, s, got[len(prefix):], want)
			}
		}
		check("AppendExtract", AppendExtract(dst, s, p))

		var e Extractor
		e.AppendExtract(nil, bytes.Repeat([]byte("CATG"), p.K+p.W), p)
		check("Extractor.AppendExtract", e.AppendExtract(dst[:len(prefix)], s, p))
	})
}

func equalTuples(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAppendExtractValidatesParams(t *testing.T) {
	for _, p := range []Params{{K: 0, W: 5}, {K: 32, W: 5}, {K: 5, W: 0}, {K: 5, W: -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendExtract(%+v) did not panic", p)
				}
			}()
			AppendExtract(nil, []byte("ACGTACGTACGT"), p)
		}()
	}
}
