package sketch

import (
	"bytes"
	"testing"
)

// FuzzQuerySketch asserts query sketching never panics on arbitrary
// segments. The corpus seeds cover the pathological shapes around the
// former querySketchTuples sentinel bug: homopolymer runs whose packed
// k-mers sit at the extremes of the word space (all-A canonical 0,
// poly-T canonicalizing onto it) where hash/word ties concentrate.
func FuzzQuerySketch(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGTACGT"))
	f.Add(bytes.Repeat([]byte{'T'}, 64)) // max packed word pre-canonicalization
	f.Add(bytes.Repeat([]byte{'A'}, 64)) // min packed word
	f.Add(bytes.Repeat([]byte{'G'}, 12))
	f.Add([]byte("NNNNNNNNNNNN"))
	f.Add([]byte{})
	sk, err := NewSketcher(Params{K: 8, W: 4, T: 4, L: 200, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, segment []byte) {
		words, pos := sk.QuerySketchPositional(segment)
		if (words == nil) != (pos == nil) {
			t.Fatal("words/pos nilness differs")
		}
		if words != nil && (len(words) != sk.Params().T || len(pos) != sk.Params().T) {
			t.Fatalf("got %d words / %d positions, want %d", len(words), len(pos), sk.Params().T)
		}
	})
}
