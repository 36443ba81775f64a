package sketch

import (
	"bytes"
	"testing"

	"repro/internal/kmer"
	"repro/internal/minimizer"
)

// FuzzQuerySketch asserts query sketching never panics on arbitrary
// segments and that the session-scratch path, SketchQuery, equals the
// definition: per trial, the leftmost argmin of ⟨h_t, word⟩ over the
// segment's naive (w,k)-minimizers, in both words and positions. The
// scratch is dirtied by another segment before each call, so stale
// state leaking between segments shows as a mismatch. The corpus seeds
// cover the pathological shapes around the former querySketchTuples
// sentinel bug: homopolymer runs whose packed k-mers sit at the
// extremes of the word space (all-A canonical 0, poly-T
// canonicalizing onto it) where hash/word ties concentrate.
func FuzzQuerySketch(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGTACGT"))
	f.Add(bytes.Repeat([]byte{'T'}, 64)) // max packed word pre-canonicalization
	f.Add(bytes.Repeat([]byte{'A'}, 64)) // min packed word
	f.Add(bytes.Repeat([]byte{'G'}, 12))
	f.Add([]byte("NNNNNNNNNNNN"))
	f.Add([]byte("acgtacgtRYacgtacgtNacgtacgtacgt\r\n"))
	f.Add([]byte{})
	sk, err := NewSketcher(Params{K: 8, W: 4, T: 4, L: 200, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	dirty := []byte("GATTACAGATTACACCGGTTAACCGGTTAAGCGCATATGCGC")
	f.Fuzz(func(t *testing.T, segment []byte) {
		words, pos := sk.QuerySketchPositional(segment)
		if (words == nil) != (pos == nil) {
			t.Fatal("words/pos nilness differs")
		}
		if words != nil && (len(words) != sk.Params().T || len(pos) != sk.Params().T) {
			t.Fatalf("got %d words / %d positions, want %d", len(words), len(pos), sk.Params().T)
		}
		wantW, wantP := naiveQuerySketch(sk, segment)
		var sc QueryScratch
		for call := 0; call < 2; call++ {
			sk.SketchQuery(&sc, dirty)
			gotW, gotP := sk.SketchQuery(&sc, segment)
			if !equalSketch(gotW, gotP, wantW, wantP) {
				t.Fatalf("call %d on %q: got %v@%v, want %v@%v", call, segment, gotW, gotP, wantW, wantP)
			}
		}
		if !equalSketch(words, pos, wantW, wantP) {
			t.Fatalf("QuerySketchPositional on %q: got %v@%v, want %v@%v", segment, words, pos, wantW, wantP)
		}
	})
}

// naiveQuerySketch is the query sketch by definition: the per-trial
// leftmost argmin of ⟨h_t, word⟩ over naiveMinimizers' tuples.
func naiveQuerySketch(sk *Sketcher, segment []byte) ([]kmer.Word, []int32) {
	p := sk.Params()
	tuples := naiveMinimizers(segment, p.K, p.W)
	if len(tuples) == 0 {
		return nil, nil
	}
	words := make([]kmer.Word, p.T)
	pos := make([]int32, p.T)
	for t := range words {
		best := -1
		var bestH uint64
		for i, tp := range tuples {
			h := sk.Family().Hash(t, tp.Kmer)
			if best < 0 || h < bestH || (h == bestH && tp.Kmer < tuples[best].Kmer) {
				best, bestH = i, h
			}
		}
		words[t], pos[t] = tuples[best].Kmer, tuples[best].Pos
	}
	return words, pos
}

// naiveMinimizers is the lexicographic (w,k)-minimizer list by
// definition, as the minimizer package's test-only naiveExtract
// computes it: every window of w consecutive k-mers free of ambiguous
// bases yields its smallest canonical k-mer (leftmost on ties), which
// is emitted when its position differs from the previous emission.
func naiveMinimizers(s []byte, k, w int) []minimizer.Tuple {
	var out []minimizer.Tuple
	last := -1
	for start := 0; start+k+w-1 <= len(s); start++ {
		best, valid := -1, true
		var bestW kmer.Word
		var bestFwd bool
		for i := start; i < start+w; i++ {
			fwd, ok := kmer.Encode(s[i:i+k], k)
			if !ok {
				valid = false
				break
			}
			if c := kmer.Canonical(fwd, k); best < 0 || c < bestW {
				best, bestW, bestFwd = i, c, c == fwd
			}
		}
		if valid && best != last {
			out = append(out, minimizer.Tuple{Kmer: bestW, Pos: int32(best), FwdIsCanon: bestFwd})
			last = best
		}
	}
	return out
}

func equalSketch(w1 []kmer.Word, p1 []int32, w2 []kmer.Word, p2 []int32) bool {
	if (w1 == nil) != (w2 == nil) || len(w1) != len(w2) || len(p1) != len(p2) {
		return false
	}
	for i := range w1 {
		if w1[i] != w2[i] || p1[i] != p2[i] {
			return false
		}
	}
	return true
}
