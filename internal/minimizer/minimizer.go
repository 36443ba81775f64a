// Package minimizer implements (w,k)-minimizer extraction (winnowing).
//
// Given a sequence s, a k-mer size k and a window size w, the
// minimizer of a window of w consecutive k-mers is the one with the
// smallest ordering value. Following the paper (§III-B.2 and the
// implementation notes), the ordering is the lexicographic order of
// the *canonical* k-mer — the smaller of the k-mer and its reverse
// complement — which equals numeric order of the 2-bit packed word.
//
// A minimizer tuple ⟨k_i, p_i⟩ is appended to the output list Mo(s,w)
// only when the minimizer changes or when the previous occurrence
// slides out of the window, exactly the dedup rule in §IV-A(c). The
// output list is sorted by position by construction.
package minimizer

import (
	"fmt"

	"repro/internal/kmer"
	"repro/internal/seq"
)

// Tuple is one minimizer occurrence: the canonical packed k-mer and the
// start position of the window-minimal k-mer on the sequence.
// FwdIsCanon records whether the forward-strand k-mer at Pos equals
// the canonical form; two sequences share an orientation at a common
// minimizer iff their FwdIsCanon flags agree, which is what lets
// seed-chaining recover relative strand from canonical sketches.
type Tuple struct {
	Kmer       kmer.Word
	Pos        int32
	FwdIsCanon bool
}

// Ordering selects how k-mers are ranked when picking the window
// minimum.
type Ordering int

const (
	// OrderLex ranks canonical k-mers lexicographically — the paper's
	// choice ("we use the lexicographically smallest k-mer as this
	// hash function", §III-B.2).
	OrderLex Ordering = iota
	// OrderHash ranks canonical k-mers by an invertible 64-bit mix of
	// their packed value, the minimap2-style choice. It avoids the
	// poly-A bias of lexicographic ordering and is exposed for the
	// ablation studies; the selected Tuple still carries the k-mer
	// itself.
	OrderHash
)

// Params bundles the winnowing parameters.
type Params struct {
	K int // k-mer size (1..kmer.MaxK)
	W int // window size, in number of consecutive k-mers (≥1)
	// Order is the ranking used to pick window minima (default
	// OrderLex, the paper's setting).
	Order Ordering
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.K <= 0 || p.K > kmer.MaxK {
		return fmt.Errorf("minimizer: k=%d out of range [1,%d]", p.K, kmer.MaxK)
	}
	if p.W <= 0 {
		return fmt.Errorf("minimizer: w=%d must be positive", p.W)
	}
	return nil
}

// entry is one k-mer of the sliding window ring. key is the ordering
// rank (the word itself under OrderLex, its mix under OrderHash); end
// is the sequence index of the k-mer's last base.
type entry struct {
	key        uint64
	word       kmer.Word
	end        int32
	fwdIsCanon bool
}

// mix64 is the Murmur3 finalizer, an invertible 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// rank returns the ordering key of a canonical k-mer under p.Order.
func (p Params) rank(w kmer.Word) uint64 {
	if p.Order == OrderHash {
		return mix64(uint64(w))
	}
	return uint64(w)
}

// Extract returns the position-sorted minimizer tuple list Mo(s,w) of
// s. It never returns an error for sequences shorter than k — the list
// is simply empty. Ambiguous bases break k-mer windows but winnowing
// resumes after them.
func Extract(s []byte, p Params) []Tuple {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	// Density is ≈ 2/(w+1) on random sequence (≈ 2.3/(w+1) under
	// lexicographic ordering); 2.5/(w+1) sizes the output once.
	est := len(s)*5/(2*(p.W+1)) + 4
	out := make([]Tuple, 0, est)
	return AppendExtract(out, s, p)
}

// ringInline is the window size up to which AppendExtract keeps its
// ring on the stack; it covers the paper's w=100.
const ringInline = 128

// AppendExtract appends the minimizers of s to dst and returns the
// extended slice, allowing callers to reuse buffers across sequences.
// It panics on invalid p, as Extract does. For w ≤ 128 the window ring
// lives on the stack, so the only allocation is dst's growth; callers
// extracting many sequences with a larger w keep an Extractor instead.
func AppendExtract(dst []Tuple, s []byte, p Params) []Tuple {
	var inline [ringInline]entry
	e := Extractor{ring: inline[:]}
	return e.AppendExtract(dst, s, p)
}

// Extractor is the reusable scratch of minimizer extraction: the ring
// of the w k-mers of the current window. The zero value is ready to
// use; the ring is sized on first use and kept across calls. An
// Extractor is not safe for concurrent use.
type Extractor struct {
	ring []entry
}

// AppendExtract is the package-level AppendExtract over e's ring.
//
// One pass rolls the 2-bit forward and reverse-complement words of the
// current k-mer straight off the base-code table and restarts the run
// on a non-ACGT byte. The k-mers of the current window sit in a ring of
// w entries and the window minimum is held by value. A new k-mer
// replaces the minimum only when it ranks strictly lower, so the
// leftmost of equal keys wins. When the minimum slides out of the
// window the ring is rescanned from oldest to newest, again with a
// strict <. A rescan costs w and happens at most once per emitted
// minimizer (density ≈ 2/(w+1)): about two comparisons per k-mer.
//
//jem:hotpath
func (e *Extractor) AppendExtract(dst []Tuple, s []byte, p Params) []Tuple {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	w, k := p.W, p.K
	if cap(e.ring) < w {
		e.ring = make([]entry, w)
	}
	ring := e.ring[:w]
	mask := kmer.Mask(k)
	// comp[c] is the complement of base code c placed at the high end
	// of a k-mer: what the reverse-complement word takes in per base.
	shift := 2 * uint(k-1)
	comp := [4]kmer.Word{3 << shift, 2 << shift, 1 << shift, 0}
	var fwd, rc kmer.Word
	var min entry
	first := k - 1       // index of the last base of the run's first k-mer
	expire := 0          // index at which min slides out of the window
	slot := 0            // ring slot the next k-mer is written to
	lastEnd := int32(-1) // end of the previously emitted minimizer
	for i, b := range s {
		c, ok := seq.Code(b)
		if !ok {
			first = i + k
			continue
		}
		fwd = (fwd<<2 | kmer.Word(c)) & mask
		rc = rc>>2 | comp[c&3]
		if i < first {
			continue
		}
		canon := fwd
		if rc < canon {
			canon = rc
		}
		key := p.rank(canon)
		cur := entry{key: key, word: canon, end: int32(i), fwdIsCanon: fwd == canon}
		ring[slot] = cur
		slot++
		if slot == w {
			slot = 0
		}
		// The run's first window is complete at i == first+w-1.
		if i == first || key < min.key {
			min = cur
			expire = i + w
			if i < first+w-1 {
				continue
			}
		} else if i == expire {
			// Rescan the ring from its oldest entry, now at slot.
			m := slot
			for j := slot + 1; j < w; j++ {
				if ring[j].key < ring[m].key {
					m = j
				}
			}
			for j := 0; j < slot; j++ {
				if ring[j].key < ring[m].key {
					m = j
				}
			}
			min = ring[m]
			expire = int(min.end) + w
		} else if i != first+w-1 {
			continue
		}
		// The minimum changed, or the run's first window is complete.
		if min.end != lastEnd {
			dst = append(dst, Tuple{Kmer: min.word, Pos: min.end - int32(k-1), FwdIsCanon: min.fwdIsCanon})
			lastEnd = min.end
		}
	}
	return dst
}

// Density returns |Mo(s,w)| / #k-mers for s — the expected value is
// roughly 2/(w+1) for random sequences, a useful sanity statistic.
func Density(s []byte, p Params) float64 {
	n := kmer.Count(s, p.K)
	if n == 0 {
		return 0
	}
	return float64(len(Extract(s, p))) / float64(n)
}

// Set returns the distinct canonical minimizer k-mers of s — the
// minimizer sketch M(s,w) used by the minimizer Jaccard estimate.
func Set(s []byte, p Params) map[kmer.Word]struct{} {
	tuples := Extract(s, p)
	out := make(map[kmer.Word]struct{}, len(tuples))
	for _, t := range tuples {
		out[t.Kmer] = struct{}{}
	}
	return out
}

// Jaccard computes the minimizer Jaccard estimate J_m(a,b;w) =
// J(M(a,w), M(b,w)) from the paper. It returns 0 when both minimizer
// sets are empty.
func Jaccard(a, b []byte, p Params) float64 {
	sa := Set(a, p)
	sb := Set(b, p)
	if len(sa) == 0 && len(sb) == 0 {
		return 0
	}
	inter := 0
	small, large := sa, sb
	if len(sb) < len(sa) {
		small, large = sb, sa
	}
	for w := range small {
		if _, ok := large[w]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}
