package sketch

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/kmer"
)

// Posting is one sketch-table entry: the subject that produced a
// sketch word, plus the position of the ℓ-interval anchor the word was
// drawn from. The paper's table stores subject ids only; carrying the
// anchor is this implementation's positional extension — it enables
// approximate target coordinates (PAF output, scaffold gap estimates)
// at the cost of 4 extra bytes per entry in the allgathered payload
// (the communication model charges the real encoded size either way).
// Anchor is -1 for sketches without positional provenance (classical
// MinHash baselines).
type Posting struct {
	Subject int32
	Anchor  int32
}

// Table is the sketch data structure S of Algorithm 2: one bin per
// trial, each mapping a sketch k-mer to the posting list of subjects
// that produced it.
//
// Table is not safe for concurrent mutation; the parallel drivers
// build per-process tables and merge them (the Allgatherv step).
type Table struct {
	trials  []map[kmer.Word][]Posting
	entries int
}

// NewTable creates an empty table with t trial bins.
func NewTable(t int) *Table {
	tb := &Table{trials: make([]map[kmer.Word][]Posting, t)}
	for i := range tb.trials {
		tb.trials[i] = make(map[kmer.Word][]Posting)
	}
	return tb
}

// T returns the number of trial bins.
func (tb *Table) T() int { return len(tb.trials) }

// Entries returns the total number of ⟨trial, word, posting⟩ entries.
func (tb *Table) Entries() int { return tb.entries }

// Insert adds a subject's per-trial sketch words without positional
// provenance (Anchor=-1). Duplicate words for the same subject within
// a trial are collapsed (subjects are inserted one at a time, so it
// suffices to check the tail of each posting list).
func (tb *Table) Insert(subject int32, perTrial [][]kmer.Word) {
	if len(perTrial) != len(tb.trials) {
		panic(fmt.Sprintf("sketch: sketch has %d trials, table has %d", len(perTrial), len(tb.trials)))
	}
	for t, words := range perTrial {
		bin := tb.trials[t]
		for _, w := range words {
			list := bin[w]
			if n := len(list); n > 0 && list[n-1].Subject == subject {
				continue
			}
			bin[w] = append(list, Posting{Subject: subject, Anchor: -1})
			tb.entries++
		}
	}
}

// InsertPositional adds a subject's per-trial sketch words with their
// interval anchors (parallel slices, as produced by
// Sketcher.SubjectSketchPositional). Duplicate words keep their first
// anchor.
func (tb *Table) InsertPositional(subject int32, perTrial [][]kmer.Word, anchors [][]int32) {
	if len(perTrial) != len(tb.trials) || len(anchors) != len(tb.trials) {
		panic(fmt.Sprintf("sketch: sketch has %d/%d trials, table has %d",
			len(perTrial), len(anchors), len(tb.trials)))
	}
	for t, words := range perTrial {
		bin := tb.trials[t]
		for i, w := range words {
			list := bin[w]
			if n := len(list); n > 0 && list[n-1].Subject == subject {
				continue
			}
			bin[w] = append(list, Posting{Subject: subject, Anchor: anchors[t][i]})
			tb.entries++
		}
	}
}

// InsertQueryWords adds exactly one word per trial (the query-style
// sketch shape); used for whole-sequence MinHash subjects.
func (tb *Table) InsertQueryWords(subject int32, words []kmer.Word) {
	perTrial := make([][]kmer.Word, len(tb.trials))
	for t := range perTrial {
		if t < len(words) {
			perTrial[t] = words[t : t+1]
		}
	}
	tb.Insert(subject, perTrial)
}

// Lookup returns the posting list for word w in trial t (nil when
// absent). The returned slice must not be modified.
func (tb *Table) Lookup(t int, w kmer.Word) []Posting {
	return tb.trials[t][w]
}

// Merge folds other into tb. Posting lists are concatenated; the
// caller guarantees subject-id spaces are identical (they are global
// ids in the distributed setting) and that a subject was sketched by
// exactly one process, so no dedup is needed.
func (tb *Table) Merge(other *Table) {
	if other.T() != tb.T() {
		panic(fmt.Sprintf("sketch: merging table with %d trials into table with %d", other.T(), tb.T()))
	}
	for t, bin := range other.trials {
		dst := tb.trials[t]
		for w, list := range bin {
			dst[w] = append(dst[w], list...)
			tb.entries += len(list)
		}
	}
}

// Words returns the number of distinct sketch words in trial t.
func (tb *Table) Words(t int) int { return len(tb.trials[t]) }

// Encode serializes the table deterministically (words sorted within
// each trial) in little-endian binary: the per-rank payload of the
// distributed gather step, which FreezePayloads merges.
func (tb *Table) Encode(w io.Writer) error {
	bw := newByteWriter(w)
	bw.u32(uint32(len(tb.trials)))
	for _, bin := range tb.trials {
		bw.u32(uint32(len(bin)))
		words := make([]kmer.Word, 0, len(bin))
		for word := range bin {
			words = append(words, word)
		}
		sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
		for _, word := range words {
			bw.u64(uint64(word))
			list := bin[word]
			bw.u32(uint32(len(list)))
			for _, p := range list {
				bw.u32(uint32(p.Subject))
				bw.u32(uint32(p.Anchor))
			}
		}
	}
	return bw.flush()
}

type byteWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newByteWriter(w io.Writer) *byteWriter {
	return &byteWriter{w: w, buf: make([]byte, 0, 1<<15)}
}

func (bw *byteWriter) u32(v uint32) {
	bw.buf = binary.LittleEndian.AppendUint32(bw.buf, v)
	bw.maybeFlush()
}

func (bw *byteWriter) u64(v uint64) {
	bw.buf = binary.LittleEndian.AppendUint64(bw.buf, v)
	bw.maybeFlush()
}

func (bw *byteWriter) maybeFlush() {
	if len(bw.buf) >= 1<<15-16 && bw.err == nil {
		_, bw.err = bw.w.Write(bw.buf)
		bw.buf = bw.buf[:0]
	}
}

func (bw *byteWriter) flush() error {
	if bw.err == nil && len(bw.buf) > 0 {
		_, bw.err = bw.w.Write(bw.buf)
		bw.buf = bw.buf[:0]
	}
	return bw.err
}
