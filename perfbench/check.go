package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/simulate"
	"repro/internal/truth"
)

// compareTSV reports the first line where a mapping table differs from
// the expected one.
func compareTSV(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	line := bytes.Count(want[:i], []byte{'\n'}) + 1
	return fmt.Errorf("output differs from the reference at byte %d (line %d; %d bytes, want %d)",
		i, line, len(got), len(want))
}

// truthIndex scores mapping tables against the generator's truth with
// the paper's rule (internal/truth): an end segment truly maps to a
// contig when their reference intervals intersect in at least k
// positions. Contig intervals are known exactly from the cut.
type truthIndex struct {
	k, segmentLen int
	reads         []simulate.Read
	readIndex     map[string]int
	contigIndex   map[string]int
	places        []placement
	// byChrom lists contig ids per chromosome in start order (the cut
	// runs left to right); maxLen is the longest contig there.
	byChrom [][]int
	maxLen  []int
}

func newTruthIndex(in *inputs, k, segmentLen int) *truthIndex {
	tx := &truthIndex{
		k: k, segmentLen: segmentLen, reads: in.Reads, places: in.Places,
		readIndex:   make(map[string]int, len(in.Reads)),
		contigIndex: make(map[string]int, len(in.Contigs)),
		byChrom:     make([][]int, len(in.Genome.Records)),
		maxLen:      make([]int, len(in.Genome.Records)),
	}
	for i := range in.Reads {
		tx.readIndex[in.Reads[i].Rec.ID] = i
	}
	for i, p := range in.Places {
		tx.contigIndex[in.Contigs[i].ID] = i
		tx.byChrom[p.Chrom] = append(tx.byChrom[p.Chrom], i)
		tx.maxLen[p.Chrom] = max(tx.maxLen[p.Chrom], p.End-p.Start)
	}
	return tx
}

func (tx *truthIndex) interval(contig int) truth.Interval {
	p := tx.places[contig]
	return truth.Interval{Chrom: p.Chrom, Start: p.Start, End: p.End, Reverse: p.Reverse}
}

// anyTrue reports whether some contig intersects the segment interval
// in at least k positions.
func (tx *truthIndex) anyTrue(seg truth.Interval) bool {
	ids := tx.byChrom[seg.Chrom]
	lo := sort.Search(len(ids), func(i int) bool {
		return tx.places[ids[i]].Start >= seg.Start-tx.maxLen[seg.Chrom]
	})
	for _, id := range ids[lo:] {
		if tx.places[id].Start >= seg.End {
			break
		}
		if seg.Overlap(tx.interval(id)) >= tx.k {
			return true
		}
	}
	return false
}

// score counts outcomes per TSV row the way truth.Benchmark.Evaluate
// does: a reported true contig is a TP; any other reported contig is an
// FP, and also an FN when the segment had a true contig; an unmapped
// segment with a true contig is an FN, without one a TN.
func (tx *truthIndex) score(tsv []byte) (truth.Confusion, error) {
	var c truth.Confusion
	lines := strings.Split(strings.TrimSuffix(string(tsv), "\n"), "\n")
	for _, line := range lines[1:] {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			return c, fmt.Errorf("malformed TSV row %q", line)
		}
		ri, ok := tx.readIndex[f[0]]
		if !ok {
			return c, fmt.Errorf("TSV row names unknown read %q", f[0])
		}
		kind := core.Prefix
		if f[1] == "suffix" {
			kind = core.Suffix
		}
		seg := truth.SegmentInterval(tx.reads[ri], kind, tx.segmentLen)
		hasTrue := tx.anyTrue(seg)
		if f[2] == "*" {
			if hasTrue {
				c.FN++
			} else {
				c.TN++
			}
			continue
		}
		ci, ok := tx.contigIndex[f[2]]
		if !ok {
			return c, fmt.Errorf("TSV row names unknown contig %q", f[2])
		}
		if seg.Overlap(tx.interval(ci)) >= tx.k {
			c.TP++
			continue
		}
		c.FP++
		if hasTrue {
			c.FN++
		}
	}
	return c, nil
}
