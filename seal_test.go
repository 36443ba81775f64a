package jem_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/sketch"
)

// TestSealedFacadeMatchesUnsealedCoreTSV is the end-to-end guarantee
// behind serving from the frozen table: a facade mapper (always
// sealed) must emit byte-identical TSV to Algorithm 2 computed
// directly over an unsealed core mapper's mutable hash-map table —
// per segment, a fresh map counting the subjects hit by the T trial
// words, ties toward the lower subject id.
func TestSealedFacadeMatchesUnsealedCoreTSV(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()

	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sealedTSV bytes.Buffer
	if err := jem.WriteTSV(&sealedTSV, mapAll(mapper, ds.Reads)); err != nil {
		t.Fatal(err)
	}

	// Reference: the unsealed mutable table, counted with a plain map.
	p := sketch.Params{K: opts.K, W: opts.W, T: opts.Trials, L: opts.SegmentLen, Seed: opts.Seed}
	cm, err := core.NewMapper(p)
	if err != nil {
		t.Fatal(err)
	}
	cm.AddSubjects(ds.Contigs)
	if cm.Sealed() {
		t.Fatal("reference mapper must stay unsealed")
	}
	best := func(seg []byte) (core.Hit, bool) {
		counts := map[int32]int32{}
		for tr, w := range cm.Sketcher().QuerySketch(seg) {
			for _, p := range cm.Table().Lookup(tr, w) {
				counts[p.Subject]++
			}
		}
		hit := core.Hit{Subject: -1}
		for subj, c := range counts {
			if c > hit.Count || (c == hit.Count && subj < hit.Subject) {
				hit = core.Hit{Subject: subj, Count: c}
			}
		}
		return hit, len(counts) > 0
	}
	var refTSV bytes.Buffer
	fmt.Fprintln(&refTSV, "read_id\tend\tcontig_id\tshared_trials")
	for _, r := range ds.Reads {
		segs, kinds := core.EndSegments(r.Seq, opts.SegmentLen)
		for i, seg := range segs {
			end := jem.PrefixEnd
			if kinds[i] == core.Suffix {
				end = jem.SuffixEnd
			}
			contig, trials := "*", "0"
			if hit, ok := best(seg); ok {
				contig = cm.Subject(hit.Subject).Name
				trials = fmt.Sprintf("%d", hit.Count)
			}
			fmt.Fprintf(&refTSV, "%s\t%s\t%s\t%s\n", r.ID, end, contig, trials)
		}
	}

	if !bytes.Equal(sealedTSV.Bytes(), refTSV.Bytes()) {
		t.Error("sealed facade TSV differs from unsealed core TSV")
	}
}
