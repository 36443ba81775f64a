package core

import (
	"sort"
	"testing"

	"repro/internal/seq"
	"repro/internal/sketch"
)

// alg2Oracle is an independent reference for Algorithm 2's query
// loop, sharing nothing with Session's counting code: per segment, a
// fresh map[int32]int32 counts the subjects hit by the T per-trial
// words looked up in the UNSEALED mutable hash-map table — no lazy
// counters, no frozen arrays, no shard routing. Ties break toward the
// lower subject id, the paper's deterministic best-hit rule.
type alg2Oracle struct {
	sk *sketch.Sketcher
	tb *sketch.Table
	// postings is the cumulative number of postings examined, the
	// reference for Session.PostingsScanned.
	postings int64
}

// newAlg2Oracle indexes contigs into an unsealed mapper and keeps its
// sketcher and mutable table.
func newAlg2Oracle(t *testing.T, contigs []seq.Record) *alg2Oracle {
	t.Helper()
	m, err := NewMapper(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	m.AddSubjects(contigs)
	if m.Table() == nil {
		t.Fatal("oracle mapper has no mutable table")
	}
	return &alg2Oracle{sk: m.Sketcher(), tb: m.Table()}
}

// ranked returns every subject the segment hits, by descending trial
// count with ties toward the lower subject id (nil when the segment
// has no sketch or hits nothing).
func (o *alg2Oracle) ranked(segment []byte) []Hit {
	words := o.sk.QuerySketch(segment)
	if words == nil {
		return nil
	}
	counts := make(map[int32]int32)
	for t, w := range words {
		ps := o.tb.Lookup(t, w)
		o.postings += int64(len(ps))
		for _, p := range ps {
			counts[p.Subject]++
		}
	}
	if len(counts) == 0 {
		return nil
	}
	hits := make([]Hit, 0, len(counts))
	for subj, c := range counts {
		hits = append(hits, Hit{Subject: subj, Count: c})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Count != hits[j].Count {
			return hits[i].Count > hits[j].Count
		}
		return hits[i].Subject < hits[j].Subject
	})
	return hits
}

// best is MapSegment's reference.
func (o *alg2Oracle) best(segment []byte) (Hit, bool) {
	hits := o.ranked(segment)
	if len(hits) == 0 {
		return Hit{Subject: -1}, false
	}
	return hits[0], true
}

// mapReads is MapReads' reference: both end segments of every read,
// in (read, kind) order.
func (o *alg2Oracle) mapReads(reads []seq.Record, l int) []Result {
	var out []Result
	for i, rd := range reads {
		segs, kinds := EndSegments(rd.Seq, l)
		for j, seg := range segs {
			r := Result{ReadIndex: int32(i), Kind: kinds[j], Subject: -1}
			if h, ok := o.best(seg); ok {
				r.Subject, r.Count = h.Subject, h.Count
			}
			out = append(out, r)
		}
	}
	return out
}
