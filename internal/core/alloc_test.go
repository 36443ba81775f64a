package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/sketch"
)

// TestMapSegmentAllocFree pins the session-owned sketch scratch: once a
// local session has mapped one segment, mapping a 1000-bp segment at
// the paper's parameters allocates nothing — sketching, shard routing
// and counting all run in buffers the session keeps — with and without
// core metrics, for a monolithic and an 8-shard index.
func TestMapSegmentAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var contigs []seq.Record
	for i := 0; i < 24; i++ {
		contigs = append(contigs, seq.Record{ID: fmt.Sprintf("c%d", i), Seq: randDNA(rng, 6000)})
	}
	segment := append([]byte(nil), contigs[5].Seq[2000:3000]...)
	for _, p := range []int{1, 8} {
		for _, metrics := range []bool{false, true} {
			t.Run(fmt.Sprintf("P=%d/metrics=%v", p, metrics), func(t *testing.T) {
				m, err := NewMapper(sketch.Defaults())
				if err != nil {
					t.Fatal(err)
				}
				if metrics {
					m.EnableMetrics(obs.NewRegistry())
				}
				m.AddSubjects(contigs)
				m.SealSharded(p, 0)
				sess := m.NewSession()
				if h, ok := sess.MapSegment(segment); !ok || h.Subject != 5 {
					t.Fatalf("warm-up mapped to %+v (ok=%v), want subject 5", h, ok)
				}
				if n := testing.AllocsPerRun(100, func() { sess.MapSegment(segment) }); n != 0 {
					t.Errorf("MapSegment allocates %.1f times per call on a warmed session", n)
				}
			})
		}
	}
}
