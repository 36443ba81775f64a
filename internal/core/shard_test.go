package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/seq"
)

// buildPair builds the Alg. 2 reference over contigs (alg2Oracle, the
// unsealed mutable table counted with a fresh map per segment) and a
// mapper sealed into p shards.
func buildPair(t *testing.T, contigs []seq.Record, p int) (ref *alg2Oracle, sharded *Mapper) {
	t.Helper()
	ref = newAlg2Oracle(t, contigs)
	sharded, err := NewMapper(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	sharded.AddSubjects(contigs)
	sharded.SealSharded(p, 0)
	if got := sharded.Shards(); got != p {
		t.Fatalf("Shards() = %d, want %d", got, p)
	}
	return ref, sharded
}

// TestShardedMappingEquivalence is the Alg. 2 oracle property: for
// several seeds and shard counts, every mapping primitive (batch,
// plain, positional, top-k) returns the hits and counts of the
// independent map-counting reference, and each session examines
// exactly the postings the reference examines.
func TestShardedMappingEquivalence(t *testing.T) {
	l := smallParams().L
	for _, seed := range []int64{5, 17, 99} {
		rng := rand.New(rand.NewSource(seed))
		_, contigs, reads, _ := makeWorld(t, rng, 20_000, 1000, 20)
		// Copies of every third contig under new ids tie the best hit
		// between two subjects, so the tie rule is exercised too.
		for i, n := 0, len(contigs); i < n; i += 3 {
			contigs = append(contigs, seq.Record{ID: contigs[i].ID + "-copy", Seq: contigs[i].Seq})
		}
		for _, p := range []int{1, 2, 3, 8} {
			ref, sharded := buildPair(t, contigs, p)
			if got, want := sharded.MapReads(reads, l, 2), ref.mapReads(reads, l); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d p=%d: MapReads diverges from the oracle", seed, p)
			}
			plain, pos, top := sharded.NewSession(), sharded.NewSession(), sharded.NewSession()
			ref.postings = 0
			for i, rd := range reads {
				seg := rd.Seq[:l]
				ranked := ref.ranked(seg)
				want, wantOK := Hit{Subject: -1}, len(ranked) > 0
				if wantOK {
					want = ranked[0]
				}
				if got, ok := plain.MapSegment(seg); ok != wantOK || got != want {
					t.Fatalf("seed %d p=%d read %d: MapSegment %v,%v, oracle %v,%v", seed, p, i, got, ok, want, wantOK)
				}
				if ph, ok := pos.MapSegmentPositional(seg); ok != wantOK || (ok && ph.Hit != want) {
					t.Fatalf("seed %d p=%d read %d: MapSegmentPositional %v,%v, oracle %v,%v", seed, p, i, ph.Hit, ok, want, wantOK)
				}
				wantTop := ranked[:min(4, len(ranked))]
				if got := top.MapSegmentTopK(seg, 4); !reflect.DeepEqual(got, wantTop) {
					t.Fatalf("seed %d p=%d read %d: MapSegmentTopK %v, oracle %v", seed, p, i, got, wantTop)
				}
			}
			wantScanned := ref.postings
			for name, s := range map[string]*Session{"MapSegment": plain, "MapSegmentPositional": pos, "MapSegmentTopK": top} {
				if s.PostingsScanned() != wantScanned {
					t.Fatalf("seed %d p=%d: %s scanned %d postings, oracle %d", seed, p, name, s.PostingsScanned(), wantScanned)
				}
			}
			if wantScanned == 0 {
				t.Fatalf("seed %d p=%d: fixture scans no postings, test is vacuous", seed, p)
			}
		}
	}
}

func TestSealShardedStateMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, contigs, _, _ := makeWorld(t, rng, 8_000, 1000, 1)
	m, err := NewMapper(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	m.AddSubjects(contigs)
	m.SealSharded(4, 0)
	if !m.Sealed() || m.Sharded() == nil || m.Table() != nil {
		t.Fatalf("SealSharded left wrong state: sealed=%v sharded=%v", m.Sealed(), m.Sharded())
	}
	m.SealSharded(4, 0) // idempotent
	m.Seal()            // no-op on a sealed mapper
	if m.Shards() != 4 {
		t.Fatalf("Shards() = %d after re-seal, want 4", m.Shards())
	}

	// Seal is the one-shard case of the same state machine.
	one, err := NewMapper(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	one.AddSubjects(contigs)
	one.Seal()
	one.SealSharded(2, 0) // no-op on a sealed mapper
	if one.Shards() != 1 || one.Frozen() == nil || one.Table() != nil {
		t.Fatalf("Seal left %d shards, frozen=%v", one.Shards(), one.Frozen() != nil)
	}
}

// TestShardedMetricsSplitPostings checks the per-shard observability:
// the per-shard postings counters are registered and sum to the global
// postings counter.
func TestShardedMetricsSplitPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	_, contigs, reads, _ := makeWorld(t, rng, 12_000, 1000, 10)
	m, err := NewMapper(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.EnableMetrics(reg)
	m.AddSubjects(contigs)
	m.SealSharded(3, 0)
	met := m.Metrics()
	if len(met.ShardPostings) != 3 {
		t.Fatalf("ShardPostings has %d counters, want 3", len(met.ShardPostings))
	}
	sess := m.NewSession()
	for _, rd := range reads {
		sess.MapSegment(rd.Seq[:smallParams().L])
	}
	var perShard int64
	for _, c := range met.ShardPostings {
		perShard += c.Value()
	}
	if total := met.Postings.Value(); perShard != total || total == 0 {
		t.Fatalf("per-shard postings sum %d, global counter %d (want equal and non-zero)", perShard, total)
	}
}
