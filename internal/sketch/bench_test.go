package sketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kmer"
)

func benchSketcher(b *testing.B) *Sketcher {
	b.Helper()
	sk, err := NewSketcher(Defaults())
	if err != nil {
		b.Fatal(err)
	}
	return sk
}

func BenchmarkHashFamily(b *testing.B) {
	hf := NewHashFamily(30, 1)
	x := kmer.Word(0x1234_5678_9abc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < 30; t++ {
			_ = hf.Hash(t, x)
		}
	}
}

func BenchmarkSubjectSketch(b *testing.B) {
	sk := benchSketcher(b)
	rng := rand.New(rand.NewSource(2))
	s := randDNA(rng, 100_000) // a long contig
	b.SetBytes(int64(len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.SubjectSketch(s)
	}
}

// BenchmarkQuerySketch sketches one end segment the way a mapping
// session does, through a reused QueryScratch: 0 allocs/op.
func BenchmarkQuerySketch(b *testing.B) {
	sk := benchSketcher(b)
	rng := rand.New(rand.NewSource(3))
	seg := randDNA(rng, 1000) // one end segment
	var sc QueryScratch
	b.SetBytes(int64(len(seg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.SketchQuery(&sc, seg)
	}
}

func benchPayloads(b *testing.B, ranks, subjectsPerRank int) (int, [][]byte) {
	b.Helper()
	sk := benchSketcher(b)
	rng := rand.New(rand.NewSource(4))
	var payloads [][]byte
	subj := int32(0)
	for r := 0; r < ranks; r++ {
		tb := NewTable(sk.Params().T)
		for s := 0; s < subjectsPerRank; s++ {
			words, anchors := sk.SubjectSketchPositional(randDNA(rng, 3000))
			tb.InsertPositional(subj, words, anchors)
			subj++
		}
		var buf bytes.Buffer
		if err := tb.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		payloads = append(payloads, buf.Bytes())
	}
	return sk.Params().T, payloads
}

func BenchmarkFreezePayloads(b *testing.B) {
	t, payloads := benchPayloads(b, 16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FreezePayloads(t, payloads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupFrozenVsMutable compares the two serving layouts on
// the same table at production-ish scale (≥100 indexed contigs): the
// sorted-array frozen form the sealed mapper serves from must not be
// slower than the Go-map form it replaced. The word mix is half hits
// (words actually in the table) and half misses, the realistic query
// profile.
func BenchmarkLookupFrozenVsMutable(b *testing.B) {
	sk := benchSketcher(b)
	rng := rand.New(rand.NewSource(6))
	tb := NewTable(sk.Params().T)
	for s := 0; s < 128; s++ {
		words, anchors := sk.SubjectSketchPositional(randDNA(rng, 3000))
		tb.InsertPositional(int32(s), words, anchors)
	}
	ft := tb.Freeze()
	var present []kmer.Word
	for t := 0; t < tb.T(); t++ {
		for w := range tb.trials[t] {
			present = append(present, w)
			if len(present) >= 512 {
				break
			}
		}
	}
	probes := make([]kmer.Word, 1024)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = present[rng.Intn(len(present))]
		} else {
			probes[i] = kmer.Word(rng.Uint64() & (1<<32 - 1))
		}
	}
	b.Run("mutable", func(b *testing.B) {
		var total int
		for i := 0; i < b.N; i++ {
			total += len(tb.Lookup(i%tb.T(), probes[i%len(probes)]))
		}
		_ = total
	})
	b.Run("frozen", func(b *testing.B) {
		var total int
		for i := 0; i < b.N; i++ {
			total += len(ft.Lookup(i%ft.T(), probes[i%len(probes)]))
		}
		_ = total
	})
}

// BenchmarkFreezeDirect measures the in-memory sealing path (what
// core.Mapper.Seal pays once at the end of indexing).
func BenchmarkFreezeDirect(b *testing.B) {
	sk := benchSketcher(b)
	rng := rand.New(rand.NewSource(7))
	tb := NewTable(sk.Params().T)
	for s := 0; s < 64; s++ {
		words, anchors := sk.SubjectSketchPositional(randDNA(rng, 3000))
		tb.InsertPositional(int32(s), words, anchors)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Freeze()
	}
}

func BenchmarkFrozenLookup(b *testing.B) {
	t, payloads := benchPayloads(b, 4, 16)
	ft, err := FreezePayloads(t, payloads)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	words := make([]kmer.Word, 1024)
	for i := range words {
		words[i] = kmer.Word(rng.Uint64() & (1<<32 - 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Lookup(i%t, words[i%len(words)])
	}
}

// BenchmarkShardedBuild measures FreezeSharded across shard counts —
// the concurrent partition+build path behind Options.Shards (compare
// the 1-shard row against BenchmarkFreezeDirect for the router's
// overhead).
func BenchmarkShardedBuild(b *testing.B) {
	sk := benchSketcher(b)
	rng := rand.New(rand.NewSource(7))
	tb := NewTable(sk.Params().T)
	for s := 0; s < 64; s++ {
		words, anchors := sk.SubjectSketchPositional(randDNA(rng, 3000))
		tb.InsertPositional(int32(s), words, anchors)
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", p), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.FreezeSharded(p, 0)
			}
		})
	}
}
