package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/seq"
	"repro/internal/sketch"
)

// TestIndexRoundTrip: an unsealed mapper has no serving table and
// refuses to write; once sealed, its index round-trips subject
// metadata, params, entries and every mapping decision.
func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	var contigs []seq.Record
	for i := 0; i < 25; i++ {
		contigs = append(contigs, seq.Record{
			ID:  fmt.Sprintf("contig_%d", i),
			Seq: randDNA(rng, 400+rng.Intn(1500)),
		})
	}
	p := smallParams()
	orig, err := NewMapper(p)
	if err != nil {
		t.Fatal(err)
	}
	orig.AddSubjects(contigs)

	var buf bytes.Buffer
	if err := orig.WriteIndex(&buf); err == nil || buf.Len() != 0 {
		t.Fatalf("unsealed WriteIndex: err=%v after %d bytes, want an error before any byte", err, buf.Len())
	}
	orig.Seal()
	if err := orig.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumSubjects() != orig.NumSubjects() {
		t.Fatalf("subjects %d != %d", loaded.NumSubjects(), orig.NumSubjects())
	}
	for i := int32(0); int(i) < orig.NumSubjects(); i++ {
		if loaded.Subject(i) != orig.Subject(i) {
			t.Fatalf("subject %d metadata differs", i)
		}
	}
	if loaded.Entries() != orig.Entries() {
		t.Fatalf("entries %d != %d", loaded.Entries(), orig.Entries())
	}
	if loaded.Sketcher().Params() != orig.Sketcher().Params() {
		t.Fatalf("params differ")
	}
	// Identical mapping decisions, including positional ones.
	s1, s2 := orig.NewSession(), loaded.NewSession()
	for i := 0; i < 40; i++ {
		var seg []byte
		if i%2 == 0 {
			c := contigs[rng.Intn(len(contigs))].Seq
			off := rng.Intn(len(c)/2 + 1)
			end := off + p.L
			if end > len(c) {
				end = len(c)
			}
			seg = c[off:end]
		} else {
			seg = randDNA(rng, p.L)
		}
		h1, ok1 := s1.MapSegmentPositional(seg)
		h2, ok2 := s2.MapSegmentPositional(seg)
		if ok1 != ok2 || h1 != h2 {
			t.Fatalf("segment %d: %v,%v != %v,%v", i, h1, ok1, h2, ok2)
		}
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadIndex(bytes.NewReader([]byte("NOTANINDEXATALL!"))); err == nil {
		t.Error("bad magic should fail")
	}
	// Valid magic, truncated body.
	var buf bytes.Buffer
	buf.Write(indexMagic[:])
	buf.Write([]byte{1, 2, 3})
	if _, err := ReadIndex(&buf); err == nil {
		t.Error("truncated index should fail")
	}
}

func TestReadIndexRejectsBadParams(t *testing.T) {
	m, _ := NewMapper(smallParams())
	m.Seal()
	var buf bytes.Buffer
	if err := m.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Corrupt K (first param word after the 8-byte magic) to zero.
	for i := 8; i < 16; i++ {
		b[i] = 0
	}
	if _, err := ReadIndex(bytes.NewReader(b)); err == nil {
		t.Error("invalid params should fail")
	}
}

// TestIndexRoundTripSealed: a sealed mapper writes a one-shard JEMIDX06
// index and loads back as a sealed one-shard mapper with identical
// mapping behaviour.
func TestIndexRoundTripSealed(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	var contigs []seq.Record
	for i := 0; i < 25; i++ {
		contigs = append(contigs, seq.Record{
			ID:  fmt.Sprintf("contig_%d", i),
			Seq: randDNA(rng, 400+rng.Intn(1500)),
		})
	}
	p := smallParams()
	orig, err := NewMapper(p)
	if err != nil {
		t.Fatal(err)
	}
	orig.AddSubjects(contigs)
	orig.Seal()

	var buf bytes.Buffer
	if err := orig.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Sealed() || loaded.Shards() != 1 || loaded.Frozen() == nil || loaded.Table() != nil {
		t.Fatal("one-shard index did not load as a sealed one-shard mapper")
	}
	if loaded.Entries() != orig.Entries() {
		t.Fatalf("entries %d != %d", loaded.Entries(), orig.Entries())
	}
	if loaded.NumSubjects() != orig.NumSubjects() {
		t.Fatalf("subjects %d != %d", loaded.NumSubjects(), orig.NumSubjects())
	}
	compareMappers(t, rng, contigs, orig, loaded)
}

// TestIndexRoundTripDistributedFrozen is the regression test for the
// empty-index bug: a driver that registers subjects, gathers per-rank
// payloads and installs the merged result once saved an index whose
// table section was the untouched (empty) mutable table. The full
// gather -> SetSharded -> save -> load -> map loop must work.
func TestIndexRoundTripDistributedFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	var contigs []seq.Record
	for i := 0; i < 24; i++ {
		contigs = append(contigs, seq.Record{
			ID:  fmt.Sprintf("contig_%d", i),
			Seq: randDNA(rng, 500+rng.Intn(1000)),
		})
	}
	p := smallParams()
	m, err := NewMapper(p)
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterSubjects(contigs)
	// Two "ranks" sketch half the contigs each; their encoded payloads
	// are allgathered and merged, exactly as internal/dist does it.
	var payloads [][]byte
	for r := 0; r < 2; r++ {
		tb := sketch.NewTable(p.T)
		for i := r * 12; i < (r+1)*12; i++ {
			tb.Insert(int32(i), m.Sketcher().SubjectSketch(contigs[i].Seq))
		}
		var pb bytes.Buffer
		if err := tb.Encode(&pb); err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, pb.Bytes())
	}
	ft, err := sketch.FreezePayloads(p.T, payloads)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := sketch.NewShardedFrozen([]*sketch.FrozenTable{ft})
	if err != nil {
		t.Fatal(err)
	}
	m.SetSharded(sf)

	var buf bytes.Buffer
	if err := m.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Entries() == 0 {
		t.Fatal("regression: saved index lost the gathered table (0 entries)")
	}
	if loaded.Entries() != ft.Entries() {
		t.Fatalf("entries %d != gathered %d", loaded.Entries(), ft.Entries())
	}
	compareMappers(t, rng, contigs, m, loaded)
}

// TestIndexLegacyJEMIDX02Load: a file in the retired JEMIDX02 layout
// (no table-kind byte, mutable-table body) is refused by every index
// reader with ErrIndexFormat, the error load-or-rebuild callers rebuild
// on.
func TestIndexLegacyJEMIDX02Load(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	var contigs []seq.Record
	for i := 0; i < 15; i++ {
		contigs = append(contigs, seq.Record{
			ID:  fmt.Sprintf("contig_%d", i),
			Seq: randDNA(rng, 400+rng.Intn(800)),
		})
	}
	p := smallParams()
	orig, err := NewMapper(p)
	if err != nil {
		t.Fatal(err)
	}
	orig.AddSubjects(contigs)

	// Hand-write the legacy body: 6 param words, subject metadata,
	// then the mutable table with no kind byte.
	var buf bytes.Buffer
	for _, v := range []uint64{
		uint64(p.K), uint64(p.W), uint64(p.T), uint64(p.L),
		uint64(p.Seed), uint64(p.Order),
	} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := binary.Write(&buf, binary.LittleEndian, uint32(orig.NumSubjects())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < orig.NumSubjects(); i++ {
		s := orig.Subject(int32(i))
		if err := binary.Write(&buf, binary.LittleEndian, uint32(len(s.Name))); err != nil {
			t.Fatal(err)
		}
		buf.WriteString(s.Name)
		if err := binary.Write(&buf, binary.LittleEndian, uint32(s.Length)); err != nil {
			t.Fatal(err)
		}
	}
	if err := orig.Table().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	assertLegacyRejected(t, "JEMIDX02", buf.Bytes())
}

// assertLegacyRejected writes body under a retired magic and asserts
// that every index reader — stream, file, heap and mmap opens, manifest
// and shard-subset reads — refuses the file with ErrIndexFormat.
func assertLegacyRejected(t *testing.T, magic string, body []byte) {
	t.Helper()
	data := append([]byte(magic), body...)
	path := filepath.Join(t.TempDir(), "legacy.jem")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	all := func(int) bool { return true }
	check := func(reader string, err error) {
		t.Helper()
		if !errors.Is(err, ErrIndexFormat) {
			t.Errorf("%s: %s error = %v, want ErrIndexFormat", magic, reader, err)
		}
	}
	_, err := ReadIndex(bytes.NewReader(data))
	check("ReadIndex", err)
	_, err = ReadIndexFile(path)
	check("ReadIndexFile", err)
	for _, mode := range []MemoryMode{MemoryHeap, MemoryMMap} {
		_, _, _, err = OpenIndexFile(path, MemorySpec{Mode: mode})
		check("OpenIndexFile/"+mode.String(), err)
		_, _, _, err = OpenShardSubset(path, all, MemorySpec{Mode: mode})
		check("OpenShardSubset/"+mode.String(), err)
	}
	_, _, err = ReadIndexMetaFile(path)
	check("ReadIndexMetaFile", err)
	_, _, err = ReadShardSubsetFile(path, all)
	check("ReadShardSubsetFile", err)
}

// sealedIndexBody returns the bytes after the magic of a sealed
// p-shard index: a well-formed payload for stamping with a retired
// magic, so a rejection proves the readers check the magic first.
func sealedIndexBody(t *testing.T, p int) []byte {
	t.Helper()
	m, _ := shardedIndexMapper(t, p)
	var buf bytes.Buffer
	if err := m.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[8:]
}

// compareMappers asserts two mappers agree on a mix of on-contig and
// random segments, positionally.
func compareMappers(t *testing.T, rng *rand.Rand, contigs []seq.Record, a, b *Mapper) {
	t.Helper()
	p := a.Sketcher().Params()
	s1, s2 := a.NewSession(), b.NewSession()
	for i := 0; i < 40; i++ {
		var seg []byte
		if i%2 == 0 {
			c := contigs[rng.Intn(len(contigs))].Seq
			off := rng.Intn(len(c)/2 + 1)
			end := off + p.L
			if end > len(c) {
				end = len(c)
			}
			seg = c[off:end]
		} else {
			seg = randDNA(rng, p.L)
		}
		h1, ok1 := s1.MapSegmentPositional(seg)
		h2, ok2 := s2.MapSegmentPositional(seg)
		if ok1 != ok2 || h1 != h2 {
			t.Fatalf("segment %d: %v,%v != %v,%v", i, h1, ok1, h2, ok2)
		}
	}
}
