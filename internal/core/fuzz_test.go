package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzReadIndex asserts the index deserializer never panics or
// over-allocates on arbitrary bytes and that accepted indexes
// round-trip. Retired JEMIDX02/03 magics (seeds, and the committed
// corpus entry) exercise the ErrIndexFormat rejection.
func FuzzReadIndex(f *testing.F) {
	// Sealed JEMIDX06 indexes, the one-shard (monolithic) and a
	// multi-shard layout, over two short contigs: small seeds keep the
	// fuzzer's input minimization fast.
	_, contigs, _, _ := makeWorld(f, rand.New(rand.NewSource(3)), 600, 300, 0)
	for _, p := range []int{1, 3} {
		m, err := NewMapper(smallParams())
		if err != nil {
			f.Fatal(err)
		}
		m.AddSubjects(contigs)
		m.SealSharded(p, 0)
		var buf bytes.Buffer
		if err := m.WriteIndex(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("JEMIDX02"))
	f.Add([]byte("JEMIDX03"))
	f.Add(bytes.Repeat([]byte{0xFF}, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.WriteIndex(&out); err != nil {
			t.Fatalf("re-encode of accepted index failed: %v", err)
		}
		again, err := ReadIndex(&out)
		if err != nil {
			t.Fatalf("decode of re-encoding failed: %v", err)
		}
		if again.NumSubjects() != got.NumSubjects() ||
			again.Entries() != got.Entries() ||
			again.Sketcher().Params() != got.Sketcher().Params() {
			t.Fatal("unstable index round trip")
		}
	})
}
