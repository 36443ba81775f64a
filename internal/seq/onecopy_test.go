package seq

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// diffParse reads data with Reader and with the frozen refReader side
// by side, resyncing both after a record error, and fails on the first
// difference in records, errors or Line(). It returns the number of
// Read calls made.
func diffParse(t testing.TB, data []byte) int {
	t.Helper()
	got, ref := NewReader(bytes.NewReader(data)), newRefReader(bytes.NewReader(data))
	for n := 1; ; n++ {
		a, aerr := got.Read()
		b, berr := ref.Read()
		if !sameRecord(a, b) || errText(aerr) != errText(berr) || got.Line() != ref.Line() {
			t.Fatalf("read %d differs:\n got %+v err=%v line=%d\n ref %+v err=%v line=%d",
				n, a, aerr, got.Line(), b, berr, ref.Line())
		}
		if aerr == nil {
			continue
		}
		if !IsRecordError(aerr) {
			return n
		}
		aerr, berr = got.Resync(), ref.Resync()
		if errText(aerr) != errText(berr) || got.Line() != ref.Line() {
			t.Fatalf("resync after read %d differs: got err=%v line=%d, ref err=%v line=%d",
				n, aerr, got.Line(), berr, ref.Line())
		}
		if aerr != nil {
			return n
		}
	}
}

// sameRecord is byte-for-byte equality, nil-ness of Seq and Qual
// included.
func sameRecord(a, b Record) bool {
	return a.ID == b.ID && a.Desc == b.Desc &&
		bytes.Equal(a.Seq, b.Seq) && (a.Seq == nil) == (b.Seq == nil) &&
		bytes.Equal(a.Qual, b.Qual) && (a.Qual == nil) == (b.Qual == nil)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func readOne(t *testing.T, in string) Record {
	t.Helper()
	rec, err := NewReader(strings.NewReader(in)).Read()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestFASTQLineLongerThanBuffer covers the accumulate fallback: a
// 200 kb sequence line does not fit the 64 KiB bufio buffer.
func TestFASTQLineLongerThanBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := []byte(strings.ToLower(string(randDNA(rng, 200_000))))
	q := bytes.Repeat([]byte{'I'}, len(s))
	in := "@long first\n" + string(s) + "\n+\n" + string(q) + "\n@short\nacgt\n+\nIIII\n"
	r := NewReader(strings.NewReader(in))
	rec, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.ToUpper(s); !bytes.Equal(rec.Seq, want) || !bytes.Equal(rec.Qual, q) {
		t.Fatalf("long record: seq %d bases (equal=%v), qual %d", len(rec.Seq), bytes.Equal(rec.Seq, want), len(rec.Qual))
	}
	if rec.ID != "long" || rec.Desc != "first" || r.Line() != 4 {
		t.Fatalf("long record: id %q desc %q line %d", rec.ID, rec.Desc, r.Line())
	}
	if rec, err = r.Read(); err != nil || string(rec.Seq) != "ACGT" || r.Line() != 8 {
		t.Fatalf("record after the long one: %+v err=%v line=%d", rec, err, r.Line())
	}
	diffParse(t, []byte(in))
}

func TestFASTQLowerCaseUpperCased(t *testing.T) {
	rec := readOne(t, "@r\nacgtnRyk\n+\nIIIIIIII\n")
	if string(rec.Seq) != "ACGTNRYK" || string(rec.Qual) != "IIIIIIII" {
		t.Fatalf("got seq %q qual %q", rec.Seq, rec.Qual)
	}
}

func TestCRLFLineEndings(t *testing.T) {
	rec := readOne(t, "@r desc\r\nACGT\r\n+\r\nII#I\r\n")
	if rec.ID != "r" || rec.Desc != "desc" || string(rec.Seq) != "ACGT" || string(rec.Qual) != "II#I" {
		t.Fatalf("fastq: %+v", rec)
	}
	rec = readOne(t, ">c x\r\nAC\r\ngt\r\n")
	if rec.ID != "c" || rec.Desc != "x" || string(rec.Seq) != "ACGT" {
		t.Fatalf("fasta: %+v", rec)
	}
}

// TestFASTQSeqAppendKeepsQual pins the 3-index cap on Seq: Seq and
// Qual share one buffer, and growing Seq must not write into Qual.
func TestFASTQSeqAppendKeepsQual(t *testing.T) {
	rec := readOne(t, "@r\nACGT\n+\n!#%'\n")
	grown := append(rec.Seq, 'T', 'T', 'T', 'T')
	if string(rec.Qual) != "!#%'" {
		t.Fatalf("append to Seq overwrote Qual: %q", rec.Qual)
	}
	if string(grown) != "ACGTTTTT" || string(rec.Seq) != "ACGT" {
		t.Fatalf("grown %q seq %q", grown, rec.Seq)
	}
}

// TestReaderMatchesReference compares the one-copy parser with the
// frozen ReadBytes parser on well-formed, malformed and truncated
// inputs, through every resync.
func TestReaderMatchesReference(t *testing.T) {
	inputs := []string{
		"@q1 d\nACGT\n+\nIIII\n@q2\nacgn\n+q2\nIIII\n",
		"@q\n\n+\n\n",
		"@q\nACGT\n+\nIII\n@r\nAC\n+\nII\n",
		"@q\nACGT\nIIII\n@r\nAC\n+\nII\n",
		"@q\r\n AC GT \r\n+\r\nI I I I\r\n",
		"@q\nACGT\n+\n",
		"@q\nACGT\n+\nIIII",
		"\n\n@a\nAC\n+\nII\n\n\n@b\nGG\n+\nII\n",
		">a desc\nACGT\nacgt\n>b\nNNNN\n",
		">a\n>b\nAC\n",
		">a\nAC>GT\n>b\nAC\n",
		"x\n@q\nAC\n+\nII\n",
		"@q\nAC\r\r\n+\nII\n",
		"@q\nACGT\n+\n@III\n@r\nAC\n+\nII\n",
	}
	for _, in := range inputs {
		diffParse(t, []byte(in))
	}
	rng := rand.New(rand.NewSource(11))
	var b strings.Builder
	for i := 0; i < 200; i++ {
		s := randDNA(rng, rng.Intn(300))
		for j := range s {
			switch rng.Intn(20) {
			case 0:
				s[j] = 'N'
			case 1:
				s[j] += 'a' - 'A'
			}
		}
		q := bytes.Repeat([]byte{'5'}, len(s)+rng.Intn(40)/39)
		eol := "\n"
		if rng.Intn(4) == 0 {
			eol = "\r\n"
		}
		b.WriteString("@r" + strings.Repeat("x", i%5) + " d" + eol + string(s) + eol + "+" + eol + string(q) + eol)
	}
	if n := diffParse(t, []byte(b.String())); n < 200 {
		t.Fatalf("only %d reads", n)
	}
}
