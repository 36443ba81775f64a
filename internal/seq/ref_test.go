package seq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// refReader is a frozen copy of the parser before FASTQ records were
// parsed with one copy: every line is read with bufio.ReadBytes, and
// the sequence and quality lines are copied separately. The one-copy
// Reader must return the same records, errors and line numbers.
type refReader struct {
	br     *bufio.Reader
	format Format
	line   int
	// Strict causes Read to fail on ambiguous (non-ACGT) bases. When
	// false (the default) such bases are preserved verbatim.
	Strict bool
}

// newRefReader wraps r in the reference parser.
func newRefReader(r io.Reader) *refReader {
	return &refReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Line returns the 1-based number of the last input line consumed —
// after a failed Read, the line where the problem was detected.
func (r *refReader) Line() int { return r.line }

func (r *refReader) sniff() error {
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return err
		}
		switch b {
		case '\n', '\r', ' ', '\t':
			continue
		case '>':
			r.format = FormatFASTA
		case '@':
			r.format = FormatFASTQ
		default:
			return &RecordError{Line: r.line + 1, Msg: fmt.Sprintf("cannot sniff format: leading byte %q", b)}
		}
		return r.br.UnreadByte()
	}
}

// Resync discards input up to the next plausible record start — a line
// beginning with the format's header byte ('>' for FASTA, '@' for
// FASTQ, either while the format is still unknown) — so a caller that
// chose to skip a malformed record (Read returned a RecordError) can
// continue reading. Returns io.EOF when the input ends first.
//
// Resynchronization is best-effort: a FASTQ quality line may
// legitimately begin with '@', so Resync can land on a non-header
// line. The next Read then reports another RecordError and the caller
// may Resync again; every failed Read/Resync pair consumes at least
// one line (or one byte), so the skip loop always terminates.
func (r *refReader) Resync() error {
	for {
		peek, err := r.br.Peek(1)
		if err != nil {
			return err // io.EOF at clean end of input
		}
		switch b := peek[0]; {
		case r.format == FormatFASTA && b == '>':
			return nil
		case r.format == FormatFASTQ && b == '@':
			return nil
		case r.format == FormatUnknown && (b == '>' || b == '@'):
			return nil
		}
		if _, err := r.readLine(); err != nil && err != io.EOF {
			return err
		}
	}
}

// readLine reads one line, stripping the trailing newline and CR.
func (r *refReader) readLine() ([]byte, error) {
	line, err := r.br.ReadBytes('\n')
	if len(line) > 0 {
		r.line++
		line = bytes.TrimRight(line, "\r\n")
		if err == io.EOF {
			err = nil
		}
	}
	return line, err
}

// Read returns the next record, or io.EOF when the input is exhausted.
func (r *refReader) Read() (Record, error) {
	if r.format == FormatUnknown {
		if err := r.sniff(); err != nil {
			if err == io.EOF {
				return Record{}, io.EOF
			}
			return Record{}, err
		}
	}
	switch r.format {
	case FormatFASTA:
		return r.readFASTA()
	default:
		return r.readFASTQ()
	}
}

func (r *refReader) readFASTA() (Record, error) {
	// Find the header line.
	var header []byte
	for {
		line, err := r.readLine()
		if err != nil {
			if err == io.EOF && len(line) == 0 {
				return Record{}, io.EOF
			}
			if err != nil && len(line) == 0 {
				return Record{}, err
			}
		}
		if len(line) == 0 {
			if err == io.EOF {
				return Record{}, io.EOF
			}
			continue
		}
		if line[0] != '>' {
			return Record{}, &RecordError{Line: r.line, Msg: fmt.Sprintf("expected FASTA header, got %q", line)}
		}
		header = line
		break
	}
	rec := Record{}
	rec.ID, rec.Desc = splitHeader(string(header[1:]))
	var sb bytes.Buffer
	atEOF := false
	for {
		peek, err := r.br.Peek(1)
		if err == io.EOF {
			atEOF = true
			break
		}
		if err != nil {
			return Record{}, err
		}
		if peek[0] == '>' {
			break
		}
		line, err := r.readLine()
		if err != nil && err != io.EOF {
			return Record{}, err
		}
		payload := bytes.TrimSpace(line)
		// A '>' inside sequence data means a malformed record (e.g. a
		// header preceded by whitespace); accepting it would corrupt
		// the stream on a write/read round trip.
		if bytes.IndexByte(payload, '>') >= 0 {
			return Record{}, &RecordError{Line: r.line, ID: rec.ID, Msg: "'>' inside sequence data"}
		}
		sb.Write(payload)
		if err == io.EOF {
			atEOF = true
			break
		}
	}
	// A header whose sequence never arrived before EOF is a truncated
	// record (chopped download, partial write) — reporting it beats
	// silently serving an empty sequence.
	if atEOF && sb.Len() == 0 {
		return Record{}, &RecordError{Line: r.line, ID: rec.ID,
			Msg: "truncated FASTA record: header without sequence data at EOF"}
	}
	rec.Seq = Upper(sb.Bytes())
	if err := r.check(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

func (r *refReader) readFASTQ() (Record, error) {
	var header []byte
	for {
		line, err := r.readLine()
		if err != nil {
			if len(line) == 0 {
				if err == io.EOF {
					return Record{}, io.EOF
				}
				return Record{}, err
			}
		}
		if len(line) == 0 {
			continue
		}
		if line[0] != '@' {
			return Record{}, &RecordError{Line: r.line, Msg: fmt.Sprintf("expected FASTQ header, got %q", line)}
		}
		header = line
		break
	}
	rec := Record{}
	rec.ID, rec.Desc = splitHeader(string(header[1:]))

	// A FASTQ record is exactly four lines. EOF before all four exist
	// is a truncated final record and must be an error, not a silent
	// accept (e.g. "@r\n\n+\n" used to parse as an empty record) or a
	// confusing structural message. readLine signals a missing line as
	// (empty, io.EOF); a present-but-empty line comes back (empty, nil).
	truncated := func(missing string) error {
		return &RecordError{Line: r.line, ID: rec.ID,
			Msg: fmt.Sprintf("truncated FASTQ record: unexpected EOF before %s line", missing)}
	}
	seqLine, err := r.readLine()
	if err != nil && err != io.EOF {
		return Record{}, err
	}
	if err == io.EOF && len(seqLine) == 0 {
		return Record{}, truncated("sequence")
	}
	plus, err := r.readLine()
	if err != nil && err != io.EOF {
		return Record{}, err
	}
	if err == io.EOF && len(plus) == 0 {
		return Record{}, truncated("'+' separator")
	}
	if len(plus) == 0 || plus[0] != '+' {
		return Record{}, &RecordError{Line: r.line, ID: rec.ID, Msg: "expected '+' separator"}
	}
	qualLine, err := r.readLine()
	if err != nil && err != io.EOF {
		return Record{}, err
	}
	if err == io.EOF && len(qualLine) == 0 {
		return Record{}, truncated("quality")
	}
	rec.Seq = Upper(append([]byte(nil), bytes.TrimSpace(seqLine)...))
	rec.Qual = append([]byte(nil), bytes.TrimSpace(qualLine)...)
	if len(rec.Qual) != len(rec.Seq) {
		return Record{}, &RecordError{Line: r.line, ID: rec.ID,
			Msg: fmt.Sprintf("qual length %d != seq length %d", len(rec.Qual), len(rec.Seq))}
	}
	if err := r.check(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

func (r *refReader) check(rec Record) error {
	if r.Strict && !IsValid(rec.Seq) {
		return &RecordError{Line: r.line, ID: rec.ID, Msg: "contains non-ACGT bases"}
	}
	return nil
}
