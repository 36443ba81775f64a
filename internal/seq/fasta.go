package seq

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// RecordError is a structural parse error in FASTA/FASTQ input — a
// malformed or truncated record — as opposed to an I/O failure of the
// underlying stream. Streaming callers use the distinction to skip or
// quarantine bad records and continue (via Resync); an error that is
// NOT a RecordError means the stream itself is broken and cannot be
// resumed.
type RecordError struct {
	// Line is the 1-based input line where the problem was detected.
	Line int
	// ID is the record's ID when the header had been parsed, else "".
	ID string
	// Msg describes the structural problem.
	Msg string
}

func (e *RecordError) Error() string {
	if e.ID != "" {
		return fmt.Sprintf("seq: line %d: record %q: %s", e.Line, e.ID, e.Msg)
	}
	return fmt.Sprintf("seq: line %d: %s", e.Line, e.Msg)
}

// IsRecordError reports whether err is (or wraps) a RecordError.
func IsRecordError(err error) bool {
	var re *RecordError
	return errors.As(err, &re)
}

// Format identifies a sequence file format.
type Format int

const (
	// FormatUnknown is returned when the format cannot be sniffed.
	FormatUnknown Format = iota
	// FormatFASTA is the '>'-header format.
	FormatFASTA
	// FormatFASTQ is the 4-line '@'-header format.
	FormatFASTQ
)

func (f Format) String() string {
	switch f {
	case FormatFASTA:
		return "fasta"
	case FormatFASTQ:
		return "fastq"
	default:
		return "unknown"
	}
}

// Reader streams Records from FASTA or FASTQ input. The format is
// sniffed from the first non-empty byte.
type Reader struct {
	br     *bufio.Reader
	format Format
	line   int
	// long accumulates a line longer than br's buffer.
	long []byte
	// Strict causes Read to fail on ambiguous (non-ACGT) bases. When
	// false (the default) such bases are preserved verbatim.
	Strict bool
}

// NewReader wraps r in a sequence Reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Format returns the sniffed format, available after the first Read.
func (r *Reader) Format() Format { return r.format }

// Line returns the 1-based number of the last input line consumed —
// after a failed Read, the line where the problem was detected.
func (r *Reader) Line() int { return r.line }

func (r *Reader) sniff() error {
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
func (r *Reader) Resync() error {
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

func splitHeader(line string) (id, desc string) {
	line = strings.TrimSpace(line)
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		return line[:i], strings.TrimSpace(line[i+1:])
	}
	return line, ""
}

// readLine reads one line, stripping the trailing newline and CR. The
// line aliases the reader's buffers and is valid only until the next
// read: callers copy what they keep.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// A line longer than the buffer: accumulate it.
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
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
func (r *Reader) Read() (Record, error) {
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

func (r *Reader) readFASTA() (Record, error) {
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

func (r *Reader) readFASTQ() (Record, error) {
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
	// The record's one copy: the sequence line, upper-cased, into a
	// buffer that keeps room for the qualities behind it. seqLine
	// aliases the reader's buffer, so the copy comes before the next
	// readLine.
	trimmed := bytes.TrimSpace(seqLine)
	n := len(trimmed)
	var buf []byte
	if n > 0 {
		buf = make([]byte, n, 2*n)
		upperInto(buf, trimmed)
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
	qual := bytes.TrimSpace(qualLine)
	if len(qual) != n {
		return Record{}, &RecordError{Line: r.line, ID: rec.ID,
			Msg: fmt.Sprintf("qual length %d != seq length %d", len(qual), n)}
	}
	// The 3-index slice caps Seq so that appending to it reallocates
	// instead of overwriting Qual.
	rec.Seq = buf[:n:n]
	rec.Qual = append(buf[n:n], qual...)
	if err := r.check(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

func (r *Reader) check(rec Record) error {
	if r.Strict && !IsValid(rec.Seq) {
		return &RecordError{Line: r.line, ID: rec.ID, Msg: "contains non-ACGT bases"}
	}
	return nil
}

// ReadAll reads every record from r until EOF.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// ReadFile reads all records from a FASTA or FASTQ file on disk.
// Files ending in ".gz" are decompressed transparently.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var src io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("seq: %s: %w", path, err)
		}
		defer gz.Close()
		src = gz
	}
	recs, err := NewReader(src).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("seq: %s: %w", path, err)
	}
	return recs, nil
}

// WriteFASTA writes records in FASTA format with the given line width
// (width <= 0 means a single line per sequence).
func WriteFASTA(w io.Writer, records []Record, width int) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for i := range records {
		rec := &records[i]
		if rec.Desc != "" {
			fmt.Fprintf(bw, ">%s %s\n", rec.ID, rec.Desc)
		} else {
			fmt.Fprintf(bw, ">%s\n", rec.ID)
		}
		s := rec.Seq
		if width <= 0 {
			bw.Write(s)
			bw.WriteByte('\n')
			continue
		}
		for len(s) > 0 {
			n := width
			if n > len(s) {
				n = len(s)
			}
			bw.Write(s[:n])
			bw.WriteByte('\n')
			s = s[n:]
		}
	}
	return bw.Flush()
}

// WriteFASTQ writes records in FASTQ format. Records lacking qualities
// get a constant high quality ('I', Q40).
func WriteFASTQ(w io.Writer, records []Record) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for i := range records {
		rec := &records[i]
		if rec.Desc != "" {
			fmt.Fprintf(bw, "@%s %s\n", rec.ID, rec.Desc)
		} else {
			fmt.Fprintf(bw, "@%s\n", rec.ID)
		}
		bw.Write(rec.Seq)
		bw.WriteString("\n+\n")
		if rec.Qual != nil {
			bw.Write(rec.Qual)
		} else {
			for range rec.Seq {
				bw.WriteByte('I')
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteFASTAFile writes records to path in FASTA format (80-col
// lines), gzip-compressed when path ends in ".gz".
func WriteFASTAFile(path string, records []Record) error {
	return writeFile(path, func(w io.Writer) error { return WriteFASTA(w, records, 80) })
}

// WriteFASTQFile writes records to path in FASTQ format,
// gzip-compressed when path ends in ".gz".
func WriteFASTQFile(path string, records []Record) error {
	return writeFile(path, func(w io.Writer) error { return WriteFASTQ(w, records) })
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var dst io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		dst = gz
	}
	if err := write(dst); err != nil {
		if gz != nil {
			_ = gz.Close() // the write error is the one to report
		}
		_ = f.Close()
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			_ = f.Close() // the gzip-flush error is the one to report
			return err
		}
	}
	return f.Close()
}
