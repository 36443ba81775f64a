package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/minimizer"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// indexMagic opens every index file: JEMIDX06, the out-of-core
// sharded layout (see index06.go). A CRC-footed manifest records the
// sketch parameters, subject metadata, a page size and a per-shard
// file offset, length and checksum; every shard payload is
// page-aligned and encoded in the flat (offset-table) frozen layout,
// so shards can be served directly from a read-only mmap of the file
// — zero-copy, faulted in per shard, pages shared across processes.
// A one-shard file is the monolithic index.
var (
	indexMagic        = [8]byte{'J', 'E', 'M', 'I', 'D', 'X', '0', '6'}
	errIndexTruncated = errors.New("core: index truncated: missing checksum footer")
)

// maxShardPayload bounds a single shard's serialized size as declared
// by an untrusted manifest; payloads are read with io.CopyN so a
// corrupt length fails at EOF rather than driving a giant allocation.
const maxShardPayload = 1 << 36

// ErrIndexChecksum marks an index whose manifest or shard payload does
// not match its checksum — the file was corrupted after it was
// written. Callers holding the original contigs can detect this with
// errors.Is and rebuild the index from scratch.
var ErrIndexChecksum = errors.New("core: index checksum mismatch")

// ErrIndexFormat marks an index written in a retired format: the
// pre-JEMIDX06 layouts JEMIDX02–05, which this build no longer reads.
// Callers holding the original contigs recover as for
// ErrIndexChecksum, by rebuilding the index.
var ErrIndexFormat = errors.New("core: unsupported index format")

// readMagic consumes and checks an index file's 8-byte magic: JEMIDX06
// passes, a retired JEMIDX02–05 magic fails with ErrIndexFormat, and
// anything else is not an index.
func readMagic(r io.Reader) error {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("core: reading index magic: %w", err)
	}
	switch {
	case magic == indexMagic:
		return nil
	case string(magic[:7]) == "JEMIDX0" && magic[7] >= '2' && magic[7] <= '5':
		return fmt.Errorf("%w: %q predates JEMIDX06; rebuild the index from its contigs", ErrIndexFormat, magic[:])
	default:
		return fmt.Errorf("core: not a JEM index (magic %q)", magic[:])
	}
}

// WriteIndex serializes a sealed mapper — sketch parameters, subject
// metadata and its sharded table — in the JEMIDX06 layout, so an index
// built once can be reused across runs (jem-mapper -save-index /
// -load-index). The format is little-endian binary, stable across
// platforms, and checksum-protected. An unsealed mapper has no serving
// table to write and fails, as does a remote one (its postings live in
// the shard servers).
func (m *Mapper) WriteIndex(w io.Writer) error {
	if m.sharded == nil {
		return fmt.Errorf("core: WriteIndex needs a sealed mapper with a local table; seal it first")
	}
	return m.writeIndex06(w)
}

// writeIndexMeta encodes the params and subject metadata at the head
// of the JEMIDX06 manifest.
func (m *Mapper) writeIndexMeta(w io.Writer) error {
	p := m.sk.Params()
	for _, v := range []uint64{
		uint64(p.K), uint64(p.W), uint64(p.T), uint64(p.L),
		uint64(p.Seed), uint64(p.Order),
	} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(m.subjects))); err != nil {
		return err
	}
	for _, s := range m.subjects {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(s.Name))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, s.Name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(s.Length)); err != nil {
			return err
		}
	}
	return nil
}

// WriteIndexFile writes the index to path atomically: the bytes go to
// a temporary file in the same directory, are synced to stable
// storage, and only then renamed over path. A crash, disk-full error
// or kill mid-write leaves either the old file or no file — never a
// partial index that a later run would try to serve.
func (m *Mapper) WriteIndexFile(path string) (retErr error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if retErr != nil {
			_ = os.Remove(tmp.Name())
		}
	}()
	// fault.Writer lets tests inject ENOSPC/stalls into the index write
	// path; it is the identity when no fault is armed.
	if err := m.WriteIndex(fault.Writer(tmp)); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// IndexByteFlip corrupts the fully written temp file before the
	// rename — the scenario the index checksums exist to catch.
	if _, ok := fault.Fire(fault.IndexByteFlip); ok {
		if err := fault.FlipFileByte(tmp.Name()); err != nil {
			return err
		}
	}
	return os.Rename(tmp.Name(), path)
}

// ReadIndex deserializes a mapper previously written by WriteIndex,
// onto the heap. The manifest and every shard payload are
// checksum-verified before decoding (a mismatch returns an error
// wrapping ErrIndexChecksum); a retired JEMIDX02–05 file fails with
// ErrIndexFormat. The mapper loads sealed.
func ReadIndex(r io.Reader) (*Mapper, error) {
	return ReadIndexObserved(r, nil)
}

// ReadIndexObserved is ReadIndex with an optional span under which the
// per-shard decodes are timed (one child span per shard); sp may be
// nil.
func ReadIndexObserved(r io.Reader, sp *obs.Span) (*Mapper, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if err := readMagic(br); err != nil {
		return nil, err
	}
	return readSharded06(br, sp)
}

// readIndexMeta decodes the params and subject metadata at the head of
// the manifest, returning a fresh mapper carrying them. It reads exact
// lengths only (no lookahead), so it is safe to run through a
// checksumming TeeReader.
func readIndexMeta(r io.Reader) (*Mapper, sketch.Params, error) {
	var raw [6]uint64
	for i := range raw {
		if err := binary.Read(r, binary.LittleEndian, &raw[i]); err != nil {
			return nil, sketch.Params{}, fmt.Errorf("core: reading index params: %w", err)
		}
	}
	p := sketch.Params{
		K: int(raw[0]), W: int(raw[1]), T: int(raw[2]), L: int(raw[3]),
		Seed: int64(raw[4]),
	}
	p.Order = minimizer.Ordering(raw[5])
	if err := p.Validate(); err != nil {
		return nil, p, fmt.Errorf("core: index carries invalid params: %w", err)
	}
	m, err := NewMapper(p)
	if err != nil {
		return nil, p, err
	}
	var nsubj uint32
	if err := binary.Read(r, binary.LittleEndian, &nsubj); err != nil {
		return nil, p, err
	}
	if nsubj > 1<<28 {
		return nil, p, fmt.Errorf("core: implausible subject count %d", nsubj)
	}
	m.subjects = make([]SubjectMeta, 0, min32(nsubj, 1<<16))
	for i := uint32(0); i < nsubj; i++ {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, p, err
		}
		if nameLen > 1<<16 {
			return nil, p, fmt.Errorf("core: implausible subject name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, p, err
		}
		var length uint32
		if err := binary.Read(r, binary.LittleEndian, &length); err != nil {
			return nil, p, err
		}
		m.subjects = append(m.subjects, SubjectMeta{Name: string(name), Length: int32(length)})
	}
	return m, p, nil
}

// shardedManifest is a decoded, checksum-verified JEMIDX06 manifest:
// the meta-only mapper carrying params and subjects, the shard
// directory (an absolute file offset per shard, so payloads can be
// addressed in place), and the manifest checksum — which doubles as
// the index fingerprint a distributed fleet agrees on (see IndexMeta).
type shardedManifest struct {
	m           *Mapper
	p           sketch.Params
	lens        []uint64
	crcs        []uint32
	offs        []uint64 // absolute file offset per payload
	page        uint32   // payload alignment the writer used
	end         int64    // file offset just past the footer
	manifestCRC uint32
}

// meta projects the manifest onto its distributed-serving identity.
func (man *shardedManifest) meta() IndexMeta {
	return IndexMeta{
		Shards:      len(man.lens),
		T:           man.p.T,
		NumSubjects: len(man.m.subjects),
		ManifestCRC: man.manifestCRC,
	}
}

// countingReader counts the bytes consumed from the underlying reader
// so the manifest reader can report where in the file the manifest
// ends (the directory offsets are absolute and must land past it).
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// readShardedManifest decodes a JEMIDX06 manifest after its magic,
// reading through a checksumming tee and verifying the footer before
// any directory entry is trusted. On return the stream is positioned
// just past the manifest footer.
func readShardedManifest(br *bufio.Reader) (*shardedManifest, error) {
	h := crc32.NewIEEE()
	_, _ = h.Write(indexMagic[:])
	cr := &countingReader{r: br}
	tee := io.TeeReader(cr, h)
	m, p, err := readIndexMeta(tee)
	if err != nil {
		return nil, err
	}
	var nshards uint32
	if err := binary.Read(tee, binary.LittleEndian, &nshards); err != nil {
		return nil, fmt.Errorf("core: reading shard count: %w", err)
	}
	if nshards == 0 || nshards > sketch.MaxShards {
		return nil, fmt.Errorf("core: implausible shard count %d", nshards)
	}
	var page uint32
	if err := binary.Read(tee, binary.LittleEndian, &page); err != nil {
		return nil, fmt.Errorf("core: reading payload page size: %w", err)
	}
	if page == 0 || page&(page-1) != 0 || page > 1<<22 {
		return nil, fmt.Errorf("core: implausible payload page size %d", page)
	}
	lens := make([]uint64, nshards)
	crcs := make([]uint32, nshards)
	offs := make([]uint64, nshards)
	for i := range lens {
		if err := binary.Read(tee, binary.LittleEndian, &offs[i]); err != nil {
			return nil, fmt.Errorf("core: reading shard %d directory entry: %w", i, err)
		}
		if err := binary.Read(tee, binary.LittleEndian, &lens[i]); err != nil {
			return nil, fmt.Errorf("core: reading shard %d directory entry: %w", i, err)
		}
		if err := binary.Read(tee, binary.LittleEndian, &crcs[i]); err != nil {
			return nil, fmt.Errorf("core: reading shard %d directory entry: %w", i, err)
		}
		if lens[i] > maxShardPayload {
			return nil, fmt.Errorf("core: implausible shard %d payload length %d", i, lens[i])
		}
	}
	want := h.Sum32()
	var footer uint32
	// The footer is read off cr directly: counted, but it must not feed
	// the hash.
	if err := binary.Read(cr, binary.LittleEndian, &footer); err != nil {
		return nil, fmt.Errorf("core: reading manifest checksum: %w", err)
	}
	if want != footer {
		return nil, fmt.Errorf("%w: manifest computed %08x, footer says %08x", ErrIndexChecksum, want, footer)
	}
	// The magic is consumed before the counter starts.
	man := &shardedManifest{m: m, p: p, lens: lens, crcs: crcs, offs: offs, page: page, end: 8 + cr.n, manifestCRC: want}
	prev := uint64(man.end)
	for i, off := range offs {
		if off%8 != 0 {
			return nil, fmt.Errorf("core: shard %d payload offset %d is not 8-aligned", i, off)
		}
		if off < prev {
			return nil, fmt.Errorf("core: shard %d payload offset %d overlaps preceding data ending at %d", i, off, prev)
		}
		prev = off + lens[i]
	}
	return man, nil
}

// ReadIndexFile loads an index from disk via ReadIndex.
func ReadIndexFile(path string) (*Mapper, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := ReadIndex(f)
	if err != nil {
		return nil, fmt.Errorf("core: index %s: %w", path, err)
	}
	return m, nil
}

func min32(a uint32, b int) int {
	if int(a) < b {
		return int(a)
	}
	return b
}
