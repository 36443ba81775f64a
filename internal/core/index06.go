package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sketch"
)

// JEMIDX06 is the out-of-core index layout:
//
//	magic "JEMIDX06"
//	manifest: params (6×u64), subjects, shard count (u32),
//	          payload page size (u32),
//	          per shard {file offset u64, payload length u64, CRC32 u32}
//	manifest CRC32 (u32, over magic+manifest, footer not self-included)
//	per-shard flat payloads (FrozenTable.EncodeFlat), each starting at
//	its directory offset, page-aligned, gaps zero-filled
//
// Because every payload is the flat serving layout at a page-aligned
// file offset, a reader can mmap the whole file read-only and alias
// each shard's arrays in place: no decode allocation, demand paging
// per shard, and physical pages shared between every process mapping
// the same file. The same file still loads fine through the plain
// streaming reader on hosts without mmap. It is the only index format;
// older files fail with ErrIndexFormat (see readMagic).
const indexPageSize = 4096

func alignPage(x int64) int64 { return (x + indexPageSize - 1) &^ (indexPageSize - 1) }

// sealedShardTables gathers the sealed mapper's per-shard tables for
// serialization, forcing any lazy shard in — an index cannot be
// written from payloads that fail their checksum.
func (m *Mapper) sealedShardTables() ([]*sketch.FrozenTable, error) {
	out := make([]*sketch.FrozenTable, m.sharded.NumShards())
	for i := range out {
		ft, err := m.sharded.ShardChecked(i)
		if err != nil {
			return nil, fmt.Errorf("core: materializing shard %d for write: %w", i, err)
		}
		out[i] = ft
	}
	return out, nil
}

// writeIndex06 emits the JEMIDX06 layout. Shard payloads are encoded
// concurrently; the file ends at the last payload byte (no trailing
// pad), and the zero-filled alignment gaps cost nothing once mapped —
// untouched pages are never faulted in.
func (m *Mapper) writeIndex06(w io.Writer) error {
	tables, err := m.sealedShardTables()
	if err != nil {
		return err
	}
	n := len(tables)
	payloads := make([][]byte, n)
	parallel.ForEach(n, 0, func(i int) {
		payloads[i] = tables[i].EncodeFlat()
	})
	var metaBuf bytes.Buffer
	if err := m.writeIndexMeta(&metaBuf); err != nil {
		return err
	}
	// magic + meta + shard count + page size + n×{off,len,crc} + footer
	manifestLen := int64(8) + int64(metaBuf.Len()) + 4 + 4 + int64(n)*20 + 4
	offs := make([]uint64, n)
	off := alignPage(manifestLen)
	for i := range payloads {
		offs[i] = uint64(off)
		off += int64(len(payloads[i]))
		if i < n-1 {
			off = alignPage(off)
		}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	h := crc32.NewIEEE()
	hw := io.MultiWriter(bw, h)
	if _, err := hw.Write(indexMagic[:]); err != nil {
		return err
	}
	if _, err := hw.Write(metaBuf.Bytes()); err != nil {
		return err
	}
	if err := binary.Write(hw, binary.LittleEndian, uint32(n)); err != nil {
		return err
	}
	if err := binary.Write(hw, binary.LittleEndian, uint32(indexPageSize)); err != nil {
		return err
	}
	for i, pl := range payloads {
		if err := binary.Write(hw, binary.LittleEndian, offs[i]); err != nil {
			return err
		}
		if err := binary.Write(hw, binary.LittleEndian, uint64(len(pl))); err != nil {
			return err
		}
		if err := binary.Write(hw, binary.LittleEndian, crc32.ChecksumIEEE(pl)); err != nil {
			return err
		}
	}
	// The manifest footer is NOT part of its own checksum.
	if err := binary.Write(bw, binary.LittleEndian, h.Sum32()); err != nil {
		return err
	}
	var zeros [indexPageSize]byte
	pos := manifestLen
	for i, pl := range payloads {
		for pad := int64(offs[i]) - pos; pad > 0; {
			k := pad
			if k > indexPageSize {
				k = indexPageSize
			}
			if _, err := bw.Write(zeros[:k]); err != nil {
				return err
			}
			pad -= k
			pos += k
		}
		if _, err := bw.Write(pl); err != nil {
			return err
		}
		pos += int64(len(pl))
	}
	return bw.Flush()
}

// readSharded06 decodes a JEMIDX06 stream after its magic — the plain
// heap loading path, used when the caller did not (or could not) go
// through the mmap open. The manifest is verified first; payloads are
// then pulled sequentially (skipping the alignment gaps; io.CopyN grows
// each buffer with bytes actually read, so a length beyond the file
// ends in a truncation error, not an allocation), and finally
// CRC-verified and decoded in parallel. Every corruption path reports
// an error wrapping ErrIndexChecksum and names the shard it hit.
func readSharded06(br *bufio.Reader, sp *obs.Span) (*Mapper, error) {
	man, err := readShardedManifest(br)
	if err != nil {
		return nil, err
	}
	nshards := len(man.lens)
	payloads := make([][]byte, nshards)
	pos := man.end
	for i := range payloads {
		if skip := int64(man.offs[i]) - pos; skip > 0 {
			if _, err := io.CopyN(io.Discard, br, skip); err != nil {
				return nil, fmt.Errorf("core: seeking shard %d payload: %w (%w)", i, errIndexTruncated, ErrIndexChecksum)
			}
			pos += skip
		}
		var buf bytes.Buffer
		n, err := io.CopyN(&buf, br, int64(man.lens[i]))
		pos += n
		if err == io.EOF && n < int64(man.lens[i]) {
			return nil, fmt.Errorf("core: shard %d payload truncated (%d of %d bytes): %w (%w)",
				i, n, man.lens[i], errIndexTruncated, ErrIndexChecksum)
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading shard %d payload: %w", i, err)
		}
		payloads[i] = buf.Bytes()
	}
	shards := make([]*sketch.FrozenTable, nshards)
	decErrs := make([]error, nshards)
	parallel.ForEach(nshards, 0, func(i int) {
		if sp != nil {
			sp.Time(fmt.Sprintf("shard%d", i), func() {
				shards[i], decErrs[i] = decodeShardPayload06(i, payloads[i], man.crcs[i])
			})
			return
		}
		shards[i], decErrs[i] = decodeShardPayload06(i, payloads[i], man.crcs[i])
	})
	for _, err := range decErrs {
		if err != nil {
			return nil, err
		}
	}
	return finishSealed(man, shards)
}

// finishSealed installs decoded shard tables on the manifest's mapper.
func finishSealed(man *shardedManifest, shards []*sketch.FrozenTable) (*Mapper, error) {
	sf, err := sketch.NewShardedFrozen(shards)
	if err != nil {
		return nil, fmt.Errorf("core: assembling sharded table: %w", err)
	}
	if sf.T() != man.p.T {
		return nil, fmt.Errorf("core: sharded table has %d trials, params say %d", sf.T(), man.p.T)
	}
	man.m.SetSharded(sf)
	return man.m, nil
}

// decodeShardPayload06 verifies one flat shard payload against its
// manifest CRC and decodes it onto the heap. Runs on a worker
// goroutine per shard.
func decodeShardPayload06(i int, payload []byte, wantCRC uint32) (*sketch.FrozenTable, error) {
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("%w: shard %d computed %08x, manifest says %08x", ErrIndexChecksum, i, got, wantCRC)
	}
	ft, err := sketch.DecodeFlatFrozen(payload)
	if err != nil {
		return nil, fmt.Errorf("core: decoding shard %d: %w", i, err)
	}
	return ft, nil
}

// viewShardPayload06 verifies one flat shard payload against its
// manifest CRC and builds a zero-copy view over it (see
// sketch.ViewFlatFrozen). faultin marks the deferred verification of a
// lazy shard's first query, where the IndexFaultinByteFlip fault point
// can inject a mismatch: the mapping is read-only, so the injector
// perturbs the computed checksum instead of the bytes.
func viewShardPayload06(i int, payload []byte, wantCRC uint32, faultin bool) (*sketch.FrozenTable, error) {
	got := crc32.ChecksumIEEE(payload)
	if faultin {
		if _, ok := fault.Fire(fault.IndexFaultinByteFlip); ok {
			got ^= 0x01
		}
	}
	if got != wantCRC {
		return nil, fmt.Errorf("%w: shard %d computed %08x, manifest says %08x", ErrIndexChecksum, i, got, wantCRC)
	}
	ft, err := sketch.ViewFlatFrozen(payload)
	if err != nil {
		return nil, fmt.Errorf("core: decoding shard %d: %w", i, err)
	}
	return ft, nil
}

// MemoryMode selects how an index open turns file bytes into serving
// structures.
type MemoryMode uint8

const (
	// MemoryAuto maps the index read-only and, under a positive
	// Budget, decodes shards onto the heap until the budget is spent —
	// the rest stay load-on-demand views. With no budget it behaves
	// like MemoryMMap. Hosts without mmap fall back to a heap load.
	MemoryAuto MemoryMode = iota
	// MemoryHeap decodes every shard into process-private heap memory
	// at open — the classic load, fastest per lookup.
	MemoryHeap
	// MemoryMMap serves every shard as a zero-copy view over a shared
	// read-only mapping: near-zero resident cost, kernel-managed
	// faulting, pages shared across processes.
	MemoryMMap
)

func (md MemoryMode) String() string {
	switch md {
	case MemoryAuto:
		return "auto"
	case MemoryHeap:
		return "heap"
	case MemoryMMap:
		return "mmap"
	default:
		return fmt.Sprintf("MemoryMode(%d)", uint8(md))
	}
}

// MemorySpec is the byte-budget contract an index open honors.
type MemorySpec struct {
	Mode MemoryMode
	// Budget caps the resident (heap) bytes MemoryAuto may spend
	// decoding shards; ≤0 means "no heap, map everything".
	Budget int64
}

// ShardResidence records where one shard's serving structures live.
type ShardResidence uint8

const (
	// ResidenceHeap: decoded into private memory at open.
	ResidenceHeap ShardResidence = iota
	// ResidenceMapped: zero-copy view over the mapping, verified at open.
	ResidenceMapped
	// ResidenceLazy: view built — and CRC-verified — on first query.
	ResidenceLazy
)

func (sr ShardResidence) String() string {
	switch sr {
	case ResidenceHeap:
		return "heap"
	case ResidenceMapped:
		return "mapped"
	case ResidenceLazy:
		return "lazy"
	default:
		return fmt.Sprintf("ShardResidence(%d)", uint8(sr))
	}
}

// MemoryInfo reports what an index open actually did: the residence of
// each shard and the resulting split of IndexBytes into resident
// (private heap) and mapped (file-backed, shareable) bytes.
type MemoryInfo struct {
	Shards   []ShardResidence
	Resident int64
	Mapped   int64
}

// heapMemoryInfo summarizes a fully heap-loaded mapper: every shard
// resides on the heap (ResidenceHeap is the zero value).
func heapMemoryInfo(m *Mapper) MemoryInfo {
	info := MemoryInfo{Shards: make([]ShardResidence, m.Shards())}
	info.Resident, info.Mapped = m.IndexMemory()
	return info
}

// mappingCloser owns an index file mapping; Close releases it. It must
// not be closed while any mapper built over the mapping is still
// serving (the facade ties it to the mapper's lifetime).
type mappingCloser struct {
	data []byte
	once sync.Once
	err  error
}

func (mc *mappingCloser) Close() error {
	mc.once.Do(func() { mc.err = munmapFile(mc.data) })
	return mc.err
}

// OpenIndexFile loads an index from disk honoring a memory spec. See
// OpenIndexFileObserved.
func OpenIndexFile(path string, spec MemorySpec) (*Mapper, MemoryInfo, io.Closer, error) {
	return OpenIndexFileObserved(path, spec, nil)
}

// OpenIndexFileObserved loads the index at path honoring spec. Under
// MemoryMMap or MemoryAuto (on a host with mmap) the file is mapped
// read-only and served in place; MemoryHeap, platforms without mmap,
// and a failed mapping take the streaming heap load. A retired
// JEMIDX02–05 file fails with ErrIndexFormat. The returned closer,
// when non-nil, owns the mapping and must be closed after the mapper
// is done serving; sp, when non-nil, gets one child span per shard.
func OpenIndexFileObserved(path string, spec MemorySpec, sp *obs.Span) (*Mapper, MemoryInfo, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, MemoryInfo{}, nil, err
	}
	if err := readMagic(f); err != nil {
		_ = f.Close()
		return nil, MemoryInfo{}, nil, fmt.Errorf("core: index %s: %w", path, err)
	}
	if spec.Mode != MemoryHeap && mmapSupported {
		if st, serr := f.Stat(); serr == nil && st.Size() > 8 {
			if data, merr := mmapFile(f, st.Size()); merr == nil {
				m, info, err := buildMapped06(data, spec, sp)
				if err != nil {
					_ = munmapFile(data)
					_ = f.Close()
					return nil, MemoryInfo{}, nil, fmt.Errorf("core: index %s: %w", path, err)
				}
				// The mapping outlives the descriptor.
				_ = f.Close()
				if info.Mapped == 0 {
					// Every shard went to the heap; nothing references
					// the mapping, so release it now.
					_ = munmapFile(data)
					return m, info, nil, nil
				}
				return m, info, &mappingCloser{data: data}, nil
			}
			// mmap failed: fall through to the heap load.
		}
	}
	defer func() { _ = f.Close() }()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, MemoryInfo{}, nil, fmt.Errorf("core: index %s: %w", path, err)
	}
	m, err := ReadIndexObserved(f, sp)
	if err != nil {
		return nil, MemoryInfo{}, nil, fmt.Errorf("core: index %s: %w", path, err)
	}
	return m, heapMemoryInfo(m), nil, nil
}

// buildMapped06 builds a mapper over an mmap'd JEMIDX06 file: parse
// and verify the manifest, plan each shard's residence against the
// spec, then materialize eager shards in parallel (heap decodes and
// verified views) while lazy shards get load-on-demand slots that
// verify on first query.
func buildMapped06(data []byte, spec MemorySpec, sp *obs.Span) (*Mapper, MemoryInfo, error) {
	man, err := readShardedManifest(bufio.NewReader(bytes.NewReader(data[8:])))
	if err != nil {
		return nil, MemoryInfo{}, err
	}
	n := len(man.lens)
	for i := range man.lens {
		if end := man.offs[i] + man.lens[i]; end > uint64(len(data)) {
			return nil, MemoryInfo{}, fmt.Errorf("core: shard %d payload ends at %d but the file holds %d bytes: %w (%w)",
				i, end, len(data), errIndexTruncated, ErrIndexChecksum)
		}
	}
	res := planResidences(spec, man)
	eager := make([]*sketch.FrozenTable, n)
	lazy := make([]*sketch.LazyShard, n)
	errs := make([]error, n)
	parallel.ForEach(n, 0, func(i int) {
		payload := data[man.offs[i] : man.offs[i]+man.lens[i]]
		build := func() {
			switch res[i] {
			case ResidenceHeap:
				eager[i], errs[i] = decodeShardPayload06(i, payload, man.crcs[i])
			case ResidenceMapped:
				eager[i], errs[i] = viewShardPayload06(i, payload, man.crcs[i], false)
			case ResidenceLazy:
				// The directory peek only feeds accounting; a parse
				// failure surfaces at fault-in, where it can be
				// reported properly.
				_, entries, _ := sketch.FlatPayloadStats(payload)
				shard, crc := i, man.crcs[i]
				lazy[i] = sketch.NewLazyShard(int64(len(payload)), entries, func() (*sketch.FrozenTable, error) {
					return viewShardPayload06(shard, payload, crc, true)
				})
			}
		}
		if sp != nil {
			sp.Time(fmt.Sprintf("shard%d", i), build)
		} else {
			build()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, MemoryInfo{}, err
		}
	}
	sf, err := sketch.NewLazyShardedFrozen(man.p.T, eager, lazy)
	if err != nil {
		return nil, MemoryInfo{}, fmt.Errorf("core: assembling sharded table: %w", err)
	}
	man.m.SetSharded(sf)
	info := MemoryInfo{Shards: res}
	info.Resident, info.Mapped = sf.ResidentBytes(), sf.MappedBytes()
	return man.m, info, nil
}

// planResidences decides each shard's residence. MemoryMMap — and
// MemoryAuto with no budget — map everything eagerly. MemoryAuto with
// a budget decodes shards onto the heap, in shard order, while the
// cumulative payload size fits, and leaves the rest load-on-demand (a
// shard not decoded is likely cold; paying its CRC pass only if it is
// ever queried is the out-of-core bargain). A single-shard index never
// goes lazy: every query touches its one shard, so deferring the
// shard's verification saves nothing and would only move a corruption
// report from open to the first query.
func planResidences(spec MemorySpec, man *shardedManifest) []ShardResidence {
	res := make([]ShardResidence, len(man.lens))
	if spec.Mode == MemoryMMap || spec.Budget <= 0 {
		for i := range res {
			res[i] = ResidenceMapped
		}
		return res
	}
	var resident int64
	for i := range res {
		if sz := int64(man.lens[i]); resident+sz <= spec.Budget {
			res[i] = ResidenceHeap
			resident += sz
		} else {
			res[i] = ResidenceLazy
		}
	}
	if len(res) == 1 && res[0] == ResidenceLazy {
		res[0] = ResidenceMapped
	}
	return res
}

// OpenShardSubset is ReadShardSubsetFile honoring a memory spec: with
// Mode != MemoryHeap (and a host with mmap) the kept shards are served
// as zero-copy views over a shared read-only mapping — the jem-shardd
// fleet path, where every server mapping the same index file shares
// physical pages. Views are CRC-verified at
// open (a shard server has no lazy path; it will serve every kept
// shard). The returned closer, when non-nil, owns the mapping.
func OpenShardSubset(path string, keep func(shard int) bool, spec MemorySpec) (map[int]*sketch.FrozenTable, IndexMeta, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, IndexMeta{}, nil, err
	}
	if readMagic(f) == nil && spec.Mode != MemoryHeap && mmapSupported {
		if st, serr := f.Stat(); serr == nil && st.Size() > 8 {
			if data, merr := mmapFile(f, st.Size()); merr == nil {
				tables, meta, berr := buildSubsetMapped06(data, keep)
				_ = f.Close()
				if berr != nil {
					_ = munmapFile(data)
					return nil, IndexMeta{}, nil, fmt.Errorf("core: index %s: %w", path, berr)
				}
				return tables, meta, &mappingCloser{data: data}, nil
			}
		}
	}
	_ = f.Close()
	tables, meta, err := ReadShardSubsetFile(path, keep)
	return tables, meta, nil, err
}

// buildSubsetMapped06 builds verified views for the kept shards of an
// mmap'd JEMIDX06 file.
func buildSubsetMapped06(data []byte, keep func(shard int) bool) (map[int]*sketch.FrozenTable, IndexMeta, error) {
	man, err := readShardedManifest(bufio.NewReader(bytes.NewReader(data[8:])))
	if err != nil {
		return nil, IndexMeta{}, err
	}
	var kept []int
	for i := range man.lens {
		if !keep(i) {
			continue
		}
		if end := man.offs[i] + man.lens[i]; end > uint64(len(data)) {
			return nil, IndexMeta{}, fmt.Errorf("core: shard %d payload ends at %d but the file holds %d bytes: %w (%w)",
				i, end, len(data), errIndexTruncated, ErrIndexChecksum)
		}
		kept = append(kept, i)
	}
	if len(kept) == 0 {
		return nil, IndexMeta{}, fmt.Errorf("core: shard selection keeps none of %d shards", len(man.lens))
	}
	decoded := make([]*sketch.FrozenTable, len(kept))
	decErrs := make([]error, len(kept))
	parallel.ForEach(len(kept), 0, func(j int) {
		i := kept[j]
		payload := data[man.offs[i] : man.offs[i]+man.lens[i]]
		decoded[j], decErrs[j] = viewShardPayload06(i, payload, man.crcs[i], false)
	})
	tables := make(map[int]*sketch.FrozenTable, len(kept))
	for j, err := range decErrs {
		if err != nil {
			return nil, IndexMeta{}, err
		}
		tables[kept[j]] = decoded[j]
	}
	return tables, man.meta(), nil
}
