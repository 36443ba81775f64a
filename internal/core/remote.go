package core

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/parallel"
	"repro/internal/sketch"
)

// ShardQuerier is the remote scatter-gather backend: something that
// can resolve one shard's probe batch — probe i being
// ⟨trials[i], words[i]⟩ — into per-probe posting lists. The concrete
// implementation is shardnet.Coordinator (a fleet of jem-shardd
// processes); core depends only on this interface so the network
// layer stays out of the mapping hot path's dependency tree.
//
// Contract: a nil error means lists[i] holds exactly the postings the
// local sharded table would have returned for probe i (nil for an
// absent word). A non-nil error means the whole batch failed
// terminally after the backend's retry/hedge budget — the session
// records the shard as lost for the query and the gather completes
// without it (the degraded-answer policy; see Session.LostShards).
// Implementations must be safe for concurrent use by many sessions.
type ShardQuerier interface {
	// NumShards returns the index's total shard count P; probes are
	// routed with sketch.ShardOf(trial, word, P).
	NumShards() int
	// QueryShard resolves one shard's probe batch under ctx.
	QueryShard(ctx context.Context, shard int, trials []int32, words []sketch.Word) ([][]sketch.Posting, error)
}

// SetRemote installs a remote scatter-gather backend as the mapper's
// serving path, in place of any local table and sealing the mapper
// (the typical caller holds a meta-only mapper from ReadIndexMetaFile,
// which has no postings to drop). Passing nil restores serving from a
// local sharded table and panics if there is none. Like SetSharded it
// must run before sessions are issued.
func (m *Mapper) SetRemote(q ShardQuerier) {
	if q == nil && m.sharded == nil {
		panic("core: cannot clear the remote backend of a mapper with no local table")
	}
	m.remote = q
	m.table = nil
	m.enableShardMetrics()
}

// Remote returns the installed remote backend, nil for local serving.
func (m *Mapper) Remote() ShardQuerier { return m.remote }

// IndexMeta identifies an index without its payloads: the shard
// count, the sketch/subject dimensions, and the manifest checksum —
// the fingerprint a shard-server fleet and a coordinator must agree on
// before any query flows.
type IndexMeta struct {
	// Shards is the index's shard count P.
	Shards int
	// T is the sketch trial count.
	T int
	// NumSubjects is the subject-id space size.
	NumSubjects int
	// ManifestCRC is the manifest footer checksum.
	ManifestCRC uint32
}

// ReadIndexMetaFile reads only the manifest of an index: the returned
// mapper carries the sketch parameters and subject metadata but NO
// postings (it must be given a backend with SetRemote before it can
// serve), and the IndexMeta carries the fingerprint to validate a
// shard fleet against. A retired JEMIDX02–05 file fails with
// ErrIndexFormat.
func ReadIndexMetaFile(path string) (*Mapper, IndexMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, IndexMeta{}, err
	}
	defer func() { _ = f.Close() }()
	man, _, err := openManifest(f, path)
	if err != nil {
		return nil, IndexMeta{}, err
	}
	return man.m, man.meta(), nil
}

// ReadShardSubsetFile loads only the shards selected by keep from an
// index — the shard-server loading path, where each process pays
// memory for its own shards only. Unselected payloads (and the
// alignment padding between payloads) are skipped without allocation; selected ones are
// CRC-verified and decoded in parallel exactly like a full load. The
// returned map is keyed by shard id.
func ReadShardSubsetFile(path string, keep func(shard int) bool) (map[int]*sketch.FrozenTable, IndexMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, IndexMeta{}, err
	}
	defer func() { _ = f.Close() }()
	man, br, err := openManifest(f, path)
	if err != nil {
		return nil, IndexMeta{}, err
	}
	var kept []int
	payloads := make(map[int][]byte)
	pos := man.end // stream position past the manifest
	for i := range man.lens {
		// Payloads are page-aligned; skip the padding gap first.
		if skip := int64(man.offs[i]) - pos; skip > 0 {
			if _, err := io.CopyN(io.Discard, br, skip); err != nil {
				return nil, IndexMeta{}, fmt.Errorf("core: index %s: seeking shard %d payload: %w", path, i, err)
			}
			pos += skip
		}
		if !keep(i) {
			n, err := io.CopyN(io.Discard, br, int64(man.lens[i]))
			pos += n
			if err != nil {
				return nil, IndexMeta{}, fmt.Errorf("core: index %s: skipping shard %d payload: %w", path, i, err)
			}
			continue
		}
		var buf bytes.Buffer
		n, err := io.CopyN(&buf, br, int64(man.lens[i]))
		pos += n
		if err == io.EOF && n < int64(man.lens[i]) {
			return nil, IndexMeta{}, fmt.Errorf("core: index %s: shard %d payload truncated (%d of %d bytes): %w (%w)",
				path, i, n, man.lens[i], errIndexTruncated, ErrIndexChecksum)
		}
		if err != nil {
			return nil, IndexMeta{}, fmt.Errorf("core: index %s: reading shard %d payload: %w", path, i, err)
		}
		payloads[i] = buf.Bytes()
		kept = append(kept, i)
	}
	if len(kept) == 0 {
		return nil, IndexMeta{}, fmt.Errorf("core: index %s: shard selection keeps none of %d shards", path, len(man.lens))
	}
	tables := make(map[int]*sketch.FrozenTable, len(kept))
	decErrs := make([]error, len(kept))
	decoded := make([]*sketch.FrozenTable, len(kept))
	parallel.ForEach(len(kept), 0, func(j int) {
		i := kept[j]
		decoded[j], decErrs[j] = decodeShardPayload06(i, payloads[i], man.crcs[i])
	})
	for j, err := range decErrs {
		if err != nil {
			return nil, IndexMeta{}, fmt.Errorf("core: index %s: %w", path, err)
		}
		tables[kept[j]] = decoded[j]
	}
	return tables, man.meta(), nil
}

// openManifest checks the magic of the index open on r and decodes
// its manifest, leaving the returned reader positioned just past it.
func openManifest(r io.Reader, path string) (*shardedManifest, *bufio.Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if err := readMagic(br); err != nil {
		return nil, nil, fmt.Errorf("core: index %s: %w", path, err)
	}
	man, err := readShardedManifest(br)
	if err != nil {
		return nil, nil, fmt.Errorf("core: index %s: %w", path, err)
	}
	return man, br, nil
}
