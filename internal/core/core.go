// Package core implements JEM-mapper (the paper's primary
// contribution): Algorithm 2, mapping long-read end segments to
// contigs through the minimizer-based Jaccard estimator sketch of
// Algorithm 1.
//
// The flow mirrors the paper's steps: subjects (contigs) are sketched
// and inserted into a per-trial sketch table; each query (a ℓ-long end
// segment of a long read) is sketched, its T per-trial words are
// looked up, the subjects hit across trials are counted with the
// lazy-update counter array of §III-C, and the most frequent subject
// is reported as the best hit.
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/seq"
	"repro/internal/sketch"
)

// SegmentKind distinguishes the two end segments of a long read.
type SegmentKind uint8

const (
	// Prefix is the first ℓ bases of a read.
	Prefix SegmentKind = iota
	// Suffix is the last ℓ bases of a read.
	Suffix
)

func (k SegmentKind) String() string {
	if k == Prefix {
		return "prefix"
	}
	return "suffix"
}

// Hit is one candidate subject for a query with its trial-hit count.
type Hit struct {
	Subject int32
	Count   int32
}

// Result records the mapping of one end segment.
type Result struct {
	ReadIndex int32       // index of the read in the query set
	Kind      SegmentKind // which end
	Subject   int32       // best-hit subject id, -1 when unmapped
	Count     int32       // number of trials that hit the best subject
}

// Mapped reports whether the segment found any subject.
func (r Result) Mapped() bool { return r.Subject >= 0 }

// SubjectMeta is what the mapper retains about each subject.
type SubjectMeta struct {
	Name   string
	Length int32
}

// Mapper holds the sketch table over a subject set.
//
// A mapper starts mutable (subjects can be added to its hash-map
// table) and is sealed before serving. Sealing partitions the table
// into a ShardedFrozen of P cache-friendly sorted-array shards, P=1
// being the monolithic case, and frees the mutable table. Every query
// is served from that sharded table, or from a remote fleet installed
// with SetRemote. The distributed driver reaches the sealed state
// through SetSharded (its table is built by the gather merge instead).
type Mapper struct {
	sk      *sketch.Sketcher
	table   *sketch.Table
	sharded *sketch.ShardedFrozen
	// remote, when non-nil, replaces the local table: queries
	// scatter-gather over the wire through it (SetRemote).
	remote   ShardQuerier
	subjects []SubjectMeta
	// met, when non-nil, receives per-query observations from every
	// session created after EnableMetrics ran.
	met *Metrics
}

// NewMapper creates a Mapper with the given sketch parameters.
func NewMapper(p sketch.Params) (*Mapper, error) {
	sk, err := sketch.NewSketcher(p)
	if err != nil {
		return nil, err
	}
	return &Mapper{sk: sk, table: sketch.NewTable(p.T)}, nil
}

// Sketcher exposes the underlying sketcher (shared with baselines and
// the distributed driver).
func (m *Mapper) Sketcher() *sketch.Sketcher { return m.sk }

// Table exposes the mutable sketch table of an unsealed mapper; it is
// nil after sealing, which drops the mutable form.
func (m *Mapper) Table() *sketch.Table { return m.table }

// Frozen returns shard 0 of a one-shard serving table, nil otherwise.
func (m *Mapper) Frozen() *sketch.FrozenTable {
	if m.sharded == nil || m.sharded.NumShards() != 1 {
		return nil
	}
	return m.sharded.Shard(0)
}

// Sharded exposes the serving table (P ≥ 1 shards), nil until the
// mapper is sealed (SealSharded, SetSharded, or an index load) and for
// a remote mapper.
func (m *Mapper) Sharded() *sketch.ShardedFrozen { return m.sharded }

// Shards returns the number of serving shards: P for a sealed or
// remote mapper, 1 for an unsealed one.
func (m *Mapper) Shards() int {
	if m.remote != nil {
		return m.remote.NumShards()
	}
	if m.sharded != nil {
		return m.sharded.NumShards()
	}
	return 1
}

// IndexBytes returns the approximate total size of the serving index
// (the sharded sketch table's backing arrays), 0 for an unsealed or
// remote mapper. A serving tier with several indexes resident uses
// this for per-index memory accounting. The total counts resident and
// mapped bytes alike; IndexMemory splits them.
func (m *Mapper) IndexBytes() int64 {
	if m.sharded == nil {
		return 0
	}
	return m.sharded.MemBytes()
}

// IndexMemory splits IndexBytes into resident (process-private heap)
// and mapped (file-backed via mmap, shareable across processes) bytes.
// A heap-loaded index is all resident; an mmap-served one is all
// mapped; a budgeted open reports both halves.
func (m *Mapper) IndexMemory() (resident, mapped int64) {
	if m.sharded == nil {
		return 0, 0
	}
	return m.sharded.ResidentBytes(), m.sharded.MappedBytes()
}

// SetSharded installs sf (non-nil) as the serving table and seals the
// mapper, dropping its mutable table. The distributed driver installs
// its gathered table this way; it must run before sessions are issued.
func (m *Mapper) SetSharded(sf *sketch.ShardedFrozen) {
	m.sharded = sf
	m.table = nil
	m.enableShardMetrics()
}

// SealSharded seals the mapper for serving: the mutable table is
// partitioned into `shards` frozen shards built concurrently (workers
// ≤0 means GOMAXPROCS), then dropped. Every shard count yields
// byte-identical query results; more shards parallelize the freeze and
// the index save/load, and bound per-shard memory. SealSharded is a
// no-op on an already sealed mapper.
func (m *Mapper) SealSharded(shards, workers int) {
	m.SealShardedTraced(shards, workers, nil)
}

// SealShardedTraced is SealSharded with a per-shard build hook (see
// sketch.FreezeShardedTraced); the facade uses it to attach per-shard
// build spans.
func (m *Mapper) SealShardedTraced(shards, workers int, trace func(shard int, fn func())) {
	if m.Sealed() {
		return
	}
	m.SetSharded(m.table.FreezeShardedTraced(shards, workers, trace))
}

// Seal is SealSharded(1, 0): the monolithic serving table is the
// one-shard case.
func (m *Mapper) Seal() { m.SealSharded(1, 0) }

// Sealed reports whether the mapper serves queries: it holds a sharded
// table or a remote backend, and its subject set is fixed.
func (m *Mapper) Sealed() bool { return m.sharded != nil || m.remote != nil }

// Entries returns the total posting count of the active table (sharded
// once sealed, mutable before). A remote mapper reports 0: its
// postings are resident in the shard servers, not this process.
func (m *Mapper) Entries() int {
	if m.sharded != nil {
		return m.sharded.Entries()
	}
	if m.table != nil {
		return m.table.Entries()
	}
	return 0
}

// mutationGuard panics when the subject set may no longer grow, which
// is once the mapper is sealed. Sessions exist only on sealed mappers
// (NewSession enforces it), so no session can see the subject count
// change under its counter arrays.
func (m *Mapper) mutationGuard(op string) {
	if m.Sealed() {
		panic(fmt.Sprintf("core: %s on a sealed mapper", op))
	}
}

// NumSubjects returns the number of subjects indexed so far.
func (m *Mapper) NumSubjects() int { return len(m.subjects) }

// Subject returns metadata for subject id.
func (m *Mapper) Subject(id int32) SubjectMeta { return m.subjects[id] }

// AddSubjects sketches and indexes contigs sequentially. Subject ids
// are assigned densely in input order, continuing from any previously
// added subjects.
func (m *Mapper) AddSubjects(contigs []seq.Record) {
	m.mutationGuard("AddSubjects")
	for i := range contigs {
		id := int32(len(m.subjects))
		m.subjects = append(m.subjects, SubjectMeta{Name: contigs[i].ID, Length: int32(len(contigs[i].Seq))})
		words, anchors := m.sk.SubjectSketchPositional(contigs[i].Seq)
		m.table.InsertPositional(id, words, anchors)
	}
}

// AddSubjectsParallel sketches contigs with the given number of
// workers (≤0 means GOMAXPROCS) and inserts them in input order, so
// results are identical to AddSubjects.
func (m *Mapper) AddSubjectsParallel(contigs []seq.Record, workers int) {
	m.mutationGuard("AddSubjectsParallel")
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(contigs) < 2 {
		m.AddSubjects(contigs)
		return
	}
	sketches := make([][][]sketch.Word, len(contigs))
	anchors := make([][][]int32, len(contigs))
	var wg sync.WaitGroup
	next := make(chan int, len(contigs))
	for i := range contigs {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sketches[i], anchors[i] = m.sk.SubjectSketchPositional(contigs[i].Seq)
			}
		}()
	}
	wg.Wait()
	for i := range contigs {
		id := int32(len(m.subjects))
		m.subjects = append(m.subjects, SubjectMeta{Name: contigs[i].ID, Length: int32(len(contigs[i].Seq))})
		m.table.InsertPositional(id, sketches[i], anchors[i])
	}
}

// RegisterSubjects records subject metadata without sketching,
// assigning dense ids in input order. The distributed driver uses this
// on every rank (metadata is small and replicated) while the sketch
// table itself is built per rank, gathered, and installed via
// SetSharded.
func (m *Mapper) RegisterSubjects(contigs []seq.Record) {
	m.mutationGuard("RegisterSubjects")
	for i := range contigs {
		m.subjects = append(m.subjects, SubjectMeta{Name: contigs[i].ID, Length: int32(len(contigs[i].Seq))})
	}
}

// Session carries the per-worker lazy-update counter state of §III-C:
// an array A[1..n] of ⟨count u, query id v⟩ tuples. A counter is valid
// for the current query only when its stored query id matches, which
// avoids resetting n counters per query. Sessions are cheap relative
// to the table and are NOT safe for concurrent use; create one per
// goroutine.
type Session struct {
	m       *Mapper
	met     *Metrics        // instrument set captured at creation (nil = off)
	done    <-chan struct{} // cancellation signal from WithContext (nil = never)
	ctx     context.Context // request context from WithContext (nil = none)
	count   []int32
	lastq   []int32
	qid     int32
	cand    []int32            // subjects touched by the current query
	plists  [][]sketch.Posting // per-trial postings of the current query
	scanned int64              // postings examined across all queries

	// Sketch scratch: the query sketch of the current segment, and the
	// positional pass's forward/reverse offset votes.
	qs       sketch.QueryScratch
	fwdVotes []int32
	revVotes []int32

	// Scatter scratch: shardTrials groups the query's T trials by
	// destination shard; shardTouched lists the shards the current
	// query routed to, in first-touch order.
	shardTrials  [][]int32
	shardTouched []int32

	// Remote scratch: per-shard probe words (parallel to shardTrials)
	// and per-shard RPC results/errors/durations.
	shardWords [][]sketch.Word
	remoteRes  [][][]sketch.Posting
	remoteErrs []error
	remoteDur  []time.Duration

	// lostSet is the cumulative set of shards that failed terminally —
	// the degraded-answer record surfaced through LostShards.
	lostSet map[int]struct{}

	// Per-shard work tallies for request-scoped tracing: postings are
	// accumulated always (one slice add per touched shard per query —
	// noise next to the scan itself); wall time only when timeShards is
	// set, so untraced runs never pay the clock reads.
	shardWork  []ShardWork
	timeShards bool

	// err latches the first serving-integrity failure this session hit —
	// today, a lazy shard whose fault-in CRC verification failed. The
	// query that hit it completes degraded (the failed shard contributes
	// nothing); the latch is how batch drivers surface the corruption
	// instead of silently serving partial answers.
	err error
}

// ShardWork is one shard's cumulative work as seen by one session:
// how many postings its scans examined and (when shard timing is
// enabled) how much wall time they took. It is the per-shard
// breakdown a request trace attributes scatter-gather time with.
type ShardWork struct {
	Postings int64
	Wall     time.Duration
}

// NewSession creates a mapping session over the sealed mapper's
// subject set. It panics on an unsealed mapper: there is no serving
// table yet, and sealing is what fixes the subject count the session's
// counter arrays are sized to.
func (m *Mapper) NewSession() *Session {
	if !m.Sealed() {
		panic("core: NewSession on an unsealed mapper; call Seal or SealSharded first")
	}
	n := len(m.subjects)
	s := &Session{
		m:     m,
		met:   m.met,
		count: make([]int32, n),
		lastq: make([]int32, n),
		qid:   0,
	}
	for i := range s.lastq {
		s.lastq[i] = -1
	}
	return s
}

// WithContext attaches ctx's cancellation signal to the session and
// returns it. Long multi-segment operations (MapReadTiled) poll
// Interrupted between segments and stop early once the context is
// done; single-segment lookups always run to completion, so a
// cancelled session never leaves partial counter state behind.
func (s *Session) WithContext(ctx context.Context) *Session {
	s.ctx = ctx
	s.done = ctx.Done()
	return s
}

// context returns the request context attached via WithContext — the
// context remote shard queries inherit their deadlines from.
//
//jem:detached sessions created without WithContext have no caller context to inherit
func (s *Session) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// LostShards returns the sorted ids of shards that failed terminally
// at any point in this session's lifetime — a remote shard whose
// queries exhausted their retry/hedge budget, or a local lazy shard
// whose fault-in verification failed — the per-session degraded-answer
// record. Queries touching a lost shard completed with the surviving
// shards' postings only.
func (s *Session) LostShards() []int {
	if len(s.lostSet) == 0 {
		return nil
	}
	out := make([]int, 0, len(s.lostSet))
	for sd := range s.lostSet {
		out = append(out, sd)
	}
	sort.Ints(out)
	return out
}

// Interrupted reports whether the context attached via WithContext has
// been cancelled. Sessions without a context are never interrupted.
func (s *Session) Interrupted() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// PostingsScanned returns the cumulative number of sketch-table
// postings this session has examined — the dominant unit of query
// work, surfaced through jem.Stats for serving telemetry.
func (s *Session) PostingsScanned() int64 { return s.scanned }

// Err returns the first serving-integrity failure this session hit
// (nil when none): a lazy shard whose fault-in verification failed
// leaves its sticky error here while the queries that touched it
// complete without that shard's postings. Batch drivers check it once
// per session, after the work loop.
func (s *Session) Err() error { return s.err }

// fail latches the session's first integrity error.
func (s *Session) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// EnableShardTiming turns on per-shard wall-clock accumulation for
// this session's scatter-gather scans. Off by default: a traced
// request opts in, an untraced one never reads the clock per shard.
func (s *Session) EnableShardTiming() { s.timeShards = true }

// ShardWork returns a snapshot of the per-shard work this session has
// done, one entry per serving shard (empty before the first query).
// Wall fields are zero unless EnableShardTiming was called before the
// queries ran.
func (s *Session) ShardWork() []ShardWork {
	out := make([]ShardWork, len(s.shardWork))
	copy(out, s.shardWork)
	return out
}

// MapSegment maps one end segment and returns its best hit. ok=false
// means the segment produced no sketch or no subject was hit in any
// trial. Ties are broken toward the lower subject id for determinism.
func (s *Session) MapSegment(segment []byte) (Hit, bool) {
	if s.met == nil {
		return s.mapSegment(segment)
	}
	t0 := time.Now()
	before := s.scanned
	h, ok := s.mapSegment(segment)
	s.met.observe(time.Since(t0), s.scanned-before, ok)
	return h, ok
}

// mapSegment is the uninstrumented lookup loop: T table probes, then
// the lazy-counter candidate scan (§III-C).
//
//jem:hotpath
func (s *Session) mapSegment(segment []byte) (Hit, bool) {
	words, _ := s.m.sk.SketchQuery(&s.qs, segment)
	if words == nil {
		return Hit{Subject: -1}, false
	}
	s.scanWords(words, false)
	if len(s.cand) == 0 {
		return Hit{Subject: -1}, false
	}
	return s.bestCandidate(), true
}

// scanWords runs the counting pass for one query (Alg. 2 with the
// lazy-update counters of §III-C). The query's T ⟨trial, word⟩ probes
// are routed to their shards with ShardOf; each touched shard's
// posting lists are fetched — from the local shard's frozen table, or
// by one RPC per shard to a remote fleet — and every posting votes for
// its subject straight into the global counters, shard by shard in
// first-touch order. Each posting list lives in exactly one shard, so
// the counts, the candidate order and PostingsScanned are the same for
// every shard count and backend. keepLists additionally records each
// trial's posting list in s.plists[t] for the positional offset-vote
// pass.
//
// The degraded-answer policy lives here: a shard that fails — a lazy
// shard whose fault-in verification failed (also latched in Err), or
// a remote shard whose retry/hedge budget ran out (see
// shardnet.ShardError) — contributes nothing to the query. Its id joins
// the session's lost set, the query completes on the surviving shards,
// and the caller reads the damage via LostShards.
//
//jem:hotpath
func (s *Session) scanWords(words []sketch.Word, keepLists bool) {
	s.qid++
	qid := s.qid
	s.cand = s.cand[:0]
	if keepLists {
		if cap(s.plists) < len(words) {
			s.plists = make([][]sketch.Posting, len(words))
		}
		s.plists = s.plists[:len(words)]
	} else {
		s.plists = s.plists[:0]
	}
	q, sf := s.m.remote, s.m.sharded
	p := s.m.Shards()
	if len(s.shardTrials) < p {
		s.shardTrials = make([][]int32, p)
		s.shardWork = make([]ShardWork, p)
	}
	touched := s.shardTouched[:0]
	for t, w := range words {
		sd := sketch.ShardOf(t, w, p)
		if len(s.shardTrials[sd]) == 0 {
			touched = append(touched, int32(sd))
		}
		s.shardTrials[sd] = append(s.shardTrials[sd], int32(t))
	}
	if q != nil {
		s.queryRemote(q, words, touched)
	}
	// With shard timing on, a local scan reads the clock once per
	// shard boundary; a remote shard's wall is its RPC round trip.
	var prevClock time.Time
	if s.timeShards && q == nil {
		prevClock = time.Now()
	}
	for _, sd32 := range touched {
		sd := int(sd32)
		trials := s.shardTrials[sd]
		s.shardTrials[sd] = trials[:0]
		var ft *sketch.FrozenTable
		var lists [][]sketch.Posting
		var err error
		if q != nil {
			lists, err = s.remoteRes[sd], s.remoteErrs[sd]
			s.remoteRes[sd] = nil
		} else if ft, err = sf.ShardChecked(sd); err != nil {
			s.fail(err)
		}
		if err != nil {
			s.noteLostShard(sd)
			if keepLists {
				// plists is reused across queries; a lost shard's trials
				// must not leak the previous query's posting lists into
				// this one's offset-vote pass.
				for _, t32 := range trials {
					s.plists[t32] = nil
				}
			}
			continue
		}
		var scanned int64
		for i, t32 := range trials {
			var ps []sketch.Posting
			if ft != nil {
				ps = ft.Lookup(int(t32), words[t32])
			} else {
				ps = lists[i]
			}
			if keepLists {
				s.plists[t32] = ps
			}
			scanned += int64(len(ps))
			for _, pp := range ps {
				subj := pp.Subject
				if s.lastq[subj] != qid {
					s.lastq[subj] = qid
					s.count[subj] = 0
					s.cand = append(s.cand, subj)
				}
				s.count[subj]++
			}
		}
		s.scanned += scanned
		s.shardWork[sd].Postings += scanned
		if s.timeShards {
			if q != nil {
				s.shardWork[sd].Wall += s.remoteDur[sd]
			} else {
				now := time.Now()
				s.shardWork[sd].Wall += now.Sub(prevClock)
				prevClock = now
			}
		}
		if s.met != nil {
			s.met.observeShard(sd, scanned)
		}
	}
	s.shardTouched = touched[:0]
}

// queryRemote resolves every touched shard's probe batch over the
// fleet, one RPC per shard: inline when the query touched a single
// shard, fanned out concurrently otherwise so the network waits
// overlap. Each shard's lists, error and round-trip wall land in the
// session's remote scratch for scanWords to count. The fan-out needs a
// closure, which is why it lives outside the hot-path scan loop.
func (s *Session) queryRemote(q ShardQuerier, words []sketch.Word, touched []int32) {
	if p := q.NumShards(); len(s.remoteRes) < p {
		s.shardWords = make([][]sketch.Word, p)
		s.remoteRes = make([][][]sketch.Posting, p)
		s.remoteErrs = make([]error, p)
		s.remoteDur = make([]time.Duration, p)
	}
	for _, sd := range touched {
		ws := s.shardWords[sd][:0]
		for _, t32 := range s.shardTrials[sd] {
			ws = append(ws, words[t32])
		}
		s.shardWords[sd] = ws
	}
	ctx := s.context()
	if len(touched) == 1 {
		sd := int(touched[0])
		s.remoteRes[sd], s.remoteDur[sd], s.remoteErrs[sd] = s.queryRemoteShard(ctx, q, sd)
		return
	}
	var wg sync.WaitGroup
	for _, sd32 := range touched {
		wg.Add(1)
		go func(sd int) {
			defer wg.Done()
			s.remoteRes[sd], s.remoteDur[sd], s.remoteErrs[sd] = s.queryRemoteShard(ctx, q, sd)
		}(int(sd32))
	}
	wg.Wait()
}

// queryRemoteShard runs one shard's RPC, timing it when shard timing
// is enabled (the wall is the RPC round-trip — the remote analogue of
// the local per-shard scan time).
func (s *Session) queryRemoteShard(ctx context.Context, q ShardQuerier, sd int) ([][]sketch.Posting, time.Duration, error) {
	if !s.timeShards {
		lists, err := q.QueryShard(ctx, sd, s.shardTrials[sd], s.shardWords[sd])
		return lists, 0, err
	}
	t0 := time.Now()
	lists, err := q.QueryShard(ctx, sd, s.shardTrials[sd], s.shardWords[sd])
	return lists, time.Since(t0), err
}

// noteLostShard records a terminal per-query shard failure in the
// session's cumulative lost set.
func (s *Session) noteLostShard(sd int) {
	if s.lostSet == nil {
		s.lostSet = make(map[int]struct{})
	}
	s.lostSet[sd] = struct{}{}
}

// bestCandidate picks the winner from the current query's candidate
// set: highest count, ties toward the lower subject id — a choice
// independent of candidate order.
//
//jem:hotpath
func (s *Session) bestCandidate() Hit {
	best := Hit{Subject: -1, Count: 0}
	for _, subj := range s.cand {
		c := s.count[subj]
		if c > best.Count || (c == best.Count && subj < best.Subject) {
			best = Hit{Subject: subj, Count: c}
		}
	}
	return best
}

// PositionalHit extends Hit with an approximate target location: the
// median interval anchor of the trials that hit the subject, giving
// the start of the ~ℓ-long region of the contig the segment maps to.
// This positional estimate is an extension over the paper (whose
// output is subject ids only) enabled by the positional sketch table.
type PositionalHit struct {
	Hit
	// TargetStart is the estimated start of the mapped region on the
	// subject; TargetEnd is TargetStart + len(segment) clamped to the
	// subject length. TargetStart is -1 when no positional provenance
	// exists.
	TargetStart, TargetEnd int32
	// Reverse is true when the segment maps to the subject's reverse
	// strand (decided by which offset-vote hypothesis clusters more
	// tightly).
	Reverse bool
}

// MapSegmentPositional maps a segment and estimates where on the best
// subject it landed: each trial whose sketch word hits the winning
// subject votes with the offset (target anchor − query word position),
// and the median offset is the estimated start of the mapped region.
//
//jem:hotpath
func (s *Session) MapSegmentPositional(segment []byte) (PositionalHit, bool) {
	if s.met == nil {
		return s.mapSegmentPositional(segment)
	}
	t0 := time.Now()
	before := s.scanned
	ph, ok := s.mapSegmentPositional(segment)
	s.met.observe(time.Since(t0), s.scanned-before, ok)
	return ph, ok
}

// mapSegmentPositional is the uninstrumented positional lookup loop:
// the counting pass plus the offset-vote pass over cached postings.
//
//jem:hotpath
func (s *Session) mapSegmentPositional(segment []byte) (PositionalHit, bool) {
	words, qpos := s.m.sk.SketchQuery(&s.qs, segment)
	if words == nil {
		return PositionalHit{Hit: Hit{Subject: -1}, TargetStart: -1}, false
	}
	// keepLists caches each trial's posting list during the counting
	// pass so the offset-vote pass below can reuse the slices instead
	// of paying a second round of T table lookups.
	s.scanWords(words, true)
	if len(s.cand) == 0 {
		return PositionalHit{Hit: Hit{Subject: -1}, TargetStart: -1}, false
	}
	best := s.bestCandidate()
	// Second pass: offset votes for the winning subject under both
	// strand hypotheses. A forward pair satisfies anchor − qpos ≈
	// segment start on the subject; a reverse pair satisfies
	// anchor + qpos ≈ start + len(segment) − k. The true hypothesis
	// clusters tightly around one value while the false one spreads.
	fwd, rev := s.fwdVotes[:0], s.revVotes[:0]
	for t := range words {
		for _, p := range s.plists[t] {
			if p.Subject == best.Subject && p.Anchor >= 0 {
				fwd = append(fwd, p.Anchor-qpos[t])
				rev = append(rev, p.Anchor+qpos[t])
			}
		}
	}
	s.fwdVotes, s.revVotes = fwd, rev
	ph := PositionalHit{Hit: best, TargetStart: -1}
	if len(fwd) == 0 {
		return ph, true
	}
	tol := int32(s.m.sk.Params().W + s.m.sk.Params().K)
	fMed, fVotes := medianCluster(fwd, tol)
	rMed, rVotes := medianCluster(rev, tol)
	var start int32
	if rVotes > fVotes {
		ph.Reverse = true
		start = rMed - int32(len(segment)) + int32(s.m.sk.Params().K)
	} else {
		start = fMed
	}
	if start < 0 {
		start = 0
	}
	ph.TargetStart = start
	ph.TargetEnd = start + int32(len(segment))
	if l := s.m.subjects[best.Subject].Length; ph.TargetEnd > l {
		ph.TargetEnd = l
	}
	return ph, true
}

// medianCluster sorts xs, takes the median, and counts values within
// ±tol of it — the cluster-size score used to pick the strand
// hypothesis. xs is modified (sorted) in place.
func medianCluster(xs []int32, tol int32) (median int32, votes int) {
	slices.Sort(xs)
	median = xs[len(xs)/2]
	for _, x := range xs {
		if x >= median-tol && x <= median+tol {
			votes++
		}
	}
	return median, votes
}

// MapSegmentTopK returns up to k hits ordered by descending count
// (ties toward lower subject id) — the paper's proposed top-x
// extension (§IV-C).
func (s *Session) MapSegmentTopK(segment []byte, k int) []Hit {
	if s.met == nil {
		return s.mapSegmentTopK(segment, k)
	}
	t0 := time.Now()
	before := s.scanned
	hits := s.mapSegmentTopK(segment, k)
	s.met.observe(time.Since(t0), s.scanned-before, len(hits) > 0)
	return hits
}

func (s *Session) mapSegmentTopK(segment []byte, k int) []Hit {
	words, _ := s.m.sk.SketchQuery(&s.qs, segment)
	if words == nil || k <= 0 {
		return nil
	}
	s.scanWords(words, false)
	if len(s.cand) == 0 {
		return nil
	}
	hits := make([]Hit, 0, len(s.cand))
	for _, subj := range s.cand {
		hits = append(hits, Hit{Subject: subj, Count: s.count[subj]})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Count != hits[j].Count {
			return hits[i].Count > hits[j].Count
		}
		return hits[i].Subject < hits[j].Subject
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// TileHit is one interior-tile mapping: the tile's offset on the read
// plus the best hit for that tile.
type TileHit struct {
	// Offset is the tile's start position on the read.
	Offset int32
	// Length is the tile length (the last tile may be shorter than ℓ).
	Length int32
	Hit
}

// MapReadTiled maps consecutive ℓ-length tiles across the WHOLE read,
// not just its ends — the extension the paper flags (§III-B.1) for
// non-scaffolding use-cases where a contig can be contained entirely
// within a read's interior and would be invisible to end-segment
// mapping. Tiles advance by stride bases (stride ≤ 0 means ℓ, i.e.
// non-overlapping tiles; stride = ℓ/2 gives half-overlapping tiles for
// better boundary coverage). Unmapped tiles are omitted.
func (s *Session) MapReadTiled(read []byte, l, stride int) []TileHit {
	if l <= 0 || len(read) == 0 {
		return nil
	}
	if stride <= 0 {
		stride = l
	}
	var out []TileHit
	for off := 0; ; off += stride {
		if s.Interrupted() {
			return out
		}
		end := off + l
		last := false
		if end >= len(read) {
			end = len(read)
			last = true
		}
		if end-off >= s.m.sk.Params().K {
			hit, ok := s.MapSegment(read[off:end])
			if ok {
				out = append(out, TileHit{Offset: int32(off), Length: int32(end - off), Hit: hit})
			}
		}
		if last {
			break
		}
	}
	return out
}

// ContainedSubjects reports the distinct subjects hit by interior
// tiles but by neither end tile — candidates for contigs fully
// contained within the read, which end-segment mapping cannot see.
func (s *Session) ContainedSubjects(read []byte, l int) []int32 {
	tiles := s.MapReadTiled(read, l, 0)
	if len(tiles) <= 2 {
		return nil
	}
	atEnds := make(map[int32]struct{})
	readLen := int32(len(read))
	for _, th := range tiles {
		if th.Offset == 0 || th.Offset+th.Length >= readLen {
			atEnds[th.Subject] = struct{}{}
		}
	}
	seen := make(map[int32]struct{})
	var out []int32
	for _, th := range tiles {
		if th.Offset == 0 || th.Offset+th.Length >= readLen {
			continue
		}
		if _, end := atEnds[th.Subject]; end {
			continue
		}
		if _, dup := seen[th.Subject]; dup {
			continue
		}
		seen[th.Subject] = struct{}{}
		out = append(out, th.Subject)
	}
	return out
}

// EndSegments returns the prefix and suffix segments of length l of a
// read. For reads of length ≤ l a single segment (the whole read,
// reported as Prefix) is returned, matching the degenerate case where
// both ends coincide.
func EndSegments(read []byte, l int) (segments [][]byte, kinds []SegmentKind) {
	segs, n := EndSegmentPair(read, l)
	return append([][]byte(nil), segs[:n]...), append([]SegmentKind(nil), endKinds[:n]...)
}

// endKinds[i] is the kind of EndSegmentPair's segs[i].
var endKinds = [2]SegmentKind{Prefix, Suffix}

// EndSegmentPair is EndSegments without allocating: segs[:n] are the
// read's end segments, segs[0] the prefix and, when n == 2, segs[1] the
// suffix.
func EndSegmentPair(read []byte, l int) (segs [2][]byte, n int) {
	if len(read) <= l {
		return [2][]byte{read}, 1
	}
	return [2][]byte{read[:l], read[len(read)-l:]}, 2
}

// MapReads maps the end segments of every read using `workers`
// goroutines (≤0 means GOMAXPROCS) and returns the per-segment
// results in deterministic (read, kind) order.
func (m *Mapper) MapReads(reads []seq.Record, l int, workers int) []Result {
	results, _ := m.MapReadsTimed(reads, l, workers)
	return results
}

// MapReadsTimed is MapReads plus the query-phase wall time, which the
// experiment harness uses for throughput accounting (Fig. 7b).
//
//jem:detached offline batch entry point: no request to inherit from
func (m *Mapper) MapReadsTimed(reads []seq.Record, l int, workers int) ([]Result, time.Duration) {
	start := time.Now()
	results, _ := m.MapReadsContext(context.Background(), reads, l, workers)
	return results, time.Since(start)
}

// MapReadsContext is MapReads under a cancellable context. When ctx is
// done, workers stop mapping (they drain the remaining work queue
// without touching it) and the call returns the results of every read
// completed so far — in deterministic (read, kind) order with cancelled
// reads simply absent — together with ctx.Err(). A serving-integrity
// failure any worker session latched (a lazy shard failing its
// fault-in verification) is returned ahead of cancellation. A nil
// error means the full read set was mapped against a healthy index.
func (m *Mapper) MapReadsContext(ctx context.Context, reads []seq.Record, l int, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([][]Result, len(reads))
	sessErrs := make([]error, workers)
	var wg sync.WaitGroup
	idx := make(chan int, 4*workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := m.NewSession().WithContext(ctx)
			for i := range idx {
				if sess.Interrupted() {
					continue // drain the queue without mapping
				}
				out[i] = mapOneRead(sess, int32(i), reads[i].Seq, l)
			}
			sessErrs[w] = sess.Err()
		}(w)
	}
	for i := range reads {
		idx <- i
	}
	close(idx)
	wg.Wait()
	flat := make([]Result, 0, 2*len(reads))
	for _, rs := range out {
		flat = append(flat, rs...)
	}
	for _, err := range sessErrs {
		if err != nil {
			return flat, err
		}
	}
	return flat, ctx.Err()
}

func mapOneRead(sess *Session, readIndex int32, read []byte, l int) []Result {
	segs, n := EndSegmentPair(read, l)
	results := make([]Result, n)
	for i, seg := range segs[:n] {
		hit, ok := sess.MapSegment(seg)
		r := Result{ReadIndex: readIndex, Kind: endKinds[i], Subject: -1}
		if ok {
			r.Subject = hit.Subject
			r.Count = hit.Count
		}
		results[i] = r
	}
	return results
}

// String renders a result for diagnostics.
func (r Result) String() string {
	return fmt.Sprintf("read %d %s -> subject %d (hits %d)", r.ReadIndex, r.Kind, r.Subject, r.Count)
}
