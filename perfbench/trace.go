package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/minimizer"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/shardnet"
	"repro/internal/sketch"
)

// span is one call the traced run made into the program, timed from
// the benchmark's side of the call.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the work the call did: tuples, postings, probes or reads.
	N int64 `json:"n,omitempty"`
	// Replay marks a child timed by repeating its call on the same input
	// outside the parent rather than inside it: the program has no spans
	// of its own, so the children of Session.MapSegment are measured
	// this way.
	Replay bool `json:"replay,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. Span ids start at 1.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) add(name string, parent int32, start, end time.Time, n int64, replay bool) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.base)), End: int64(end.Sub(r.base)), N: n, Replay: replay})
	return id
}

// open starts a span whose children are recorded while it runs; close
// ends it.
func (r *recorder) open(name string, parent int32) int32 {
	now := time.Now()
	return r.add(name, parent, now, now, 0, false)
}

func (r *recorder) close(id int32, n int64) {
	end := int64(time.Since(r.base))
	r.mu.Lock()
	r.spans[id-1].End = end
	r.spans[id-1].N = n
	r.mu.Unlock()
}

// named returns the spans with the given name.
func (r *recorder) named(name string) []span {
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write saves every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// Span names: the public function each span times.
const (
	spanRead       = "seq.Reader.Read"
	spanExtract    = "minimizer.AppendExtract"
	spanTrials     = "sketch.Sketcher.QuerySketchTuples"
	spanLookup     = "sketch.Lookup"
	spanMapSegment = "core.Session.MapSegment"
	spanQueryShard = "shardnet.Coordinator.QueryShard"
	spanAdd        = "core.Mapper.AddSubjectsParallel"
	spanSeal       = "core.Mapper.Seal"
	spanSave       = "core.Mapper.WriteIndexFile"
	spanOpen       = "core.open"
	spanStream     = "jem.Mapper.Stream"
	spanWriteTSV   = "jem.WriteTSV"
	spanRequest    = "serve.POST /v1/map"
	spanTTFB       = "serve.ttfb"
)

// traceSetupReps is how many times the traced run repeats the core-level
// setup; each setup layer reports its median.
const traceSetupReps = 3

// coreSetup runs the workload's setup through internal/core directly,
// one span per layer: sketch the contigs, seal, and on the saved-index
// workloads write and reopen the index. It returns the mapper the layer
// replay looks postings up in, and a function releasing it.
func coreSetup(cfg config, in *inputs, rec *recorder) (*core.Mapper, func() error, error) {
	o := jem.DefaultOptions()
	cm, err := core.NewMapper(sketch.Params{K: o.K, W: o.W, T: o.Trials, L: o.SegmentLen, Seed: o.Seed})
	if err != nil {
		return nil, nil, err
	}
	root := rec.open("setup", 0)
	defer rec.close(root, 0)
	t0 := time.Now()
	cm.AddSubjectsParallel(in.Contigs, 0)
	t1 := time.Now()
	rec.add(spanAdd, root, t0, t1, int64(len(in.Contigs)), false)
	if cfg.w.shards > 1 {
		cm.SealSharded(cfg.w.shards, 0)
	} else {
		cm.Seal()
	}
	t2 := time.Now()
	rec.add(spanSeal, root, t1, t2, int64(cfg.w.shards), false)
	noop := func() error { return nil }
	if !cfg.w.mmap && !cfg.w.fleet {
		return cm, noop, nil
	}
	path := filepath.Join(cfg.dir, "traced.jemidx")
	if err := cm.WriteIndexFile(path); err != nil {
		return nil, nil, err
	}
	t3 := time.Now()
	rec.add(spanSave, root, t2, t3, 0, false)
	if cfg.w.mmap {
		om, _, closer, err := core.OpenIndexFile(path, core.MemorySpec{Mode: core.MemoryMMap})
		if err != nil {
			return nil, nil, err
		}
		rec.add(spanOpen, root, t3, time.Now(), 0, false)
		if closer == nil {
			return om, noop, nil
		}
		return om, closer.Close, nil
	}
	// serve-fleet: the front end reads the manifest, each shard server
	// its stripe of shards.
	if _, _, err := core.ReadIndexMetaFile(path); err != nil {
		return nil, nil, err
	}
	for k := 0; k < fleetServers; k++ {
		_, _, mapping, err := core.OpenShardSubset(path, func(sd int) bool { return sd%fleetServers == k },
			core.MemorySpec{Mode: core.MemoryHeap})
		if err != nil {
			return nil, nil, err
		}
		if mapping != nil {
			if err := mapping.Close(); err != nil {
				return nil, nil, err
			}
		}
	}
	rec.add(spanOpen, root, t3, time.Now(), 0, false)
	return cm, noop, nil
}

// timedQuerier is the core.ShardQuerier the traced run puts between a
// session and the shardnet coordinator: every Coordinator.QueryShard
// call becomes a span under the segment being mapped.
type timedQuerier struct {
	coord  *shardnet.Coordinator
	rec    *recorder
	parent int32 // the MapSegment span in progress
}

func (t *timedQuerier) NumShards() int { return t.coord.NumShards() }

func (t *timedQuerier) QueryShard(ctx context.Context, shard int, trials []int32, words []sketch.Word) ([][]sketch.Posting, error) {
	t0 := time.Now()
	lists, err := t.coord.QueryShard(ctx, shard, trials, words)
	t.rec.add(spanQueryShard, t.parent, t0, time.Now(), int64(len(trials)), false)
	return lists, err
}

// replay walks the read set through each layer's public functions, one
// span per call, in three passes: parse every record; map every end
// segment with a session of mapCM; then, segment by segment in the same
// order, extract minimizers, compute the trial sketch and look every
// probe up. The third pass repeats the work MapSegment did inside, as
// children of its span: timing them in a pass of their own keeps each
// call as cold or warm as the calls of the mapping pass, where timing
// them next to MapSegment would hand whichever ran second a warm cache.
// It returns the mappings, formatted as Stream would write them.
func replay(in *inputs, lookupCM, mapCM *core.Mapper, tq *timedQuerier, rec *recorder) ([]jem.Mapping, error) {
	sk := lookupCM.Sketcher()
	p := sk.Params()
	var reads []seq.Record
	sr := seq.NewReader(bytes.NewReader(in.FASTQ))
	for {
		t0 := time.Now()
		r, err := sr.Read()
		t1 := time.Now()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("parsing read %d: %w", len(reads), err)
		}
		rec.add(spanRead, 0, t0, t1, int64(len(r.Seq)), false)
		reads = append(reads, r)
	}

	sess := mapCM.NewSession()
	mappings := make([]jem.Mapping, 0, 2*len(reads))
	var parents []int32
	for ri, r := range reads {
		segs, kinds := core.EndSegments(r.Seq, p.L)
		for si, segment := range segs {
			parent := rec.open(spanMapSegment, 0)
			if tq != nil {
				tq.parent = parent
			}
			before := sess.PostingsScanned()
			hit, ok := sess.MapSegment(segment)
			rec.close(parent, sess.PostingsScanned()-before)
			parents = append(parents, parent)
			m := jem.Mapping{ReadIndex: ri, ReadID: r.ID, End: jem.PrefixEnd}
			if kinds[si] == core.Suffix {
				m.End = jem.SuffixEnd
			}
			if ok {
				m.Mapped, m.Contig, m.SharedTrials = true, int(hit.Subject), int(hit.Count)
				m.ContigID = mapCM.Subject(hit.Subject).Name
			}
			mappings = append(mappings, m)
		}
	}
	if err := sess.Err(); err != nil {
		return nil, err
	}
	if lost := sess.LostShards(); len(lost) > 0 {
		return nil, fmt.Errorf("degraded answer: shards %v lost", lost)
	}

	mp := minimizer.Params{K: p.K, W: p.W, Order: p.Order}
	var lookup func(int, sketch.Word) []sketch.Posting
	if sf := lookupCM.Sharded(); sf != nil {
		lookup = sf.Lookup
	} else {
		lookup = lookupCM.Frozen().Lookup
	}
	var tuples []minimizer.Tuple
	seg := 0
	for _, r := range reads {
		segs, _ := core.EndSegments(r.Seq, p.L)
		for _, segment := range segs {
			a := time.Now()
			tuples = minimizer.AppendExtract(tuples[:0], segment, mp)
			b := time.Now()
			words := sk.QuerySketchTuples(tuples)
			c := time.Now()
			var postings int64
			for t, w := range words {
				postings += int64(len(lookup(t, w)))
			}
			d := time.Now()
			rec.add(spanExtract, parents[seg], a, b, int64(len(tuples)), true)
			rec.add(spanTrials, parents[seg], b, c, int64(len(words)), true)
			if words != nil {
				rec.add(spanLookup, parents[seg], c, d, postings, true)
			}
			seg++
		}
	}
	return mappings, nil
}

// layerTimes sums span durations (ns) and work counts by name.
func layerTimes(spans []span) (ns, n int64, count int) {
	for i := range spans {
		ns += spans[i].dur()
		n += spans[i].N
	}
	return ns, n, len(spans)
}

// countSelf is the mean self time of the MapSegment spans: each span's
// duration minus what its children account for. Replayed children
// (extract, trials, lookup) ran outside the parent and are subtracted
// by duration; RPC children ran inside it, possibly concurrently, so the
// part of the parent's interval they cover is subtracted.
func countSelf(spans []span) float64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total float64
	var n int
	for _, s := range spans {
		if s.Name != spanMapSegment {
			continue
		}
		self := s.dur()
		var live []span
		for _, c := range children[s.ID] {
			if c.Replay {
				self -= c.dur()
			} else {
				live = append(live, c)
			}
		}
		self -= covered(s, live)
		total += float64(self)
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	end := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end, parent.Start), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			end = hi
		}
	}
	return sum
}

// shardnetCounters are the coordinator's registry counters the traced
// run reads.
type shardnetCounters struct{ retries, hedges, hedgeWins int64 }

func readShardnetCounters(reg *obs.Registry) shardnetCounters {
	return shardnetCounters{
		retries:   reg.Counter("jem_shardnet_retries_total", "").Value(),
		hedges:    reg.Counter("jem_shardnet_hedges_total", "").Value(),
		hedgeWins: reg.Counter("jem_shardnet_hedge_wins_total", "").Value(),
	}
}

// runTraced is the traced run: the workload's layers timed call by call
// from the benchmark, the stream path with allocation counts, and on
// serve-fleet the RPC and HTTP tiers. It also measures what tracing
// costs: the workload's throughput with and without the timed phase's
// own spans, alternated within the run.
func runTraced(cfg config, in *inputs, ref *reference) (*metricSet, tally, error) {
	var checks tally
	rec := newRecorder()
	ms := newMetricSet(perLayer)
	d := time.Duration(cfg.seconds * float64(time.Second))

	// Setup layers.
	var (
		lookupCM *core.Mapper
		release  = func() error { return nil }
	)
	for rep := 0; rep < traceSetupReps; rep++ {
		if err := release(); err != nil {
			return nil, checks, err
		}
		runtime.GC()
		var err error
		if lookupCM, release, err = coreSetup(cfg, in, rec); err != nil {
			return nil, checks, fmt.Errorf("core setup: %w", err)
		}
	}
	defer release()
	for _, l := range []struct{ metric, span string }{
		{"core.add_subjects_s", spanAdd}, {"core.seal_s", spanSeal}, {"core.save_s", spanSave}, {"core.open_s", spanOpen},
	} {
		var secs []float64
		for _, s := range rec.named(l.span) {
			secs = append(secs, float64(s.dur())/1e9)
		}
		ms.put(l.metric, median(secs))
	}

	sys, err := setup(cfg.w, in, cfg.dir)
	if err != nil {
		return nil, checks, err
	}
	defer func() {
		if err := sys.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: teardown:", err)
		}
	}()

	// Layer replay. On serve-fleet the segments are mapped through the
	// fleet, with every RPC timed.
	mapCM, tq := lookupCM, (*timedQuerier)(nil)
	if cfg.w.fleet {
		rm, _, err := core.ReadIndexMetaFile(sys.indexPath)
		if err != nil {
			return nil, checks, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		coord, err := shardnet.Dial(ctx, sys.fleetAddrs, shardnet.Config{}, obs.NewRegistry())
		cancel()
		if err != nil {
			return nil, checks, err
		}
		defer coord.Close()
		tq = &timedQuerier{coord: coord, rec: rec}
		rm.SetRemote(tq)
		mapCM = rm
	}
	runtime.GC()
	mappings, err := replay(in, lookupCM, mapCM, tq, rec)
	checks.note("layer replay", err)
	if err != nil {
		return nil, checks, err
	}
	segments := float64(len(mappings))
	reads := float64(len(in.Reads))
	parseNS, _, _ := layerTimes(rec.named(spanRead))
	ms.put("seq.parse_ns_per_kb", float64(parseNS)/(float64(len(in.FASTQ))/1000))
	ns, n, _ := layerTimes(rec.named(spanExtract))
	ms.put("minimizer.extract_ns_per_segment", float64(ns)/segments)
	ms.put("minimizer.tuples_per_segment", float64(n)/segments)
	ns, _, _ = layerTimes(rec.named(spanTrials))
	ms.put("sketch.trials_ns_per_segment", float64(ns)/segments)
	ns, n, lookups := layerTimes(rec.named(spanLookup))
	probes := float64(lookups * jem.DefaultOptions().Trials)
	ms.put("sketch.lookup_ns_per_probe", float64(ns)/probes)
	ms.put("sketch.postings_per_probe", float64(n)/probes)
	ns, n, _ = layerTimes(rec.named(spanMapSegment))
	ms.put("core.map_segment_ns", float64(ns)/segments)
	ms.put("core.postings_per_segment", float64(n)/segments)
	ms.put("core.count_self_ns", countSelf(rec.spans))
	rpcs := rec.named(spanQueryShard)
	ns, n, count := layerTimes(rpcs)
	ms.put("shardnet.rpcs_per_read", float64(count)/reads)
	ms.put("shardnet.probes_per_rpc", ratio(float64(n), float64(count)))
	var rpcUS []float64
	for _, s := range rpcs {
		rpcUS = append(rpcUS, float64(s.dur())/1e3)
	}
	ms.put("shardnet.rpc_p50_us", quantile(rpcUS, 0.50))
	ms.put("shardnet.rpc_p99_us", quantile(rpcUS, 0.99))

	// TSV formatting, on the replay's mappings; the table must equal
	// the reference.
	var tsv bytes.Buffer
	var writeNS []float64
	for rep := 0; rep < 5; rep++ {
		tsv.Reset()
		t0 := time.Now()
		err := jem.WriteTSV(&tsv, mappings)
		t1 := time.Now()
		rec.add(spanWriteTSV, 0, t0, t1, int64(len(in.Reads)), false)
		if err != nil {
			return nil, checks, err
		}
		writeNS = append(writeNS, float64(t1.Sub(t0)))
	}
	checks.note("replay table", compareTSV(tsv.Bytes(), ref.check.tsv))
	ms.put("tsv.write_ns_per_read", median(writeNS)/reads)

	// The stream path: traced passes carry a span and allocation counts;
	// on the stream workloads they alternate with untraced passes for
	// the overhead figure.
	var before shardnetCounters
	if cfg.w.fleet {
		before = readShardnetCounters(sys.reg)
	}
	// coordReads counts the reads sent through sys.mapper, the base of
	// the per-read registry counters on serve-fleet.
	var coordReads int
	r := newStreamRunner(sys.mapper, in)
	var (
		tracedRPS, untracedRPS    []float64
		allocs, allocBytes        []float64
		readWall, mapWall, wrWall []float64
		mem0, mem1                runtime.MemStats
	)
	deadline := time.Now().Add(d / 2)
	for pass := 0; pass < 2 || (!cfg.w.fleet && time.Now().Before(deadline)); pass++ {
		traced := pass%2 == 1 || cfg.w.fleet
		runtime.GC()
		if traced {
			runtime.ReadMemStats(&mem0)
		}
		id := int32(0)
		if traced {
			id = rec.open(spanStream, 0)
		}
		stats, wall, err := r.pass()
		if traced {
			rec.close(id, int64(stats.Reads))
			runtime.ReadMemStats(&mem1)
		}
		checks.note("stream pass", ref.check.verify(stats, err, r.out.Bytes()))
		coordReads += stats.Reads
		rps := float64(stats.Reads) / wall.Seconds()
		if !traced {
			untracedRPS = append(untracedRPS, rps)
			continue
		}
		tracedRPS = append(tracedRPS, rps)
		allocs = append(allocs, float64(mem1.Mallocs-mem0.Mallocs)/float64(stats.Reads))
		allocBytes = append(allocBytes, float64(mem1.TotalAlloc-mem0.TotalAlloc)/float64(stats.Reads))
		readWall = append(readWall, stats.ReadWall.Seconds())
		mapWall = append(mapWall, stats.MapWall.Seconds())
		wrWall = append(wrWall, stats.WriteWall.Seconds())
	}
	ms.put("stream.allocs_per_read", median(allocs))
	ms.put("stream.alloc_bytes_per_read", median(allocBytes))
	ms.put("stream.read_wall_s", median(readWall))
	ms.put("stream.map_wall_s", median(mapWall))
	ms.put("stream.write_wall_s", median(wrWall))

	var ttfb []float64
	rejected := 0
	if cfg.w.fleet {
		// The HTTP tier: closed-loop windows alternating untraced and
		// traced (a span per request, time to first byte as its child).
		chunks, err := requestChunks(in, ref.mapper)
		if err != nil {
			return nil, checks, err
		}
		clients := runtime.NumCPU()
		warm := serveLoop(sys.url, chunks, d/10, clients, nil)
		checks.merge(warm.checks)
		coordReads += warm.reads
		// The overhead figure on this workload comes from these windows.
		untracedRPS, tracedRPS = nil, nil
		for win := 0; win < 4; win++ {
			var wrec *recorder
			if win%2 == 1 {
				wrec = rec
			}
			sr := serveLoop(sys.url, chunks, d/8, clients, wrec)
			checks.merge(sr.checks)
			coordReads += sr.reads
			rejected += sr.rejected
			rps := float64(sr.reads) / sr.wall.Seconds()
			if wrec == nil {
				untracedRPS = append(untracedRPS, rps)
			} else {
				tracedRPS = append(tracedRPS, rps)
				ttfb = append(ttfb, sr.ttfbMS...)
			}
		}
		after := readShardnetCounters(sys.reg)
		ms.put("shardnet.retries_per_read", float64(after.retries-before.retries)/float64(coordReads))
		ms.put("shardnet.hedge_win_ratio", ratio(float64(after.hedgeWins-before.hedgeWins), float64(after.hedges-before.hedges)))
	} else {
		ms.put("shardnet.retries_per_read", 0)
		ms.put("shardnet.hedge_win_ratio", 0)
	}
	ms.put("serve.ttfb_ms", median(ttfb))
	ms.put("serve.rejected_429", float64(rejected))
	untraced, traced := median(untracedRPS), median(tracedRPS)
	ms.put("trace.untraced_reads_per_s", untraced)
	ms.put("trace.traced_reads_per_s", traced)
	ms.put("trace.overhead_frac", 1-ratio(traced, untraced))

	if err := rec.write(cfg.traceFile); err != nil {
		return nil, checks, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: traced run, %d spans written to %s\n",
		cfg.w.name, cfg.seed, len(rec.spans), cfg.traceFile)
	return ms, checks, nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
