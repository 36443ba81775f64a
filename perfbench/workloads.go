package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shardnet"
)

// workload is one set of generated inputs and the path they take
// through the system. BENCHMARK.json and README.md say why each exists.
type workload struct {
	name string
	spec genSpec
	// salt keeps the workloads' inputs apart for one --seed.
	salt int64
	// shards is the index's shard count.
	shards int
	// mmap saves the built index and reopens it as a read-only mapping.
	mmap bool
	// fleet saves the built index, serves its shards from in-process
	// shard servers and puts the HTTP front end over them.
	fleet bool
}

const (
	// fleetServers is the number of shard servers; each owns every
	// fleetServers-th shard.
	fleetServers = 4
	// requestReads is the number of reads in one serve-fleet request body.
	requestReads = 16
	// setupReps is how many times a run sets the system up; setup_s is
	// the median.
	setupReps = 5
)

var workloads = []workload{
	{
		name: "stream-unique",
		spec: genSpec{GenomeLen: 3_500_000, Chromosomes: 2, RepeatFraction: 0.02, Divergence: 0.05,
			Coverage: 10, ReadMedian: 10_000, ContigMedian: 10_000, MaxGap: 1000},
		salt: 1, shards: 1,
	},
	{
		name: "stream-repeats",
		spec: genSpec{GenomeLen: 3_500_000, Chromosomes: 2, RepeatFraction: 0.5, Divergence: 0.01,
			Coverage: 10, ReadMedian: 20_000, ContigMedian: 10_000, MaxGap: 1000},
		salt: 2, shards: 8, mmap: true,
	},
	{
		name: "serve-fleet",
		spec: genSpec{GenomeLen: 3_500_000, Chromosomes: 2, RepeatFraction: 0.25, Divergence: 0.06,
			Coverage: 10, ReadMedian: 10_000, ContigMedian: 10_000, MaxGap: 1000},
		salt: 3, shards: 8, fleet: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) memoryMode() string {
	switch {
	case w.mmap:
		return "mmap"
	case w.fleet:
		return "heap (shard servers)"
	}
	return "heap"
}

// system is one workload's ready-to-serve system.
type system struct {
	mapper *jem.Mapper
	// indexBytes is resident plus mapped index bytes: Mapper.IndexMemory,
	// or on serve-fleet the shard servers' tables.
	indexBytes int64
	indexPath  string
	// serve-fleet only: the front end's URL, the registry it and its
	// mapper record into, and the shard servers' addresses.
	url        string
	reg        *obs.Registry
	fleetAddrs []string
	closers    []func() error
}

// close releases everything setup started, last started first.
func (s *system) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	s.closers = nil
	return errors.Join(errs...)
}

func memoryOf(m *jem.Mapper) int64 {
	resident, mapped := m.IndexMemory()
	return resident + mapped
}

// setup takes the generated inputs to a ready-to-serve system: the
// span setup_s measures. dir holds the index file and the shard
// servers' sockets.
func setup(w workload, in *inputs, dir string) (_ *system, err error) {
	sys := &system{}
	defer func() {
		if err != nil {
			_ = sys.close()
		}
	}()
	opts := jem.DefaultOptions()
	opts.Shards = w.shards
	built, err := jem.NewMapper(in.Contigs, opts)
	if err != nil {
		return nil, fmt.Errorf("building index: %w", err)
	}
	if !w.mmap && !w.fleet {
		sys.mapper = built
		sys.indexBytes = memoryOf(built)
		return sys, nil
	}
	sys.indexPath = filepath.Join(dir, "index.jemidx")
	if err := built.SaveIndexFile(sys.indexPath); err != nil {
		return nil, fmt.Errorf("saving index: %w", err)
	}
	if w.mmap {
		m, _, err := jem.Open(jem.OpenOptions{IndexPath: sys.indexPath,
			Options: jem.Options{Memory: jem.Memory{Mode: jem.MemoryMMap}}})
		if err != nil {
			return nil, fmt.Errorf("opening index: %w", err)
		}
		sys.closers = append(sys.closers, m.Close)
		sys.mapper = m
		sys.indexBytes = memoryOf(m)
		return sys, nil
	}

	if err := startFleet(sys, dir); err != nil {
		return nil, err
	}
	sys.reg = obs.NewRegistry()
	m, _, err := jem.Open(jem.OpenOptions{IndexPath: sys.indexPath, ShardServers: sys.fleetAddrs,
		Options: jem.Options{Metrics: sys.reg}})
	if err != nil {
		return nil, fmt.Errorf("opening fleet-backed index: %w", err)
	}
	sys.closers = append(sys.closers, m.Close)
	sys.mapper = m
	front := serve.New(serve.Config{Registry: sys.reg})
	front.AddIndex("ref", m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	hs := &http.Server{Handler: front.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	sys.closers = append(sys.closers, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	})
	sys.url = "http://" + ln.Addr().String()
	return sys, nil
}

// startFleet starts fleetServers in-process shard servers on unix
// sockets under dir, each holding its stripe of the saved index's
// shards on the heap.
func startFleet(sys *system, dir string) error {
	for k := 0; k < fleetServers; k++ {
		tables, meta, mapping, err := core.OpenShardSubset(sys.indexPath,
			func(sd int) bool { return sd%fleetServers == k }, core.MemorySpec{Mode: core.MemoryHeap})
		if err != nil {
			return fmt.Errorf("loading shards for server %d: %w", k, err)
		}
		if mapping != nil {
			sys.closers = append(sys.closers, mapping.Close)
		}
		for _, t := range tables {
			sys.indexBytes += t.MemBytes()
		}
		srv, err := shardnet.NewServer(tables, shardnet.Info{
			Shards: meta.Shards, T: meta.T, NumSubjects: meta.NumSubjects, ManifestCRC: meta.ManifestCRC,
		})
		if err != nil {
			return fmt.Errorf("shard server %d: %w", k, err)
		}
		sock := filepath.Join(dir, fmt.Sprintf("shard%d.sock", k))
		ln, err := net.Listen("unix", sock)
		if err != nil {
			return fmt.Errorf("shard server %d: %w", k, err)
		}
		srv.Start(ln)
		sys.closers = append(sys.closers, srv.Close)
		sys.fleetAddrs = append(sys.fleetAddrs, "unix:"+sock)
	}
	return nil
}

// setupRepeated sets the system up setupReps times, keeping the last
// one, and returns it with the median setup time in seconds.
func setupRepeated(w workload, in *inputs, dir string) (*system, float64, error) {
	var times []float64
	for rep := 0; ; rep++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := setup(w, in, dir)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if rep == setupReps-1 {
			return sys, median(times), nil
		}
		if err := sys.close(); err != nil {
			return nil, 0, fmt.Errorf("tearing down setup %d: %w", rep, err)
		}
	}
}

// rowEnds returns, per read, how many TSV lines (header included) the
// output holds once that read's rows are written.
func rowEnds(in *inputs, segmentLen int) []int {
	ends := make([]int, len(in.Reads))
	rows := 1
	for i := range in.Reads {
		segs, _ := core.EndSegments(in.Reads[i].Rec.Seq, segmentLen)
		rows += len(segs)
		ends[i] = rows
	}
	return ends
}

// streamRunner runs Mapper.Stream over the whole read set, timing each
// read from the moment its last input byte is handed to Stream to the
// moment its last output row is written.
type streamRunner struct {
	m       *jem.Mapper
	in      *inputs
	rowEnds []int
	avail   []time.Time
	out     bytes.Buffer
	// lat holds the last pass's per-read latencies in milliseconds.
	lat []float64
}

func newStreamRunner(m *jem.Mapper, in *inputs) *streamRunner {
	return &streamRunner{
		m: m, in: in,
		rowEnds: rowEnds(in, m.Options().SegmentLen),
		avail:   make([]time.Time, len(in.Reads)),
		lat:     make([]float64, 0, len(in.Reads)),
	}
}

// pass streams the read set once; the TSV is left in r.out.
func (r *streamRunner) pass() (jem.Stats, time.Duration, error) {
	r.out.Reset()
	src := &trackedReader{r: bytes.NewReader(r.in.FASTQ), ends: r.in.RecordEnds, avail: r.avail}
	dst := &trackedWriter{w: &r.out, rowEnds: r.rowEnds, avail: r.avail, lat: r.lat[:0]}
	t0 := time.Now()
	stats, err := r.m.Stream(context.Background(), src, dst, jem.StreamOptions{})
	wall := time.Since(t0)
	r.lat = dst.lat
	return stats, wall, err
}

// trackedReader notes when each record's last byte is handed out.
type trackedReader struct {
	r     *bytes.Reader
	pos   int64
	next  int
	ends  []int64
	avail []time.Time
}

func (t *trackedReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.pos += int64(n)
	if t.next < len(t.ends) && t.ends[t.next] <= t.pos {
		now := time.Now()
		for t.next < len(t.ends) && t.ends[t.next] <= t.pos {
			t.avail[t.next] = now
			t.next++
		}
	}
	return n, err
}

// trackedWriter counts output lines and, when a read's last row has
// been written, records the read's latency.
type trackedWriter struct {
	w       io.Writer
	lines   int
	next    int
	rowEnds []int
	avail   []time.Time
	lat     []float64
}

func (t *trackedWriter) Write(p []byte) (int, error) {
	t.lines += bytes.Count(p, []byte{'\n'})
	if t.next < len(t.rowEnds) && t.rowEnds[t.next] <= t.lines {
		now := time.Now()
		for t.next < len(t.rowEnds) && t.rowEnds[t.next] <= t.lines {
			t.lat = append(t.lat, float64(now.Sub(t.avail[t.next]))/1e6)
			t.next++
		}
	}
	return t.w.Write(p)
}

// passCheck is what every Stream pass must reproduce.
type passCheck struct {
	reads    int
	tsv      []byte
	postings int64
}

func (c passCheck) verify(stats jem.Stats, err error, out []byte) error {
	switch {
	case err != nil:
		return fmt.Errorf("stream: %w", err)
	case len(stats.ShardsLost) > 0:
		return fmt.Errorf("degraded answer: shards %v lost", stats.ShardsLost)
	case stats.Reads != c.reads:
		return fmt.Errorf("streamed %d reads, want %d", stats.Reads, c.reads)
	case stats.PostingsScanned != c.postings:
		return fmt.Errorf("scanned %d postings, want %d", stats.PostingsScanned, c.postings)
	}
	return compareTSV(out, c.tsv)
}

// tally counts operations and failures, reporting each failure once.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) note(what string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.firstErr == nil {
		t.firstErr = fmt.Errorf("%s: %w", what, err)
	}
}

// merge adds another tally's counts.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// chunk is one serve-fleet request: a slice of the FASTQ and the body
// the in-process Stream produces for it.
type chunk struct {
	body  []byte
	reads int
	want  []byte
}

// requestChunks cuts the read set into requestReads-read bodies and
// computes each one's expected response with ref.
func requestChunks(in *inputs, ref *jem.Mapper) ([]chunk, error) {
	var chunks []chunk
	for lo := 0; lo < len(in.Reads); lo += requestReads {
		hi := min(lo+requestReads, len(in.Reads))
		start := int64(0)
		if lo > 0 {
			start = in.RecordEnds[lo-1]
		}
		c := chunk{body: in.FASTQ[start:in.RecordEnds[hi-1]], reads: hi - lo}
		var want bytes.Buffer
		if _, err := ref.Stream(context.Background(), bytes.NewReader(c.body), &want, jem.StreamOptions{}); err != nil {
			return nil, fmt.Errorf("reference stream: %w", err)
		}
		c.want = want.Bytes()
		chunks = append(chunks, c)
	}
	return chunks, nil
}

// serveResult is one closed-loop phase against the HTTP front end.
type serveResult struct {
	latMS  []float64
	ttfbMS []float64
	reads  int
	wall   time.Duration
	checks tally
	// rejected counts 429 responses.
	rejected int
}

// serveLoop runs a closed loop of `clients` clients for the given
// duration: each POSTs the next chunk, reads the whole TSV, checks it and
// only then sends again. With rec set, every request is recorded as a
// span with its time to first byte as a child.
func serveLoop(url string, chunks []chunk, d time.Duration, clients int, rec *recorder) serveResult {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	var (
		next  atomic.Int64
		mu    sync.Mutex
		total serveResult
		wg    sync.WaitGroup
	)
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var part serveResult
			var body bytes.Buffer
			for time.Now().Before(deadline) {
				ch := &chunks[int(next.Add(1)-1)%len(chunks)]
				lat, ttfb, status, err := postChunk(client, url, ch, &body, rec)
				part.latMS = append(part.latMS, lat)
				if ttfb > 0 {
					part.ttfbMS = append(part.ttfbMS, ttfb)
				}
				if status == http.StatusTooManyRequests {
					part.rejected++
				}
				part.checks.note("request", err)
				if err == nil {
					part.reads += ch.reads
				}
			}
			mu.Lock()
			total.latMS = append(total.latMS, part.latMS...)
			total.ttfbMS = append(total.ttfbMS, part.ttfbMS...)
			total.reads += part.reads
			total.rejected += part.rejected
			total.checks.merge(part.checks)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.wall = time.Since(t0)
	return total
}

// postChunk sends one request, reads the whole answer and checks it. It
// returns the latency and, when rec is set, the time to first byte, both
// in milliseconds, and the HTTP status.
func postChunk(client *http.Client, url string, ch *chunk, body *bytes.Buffer, rec *recorder) (latMS, ttfbMS float64, status int, err error) {
	ctx := context.Background()
	var first time.Time
	if rec != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotFirstResponseByte: func() { first = time.Now() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/map", bytes.NewReader(ch.body))
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err == nil {
		body.Reset()
		_, err = body.ReadFrom(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
	}
	t1 := time.Now()
	latMS = float64(t1.Sub(t0)) / 1e6
	if rec != nil {
		id := rec.add(spanRequest, 0, t0, t1, int64(ch.reads), false)
		if !first.IsZero() {
			rec.add(spanTTFB, id, t0, first, 0, false)
			ttfbMS = float64(first.Sub(t0)) / 1e6
		}
	}
	if err != nil {
		return latMS, ttfbMS, 0, err
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("status %d: %.200s", resp.StatusCode, body.String())
	case resp.Header.Get("X-JEM-Shards-Lost") != "":
		err = fmt.Errorf("degraded answer: shards %s lost", resp.Header.Get("X-JEM-Shards-Lost"))
	default:
		err = compareTSV(body.Bytes(), ch.want)
	}
	return latMS, ttfbMS, resp.StatusCode, err
}
