// Command perfbench is the repository's benchmark: one command that
// generates a workload's inputs from a seed, sets the mapper up, drives
// it for a fixed time, checks every output and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line
// of standard output. See README.md for the workloads and metrics, and
// BENCHMARK.json for their definition.
//
//	go run . --workload stream-unique --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
)

// runContext is printed before the result: what a number depends on
// besides the code.
type runContext struct {
	Workload         string `json:"workload"`
	Seed             int64  `json:"seed"`
	Trace            bool   `json:"trace"`
	GeneratorVersion string `json:"generator_version"`
	ContigsDigest    string `json:"contigs_digest"`
	ReadsDigest      string `json:"reads_digest"`
	Contigs          int    `json:"contigs"`
	Reads            int    `json:"reads"`
	// OutputDigest is the digest of the reference mapping table every
	// output was checked against.
	OutputDigest string `json:"output_digest"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Workers      int    `json:"workers"`
	Shards       int    `json:"shards"`
	Memory       string `json:"memory"`
	GoVersion    string `json:"go_version"`
	TraceFile    string `json:"trace_file,omitempty"`
}

type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	// dir is the run's scratch directory (index file, sockets).
	dir string
	// traceFile receives the traced run's spans.
	traceFile string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: stream-unique, stream-repeats or serve-fleet")
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and traces")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := runMain(cfg, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// runMain prepares the scratch directory, runs the workload and prints
// the context and result lines.
func runMain(cfg config, out string) (result, error) {
	// Unix socket paths are short; keep the scratch directory relative
	// to the working directory when it lies inside it.
	if cwd, err := os.Getwd(); err == nil && filepath.IsAbs(out) {
		if rel, err := filepath.Rel(cwd, out); err == nil && !strings.HasPrefix(rel, "..") {
			out = rel
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(out, cfg.w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	if cfg.trace {
		cfg.traceFile = filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	}
	res, rc, err := run(cfg)
	if err != nil {
		return res, err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]runContext{"context": rc}); err != nil {
		return res, err
	}
	return res, enc.Encode(res)
}

// reference is what every output of a run is checked against: the
// mapping table of a heap-resident, unsharded index built from the same
// contigs and streamed in-process, and its posting count.
type reference struct {
	check  passCheck
	mapper *jem.Mapper
}

func buildReference(in *inputs) (*reference, error) {
	m, err := jem.NewMapper(in.Contigs, jem.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("reference index: %w", err)
	}
	var out bytes.Buffer
	stats, err := m.Stream(context.Background(), bytes.NewReader(in.FASTQ), &out, jem.StreamOptions{})
	if err != nil {
		return nil, fmt.Errorf("reference stream: %w", err)
	}
	return &reference{mapper: m, check: passCheck{reads: len(in.Reads), tsv: out.Bytes(), postings: stats.PostingsScanned}}, nil
}

// run generates the inputs and runs the timed or the traced run.
func run(cfg config) (result, runContext, error) {
	in, err := generate(cfg.w.spec, subSeed(cfg.seed, 100+uint64(cfg.w.salt)))
	if err != nil {
		return result{}, runContext{}, err
	}
	rc := runContext{
		Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace,
		GeneratorVersion: GeneratorVersion,
		ContigsDigest:    in.ContigsDigest, ReadsDigest: in.ReadsDigest,
		Contigs: len(in.Contigs), Reads: len(in.Reads),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: runtime.GOMAXPROCS(0),
		Shards: cfg.w.shards, Memory: cfg.w.memoryMode(), GoVersion: runtime.Version(),
		TraceFile: cfg.traceFile,
	}
	ref, err := buildReference(in)
	if err != nil {
		return result{}, rc, err
	}
	rc.OutputDigest = digest(ref.check.tsv)

	var (
		ms     *metricSet
		checks tally
	)
	if cfg.trace {
		ms, checks, err = runTraced(cfg, in, ref)
	} else {
		ms, checks, err = runTimed(cfg, in, ref)
	}
	if err != nil {
		return result{}, rc, err
	}
	values, err := ms.complete()
	if err != nil {
		return result{}, rc, err
	}
	if checks.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n",
			checks.failed, checks.attempted, checks.firstErr)
	}
	return result{
		Correct:   checks.failed == 0,
		Attempted: checks.attempted,
		Failed:    checks.failed,
		Metrics:   values,
	}, rc, nil
}

// runTimed is the untraced run: set up, then drive the workload's path
// for cfg.seconds and report the end-to-end metrics.
func runTimed(cfg config, in *inputs, ref *reference) (*metricSet, tally, error) {
	var checks tally
	sys, setupS, err := setupRepeated(cfg.w, in, cfg.dir)
	if err != nil {
		return nil, checks, err
	}
	defer func() {
		if err := sys.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: teardown:", err)
		}
	}()
	ms := newMetricSet(endToEnd)
	ms.put("setup_s", setupS)
	ms.put("index_mem_mb", float64(sys.indexBytes)/1e6)
	d := time.Duration(cfg.seconds * float64(time.Second))

	var p50, p99 []float64
	if cfg.w.fleet {
		chunks, err := requestChunks(in, ref.mapper)
		if err != nil {
			return nil, checks, err
		}
		clients := runtime.NumCPU()
		warm := serveLoop(sys.url, chunks, d/10, clients, nil) // checked but not reported
		checks.merge(warm.checks)
		runtime.GC()
		sr := serveLoop(sys.url, chunks, d, clients, nil)
		checks.merge(sr.checks)
		p50 = append(p50, quantile(sr.latMS, 0.50))
		p99 = append(p99, quantile(sr.latMS, 0.99))
		ms.put("reads_per_s", float64(sr.reads)/sr.wall.Seconds())
	} else {
		r := newStreamRunner(sys.mapper, in)
		stats, _, err := r.pass() // warm-up, checked but not reported
		checks.note("warm-up pass", ref.check.verify(stats, err, r.out.Bytes()))
		runtime.GC()
		var rps []float64
		deadline := time.Now().Add(d)
		for len(rps) == 0 || time.Now().Before(deadline) {
			stats, wall, err := r.pass()
			checks.note("stream pass", ref.check.verify(stats, err, r.out.Bytes()))
			rps = append(rps, float64(stats.Reads)/wall.Seconds())
			p50 = append(p50, quantile(r.lat, 0.50))
			p99 = append(p99, quantile(r.lat, 0.99))
		}
		ms.put("reads_per_s", median(rps))
	}
	// A stream pass holds thousands of reads, so each pass has its own
	// p99 with tens of reads beyond it; the run reports the median pass.
	// A serve-fleet run is one sample of all its requests.
	ms.put("req_p50_ms", median(p50))
	ms.put("req_p99_ms", median(p99))
	if checks.attempted == 0 {
		return nil, checks, fmt.Errorf("no operation completed")
	}
	ms.put("ok_frac", 1-float64(checks.failed)/float64(checks.attempted))

	// Every checked output equals the reference table, so scoring the
	// reference scores them all.
	opts := jem.DefaultOptions()
	conf, err := newTruthIndex(in, opts.K, opts.SegmentLen).score(ref.check.tsv)
	if err != nil {
		return nil, checks, err
	}
	ms.put("precision", conf.Precision())
	ms.put("recall", conf.Recall())
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d operations, %s\n", cfg.w.name, cfg.seed, checks.attempted, conf)
	return ms, checks, nil
}
