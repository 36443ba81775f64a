package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one metric the benchmark prints: its name and unit. The
// same list, with bounds and directions, is BENCHMARK.json; a test keeps
// the two in step.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run, printed on every workload.
var endToEnd = []metricDef{
	{"reads_per_s", "1/s"},
	{"setup_s", "s"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"index_mem_mb", "MB"},
	{"ok_frac", "fraction"},
	{"precision", "fraction"},
	{"recall", "fraction"},
}

// perLayer are the metrics of a traced run, printed on every workload; a
// layer the workload does not run reports 0.
var perLayer = []metricDef{
	{"seq.parse_ns_per_kb", "ns/kb"},
	{"minimizer.extract_ns_per_segment", "ns"},
	{"minimizer.tuples_per_segment", "count"},
	{"sketch.trials_ns_per_segment", "ns"},
	{"sketch.lookup_ns_per_probe", "ns"},
	{"sketch.postings_per_probe", "count"},
	{"core.map_segment_ns", "ns"},
	{"core.postings_per_segment", "count"},
	{"core.count_self_ns", "ns"},
	{"core.add_subjects_s", "s"},
	{"core.seal_s", "s"},
	{"core.save_s", "s"},
	{"core.open_s", "s"},
	{"stream.allocs_per_read", "count"},
	{"stream.alloc_bytes_per_read", "B"},
	{"stream.read_wall_s", "s"},
	{"stream.map_wall_s", "s"},
	{"stream.write_wall_s", "s"},
	{"tsv.write_ns_per_read", "ns"},
	{"shardnet.rpcs_per_read", "count"},
	{"shardnet.probes_per_rpc", "count"},
	{"shardnet.rpc_p50_us", "us"},
	{"shardnet.rpc_p99_us", "us"},
	{"shardnet.retries_per_read", "count"},
	{"shardnet.hedge_win_ratio", "fraction"},
	{"serve.ttfb_ms", "ms"},
	{"serve.rejected_429", "count"},
	{"trace.untraced_reads_per_s", "1/s"},
	{"trace.traced_reads_per_s", "1/s"},
	{"trace.overhead_frac", "fraction"},
}

// measured is one printed metric value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// metricSet collects the values of one run against a definition list.
type metricSet struct {
	defs   []metricDef
	values map[string]measured
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]measured, len(defs))}
}

// put records a metric; a name outside the definition list is a bug.
func (s *metricSet) put(name string, v float64) {
	for _, d := range s.defs {
		if d.Name == name {
			s.values[name] = measured{Value: v, Unit: d.Unit}
			return
		}
	}
	panic(fmt.Sprintf("perfbench: metric %q is not defined", name))
}

// complete returns the values, or an error naming every defined metric
// the run did not record.
func (s *metricSet) complete() (map[string]measured, error) {
	var missing []string
	for _, d := range s.defs {
		if _, ok := s.values[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not recorded: %v", missing)
	}
	return s.values, nil
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank
// method; xs is sorted in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q * float64(len(xs))))
	if i < 1 {
		i = 1
	}
	if i > len(xs) {
		i = len(xs)
	}
	return xs[i-1]
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }
