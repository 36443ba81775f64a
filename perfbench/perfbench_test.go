package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// tiny shrinks a workload so a test can run it end to end in seconds.
func tiny(w workload) workload {
	w.spec.GenomeLen = 200_000
	w.spec.Coverage = 3
	return w
}

func TestGenerateIsDeterministic(t *testing.T) {
	spec := tiny(workloads[0]).spec
	a, err := generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.FASTQ, b.FASTQ) || a.ReadsDigest != b.ReadsDigest || a.ContigsDigest != b.ContigsDigest {
		t.Fatal("the same seed generated different inputs")
	}
	c, err := generate(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.FASTQ, c.FASTQ) || a.ContigsDigest == c.ContigsDigest {
		t.Fatal("another seed generated the same inputs")
	}
	for i, p := range a.Places {
		ref := a.Genome.Records[p.Chrom].Seq[p.Start:p.End]
		if !p.Reverse && !bytes.Equal(a.Contigs[i].Seq, ref) {
			t.Fatalf("contig %d does not match its recorded coordinates", i)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			if !validName.MatchString(d.Name) || !validUnit.MatchString(d.Unit) {
				t.Errorf("%s: invalid name or unit %q %q", kind, d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("%s: %q defined twice", kind, d.Name)
			}
			seen[d.Name] = true
			if listed[i].Name != d.Name || listed[i].Unit != d.Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, listed[i].Name, listed[i].Unit, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestEveryWorkloadPrintsItsMetrics runs each workload, shrunk, in both
// modes and checks the printed metrics are exactly those BENCHMARK.json
// lists for the mode, with their units, and that every output check
// passed.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			cfg := config{w: tiny(w), seed: 3, seconds: 0.3, trace: traced, dir: dir,
				traceFile: filepath.Join(dir, "trace.jsonl")}
			res, _, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bj.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: printed %s [%s], not listed with that unit", w.name, traced, name, m.Unit)
				}
			}
			if !traced && res.Metrics["reads_per_s"].Value <= 0 {
				t.Errorf("%s: reads_per_s = %v", w.name, res.Metrics["reads_per_s"].Value)
			}
		}
	}
}

func TestOutputCheckRejectsFlippedByte(t *testing.T) {
	in, err := generate(tiny(workloads[0]).spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildReference(in)
	if err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), ref.check.tsv...)
	if err := compareTSV(good, ref.check.tsv); err != nil {
		t.Fatalf("identical table rejected: %v", err)
	}
	for _, at := range []int{0, len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[at] ^= 1
		if compareTSV(bad, ref.check.tsv) == nil {
			t.Errorf("table with byte %d flipped accepted", at)
		}
	}
	if compareTSV(good[:len(good)-1], ref.check.tsv) == nil {
		t.Error("truncated table accepted")
	}
}
