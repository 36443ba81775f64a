package jem_test

import (
	"bytes"
	"strings"
	"testing"

	"repro"
	"repro/internal/obs"
)

// spanByName finds the first direct child of sp with the given name.
func spanByName(sp *obs.Span, name string) *obs.Span {
	for _, c := range sp.Children() {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

func attrValue(sp *obs.Span, key string) (any, bool) {
	for _, a := range sp.Attrs() {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// TestStreamAttachesSpans pins the tracing contract of Stream: when
// the context carries a span, the run attaches read/sketch/gather/
// write phase children, per-shard gather children whose postings sum
// to the run total, and the run stats as attributes. An untraced run
// of the same reads writes the same TSV bytes and scans the same
// postings.
func TestStreamAttachesSpans(t *testing.T) {
	ds := buildSmallDataset(t)
	opts := jem.DefaultOptions()
	opts.Shards = 4
	mapper, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}

	var reads, out bytes.Buffer
	if err := writeFASTQ(&reads, ds.Reads); err != nil {
		t.Fatal(err)
	}
	root := obs.NewSpan("request")
	ctx := obs.ContextWithSpan(t.Context(), root)
	stats, err := mapper.Stream(ctx, &reads, &out, jem.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	for _, phase := range []string{"read", "sketch", "gather", "write"} {
		if spanByName(root, phase) == nil {
			t.Errorf("request span missing %q phase child", phase)
		}
	}
	gather := spanByName(root, "gather")
	if gather == nil {
		t.Fatal("no gather span")
	}
	shardSpans := gather.Children()
	if len(shardSpans) != 4 {
		t.Fatalf("gather has %d shard children, want 4", len(shardSpans))
	}
	var postings int64
	var wall int64
	for _, s := range shardSpans {
		if !strings.HasPrefix(s.Name(), "shard") {
			t.Errorf("gather child %q is not a shard span", s.Name())
		}
		v, ok := attrValue(s, "postings")
		if !ok {
			t.Fatalf("shard span %s has no postings attr", s.Name())
		}
		postings += v.(int64)
		wall += int64(s.Duration())
	}
	if postings != stats.PostingsScanned {
		t.Errorf("per-shard postings sum %d != stats total %d", postings, stats.PostingsScanned)
	}
	if wall <= 0 {
		t.Error("no shard accumulated wall time under tracing")
	}
	if v, ok := attrValue(root, "reads"); !ok || v.(int) != stats.Reads {
		t.Errorf("root reads attr = %v, want %d", v, stats.Reads)
	}
	if v, ok := attrValue(root, "mapped"); !ok || v.(int) != stats.Mapped {
		t.Errorf("root mapped attr = %v, want %d", v, stats.Mapped)
	}

	// Rendered tree carries the whole story on four lines plus shards.
	var sb strings.Builder
	if err := obs.RenderSpan(&sb, root, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"request", "gather", "shard00", "postings="} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered tree missing %q:\n%s", want, sb.String())
		}
	}

	// Untraced: no span in the context, and the run (the zero-cost
	// default path) produces exactly what the traced run did. Tracing
	// observes the mapping; it must never change it.
	var reads2, out2 bytes.Buffer
	if err := writeFASTQ(&reads2, ds.Reads); err != nil {
		t.Fatal(err)
	}
	untraced, err := mapper.Stream(t.Context(), &reads2, &out2, jem.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out2.Bytes(), out.Bytes()) {
		t.Errorf("untraced TSV (%d bytes) differs from traced TSV (%d bytes)", out2.Len(), out.Len())
	}
	if untraced.PostingsScanned != stats.PostingsScanned {
		t.Errorf("untraced PostingsScanned %d != traced %d", untraced.PostingsScanned, stats.PostingsScanned)
	}
}

// TestStreamSpansUnsharded: a monolithic index is the one-shard case,
// so its trace carries a gather phase with a single shard00 child whose
// postings are the run's whole PostingsScanned — lookup time is
// measured, not folded into the sketch residual.
func TestStreamSpansUnsharded(t *testing.T) {
	ds := buildSmallDataset(t)
	mapper, err := jem.NewMapper(ds.Contigs, jem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var reads, out bytes.Buffer
	if err := writeFASTQ(&reads, ds.Reads); err != nil {
		t.Fatal(err)
	}
	root := obs.NewSpan("request")
	ctx := obs.ContextWithSpan(t.Context(), root)
	stats, err := mapper.Stream(ctx, &reads, &out, jem.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"read", "sketch", "gather", "write"} {
		if spanByName(root, phase) == nil {
			t.Errorf("request span missing %q phase child", phase)
		}
	}
	gather := spanByName(root, "gather")
	if gather == nil {
		t.FailNow()
	}
	kids := gather.Children()
	if len(kids) != 1 || kids[0].Name() != "shard00" {
		t.Fatalf("gather children = %d, want exactly shard00", len(kids))
	}
	if v, ok := attrValue(kids[0], "postings"); !ok || v.(int64) != stats.PostingsScanned {
		t.Errorf("shard00 postings = %v, want Stats.PostingsScanned %d", v, stats.PostingsScanned)
	}
	if stats.PostingsScanned == 0 {
		t.Error("no postings scanned — the fixture maps nothing, test is vacuous")
	}
}

// TestMapChildSpan: the batch Map entry point contributes a "map"
// child when traced.
func TestMapChildSpan(t *testing.T) {
	ds := buildSmallDataset(t)
	mapper, err := jem.NewMapper(ds.Contigs, jem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	root := obs.NewSpan("request")
	ctx := obs.ContextWithSpan(t.Context(), root)
	if _, err := mapper.Map(ctx, ds.Reads, jem.MapOptions{}); err != nil {
		t.Fatal(err)
	}
	c := spanByName(root, "map")
	if c == nil {
		t.Fatal("no map child span")
	}
	if !c.Ended() {
		t.Error("map span left open")
	}
	if v, ok := attrValue(c, "reads"); !ok || v.(int) != len(ds.Reads) {
		t.Errorf("map span reads attr = %v, want %d", v, len(ds.Reads))
	}
}
