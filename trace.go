package jem

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// mergeShardWork folds one worker session's per-shard work tallies
// into the run-wide aggregate (growing it if this worker saw more
// shards). Called once per worker at exit, under the run's shard
// mutex.
func mergeShardWork(dst, src []core.ShardWork) []core.ShardWork {
	if len(src) > len(dst) {
		grown := make([]core.ShardWork, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, w := range src {
		dst[i].Postings += w.Postings
		dst[i].Wall += w.Wall
	}
	return dst
}

// attachStreamSpans turns one finished run's phase accumulators into
// children of the request span: read/sketch/gather/write phase spans,
// per-shard children under gather (one per serving shard, so P=1 too),
// and run stats as attributes. Phases overlap in wall time (the stream
// is pipelined), so these children measure work inside each phase, not
// a partition of the request's elapsed time; sketch is worker time not
// attributed to shard lookups.
func attachStreamSpans(sp *obs.Span, st Stats, shards []core.ShardWork) {
	sp.AddTimed("read", st.ReadWall)
	var gather time.Duration
	for _, w := range shards {
		gather += w.Wall
	}
	sketch := st.MapWall - gather
	if sketch < 0 {
		sketch = 0
	}
	sp.AddTimed("sketch", sketch)
	if len(shards) > 0 {
		g := sp.AddTimed("gather", gather)
		g.SetAttr("shards", len(shards))
		for i, w := range shards {
			c := g.AddTimed(fmt.Sprintf("shard%02d", i), w.Wall)
			c.SetAttr("postings", w.Postings)
		}
	}
	sp.AddTimed("write", st.WriteWall)
	sp.SetAttr("reads", st.Reads)
	sp.SetAttr("segments", st.Segments)
	sp.SetAttr("mapped", st.Mapped)
	sp.SetAttr("postings", st.PostingsScanned)
	if st.BadRecords > 0 {
		sp.SetAttr("bad_records", st.BadRecords)
	}
	if st.WorkerPanics > 0 {
		sp.SetAttr("worker_panics", st.WorkerPanics)
	}
}
