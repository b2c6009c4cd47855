package bench

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/sipp"
)

// ShardPoint is one row of the engine-scaling study: the same
// packetized workload replicated across k isolated islands, one per
// shard, so the event volume grows with k while per-island results
// stay pinned to the single-engine goldens.
type ShardPoint struct {
	Shards       int
	Events       uint64  // total events fired across all islands
	Seconds      float64 // wall-clock of the run
	EventsPerSec float64
	// Speedup is events/sec relative to the shards=1 row. On a single
	// core the barrier overhead makes this < 1; it only exceeds 1 when
	// the runtime has cores to put under the shard goroutines.
	Speedup float64
}

// ShardScaling is the engine-scaling study for the sharded simulator.
type ShardScaling struct {
	Workload float64
	Capacity int
	Cores    int // runtime.NumCPU() at measurement time
	Points   []ShardPoint
}

// ShardScalingOptions tunes the study.
type ShardScalingOptions struct {
	// Workload defaults to 200 E (the Table I saturation column).
	Workload float64
	// Capacity defaults to 165 channels.
	Capacity int
	// ShardCounts defaults to {1, 2, 4}.
	ShardCounts []int
	// Seed is the base seed (default 20150525).
	Seed uint64
}

// ShardScalingTable measures simulator throughput at each shard count.
// Each row runs k islands on k shards, so shards=1 is the plain
// one-island run. The workload per island is identical, so events/sec
// is the honest throughput metric across rows.
func ShardScalingTable(opts ShardScalingOptions) ShardScaling {
	if opts.Workload == 0 {
		opts.Workload = 200
	}
	if opts.Capacity == 0 {
		opts.Capacity = 165
	}
	if len(opts.ShardCounts) == 0 {
		opts.ShardCounts = []int{1, 2, 4}
	}
	if opts.Seed == 0 {
		opts.Seed = 20150525
	}
	out := ShardScaling{
		Workload: opts.Workload,
		Capacity: opts.Capacity,
		Cores:    runtime.NumCPU(),
	}
	for _, k := range opts.ShardCounts {
		cfg := core.ExperimentConfig{
			Workload: erlang.Erlangs(opts.Workload),
			Capacity: opts.Capacity,
			Media:    sipp.MediaPacketized,
			Seed:     opts.Seed,
			Shards:   k,
			Islands:  k,
		}
		res := core.Run(cfg)
		secs := res.Elapsed.Seconds()
		p := ShardPoint{
			Shards:  k,
			Events:  res.Events,
			Seconds: secs,
		}
		if secs > 0 {
			p.EventsPerSec = float64(res.Events) / secs
		}
		out.Points = append(out.Points, p)
	}
	if len(out.Points) > 0 && out.Points[0].EventsPerSec > 0 {
		for i := range out.Points {
			out.Points[i].Speedup = out.Points[i].EventsPerSec / out.Points[0].EventsPerSec
		}
	}
	return out
}

// WriteShardScaling renders the study.
func WriteShardScaling(w io.Writer, ss ShardScaling) {
	fmt.Fprintf(w, "Engine scaling: A=%.0f Erlangs packetized on N=%d, %d core(s)\n",
		ss.Workload, ss.Capacity, ss.Cores)
	fmt.Fprintf(w, "%8s%14s%10s%16s%10s\n", "shards", "events", "secs", "events/sec", "speedup")
	for _, p := range ss.Points {
		fmt.Fprintf(w, "%8d%14d%10.2f%16.0f%9.2fx\n",
			p.Shards, p.Events, p.Seconds, p.EventsPerSec, p.Speedup)
	}
}
