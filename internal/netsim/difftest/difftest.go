// Package difftest is the determinism-differential harness of the
// simulation engine: it executes the same experiment once on a
// one-shard group and once partitioned across k shards, then compares
// every externally observable artifact — generator results, PBX
// counters, the CDR stream, the wire capture, the telemetry snapshot,
// the per-second series — demanding bit-identical output.
//
// The sharded scheduler's correctness argument is a chain of ordering
// equivalences (the (at, schedAt, ord) event key, per-link RNG streams,
// whole-second barrier serialization); this package is where the chain
// is checked end to end, against every golden configuration the repo
// pins, so any future engine change that breaks one link shows up as a
// concrete field-level diff rather than a silently drifted golden.
package difftest

import (
	"fmt"
	"reflect"

	"repro/internal/chaos"
	"repro/internal/core"
)

// diff collects field-level mismatches between two runs.
type diff struct {
	fields []string
}

func (d *diff) eq(name string, a, b interface{}) {
	if !reflect.DeepEqual(a, b) {
		d.fields = append(d.fields, fmt.Sprintf("%s:\n  shards=1: %+v\n  sharded:  %+v", name, a, b))
	}
}

func (d *diff) json(name string, a, b []byte) {
	if string(a) != string(b) {
		d.fields = append(d.fields, fmt.Sprintf("%s: %d vs %d bytes (content differs)", name, len(a), len(b)))
	}
}

// DiffExperiment runs cfg with cfg.Shards set to 1 and to shards and
// returns DiffResults of the two runs.
func DiffExperiment(cfg core.ExperimentConfig, shards int) []string {
	single := cfg
	single.Shards = 1
	sharded := cfg
	sharded.Shards = shards
	return DiffResults(core.Run(single), core.Run(sharded))
}

// DiffResults returns one entry per differing result field of runs a
// and b (empty = bit-identical). Elapsed and Config are excluded: wall
// time legitimately differs, and Config records the Shards knob itself.
func DiffResults(a, b core.ExperimentResult) []string {
	var d diff
	d.eq("Load", a.Load, b.Load)
	d.eq("Server", a.Server, b.Server)
	d.eq("Capture", a.Capture, b.Capture)
	d.eq("CPUBand", [3]float64{a.CPULo, a.CPUMean, a.CPUHi}, [3]float64{b.CPULo, b.CPUMean, b.CPUHi})
	d.eq("MOS", a.MOS, b.MOS)
	d.eq("ChannelsUsed", a.ChannelsUsed, b.ChannelsUsed)
	d.eq("Events", a.Events, b.Events)
	d.eq("CDRs", a.CDRs, b.CDRs)
	d.eq("Series", a.Series, b.Series)
	d.eq("SLOBreaches", a.SLOBreaches, b.SLOBreaches)
	aj, aerr := a.Telemetry.MarshalIndent()
	bj, berr := b.Telemetry.MarshalIndent()
	d.eq("Telemetry marshal error", aerr, berr)
	d.json("Telemetry", aj, bj)
	return d.fields
}

// DiffScenario runs a chaos scenario at one shard and at shards and
// compares every observation the harness records, including the
// fault-plane artifacts (link counters, no-route drops, leak detectors).
func DiffScenario(sc chaos.Scenario, shards int) []string {
	single := sc
	single.Shards = 1
	sharded := sc
	sharded.Shards = shards

	a, aerr := chaos.Run(single)
	b, berr := chaos.Run(sharded)
	if aerr != nil || berr != nil {
		return []string{fmt.Sprintf("run error: shards=1: %v, sharded: %v", aerr, berr)}
	}

	var d diff
	d.eq("Load", a.Load, b.Load)
	d.eq("Counters", a.Counters, b.Counters)
	d.eq("CDRs", a.CDRs, b.CDRs)
	d.eq("Signaling", a.Signaling, b.Signaling)
	d.eq("Capture", a.Capture.Row(), b.Capture.Row())
	d.eq("Timeline", a.Timeline.Buckets(), b.Timeline.Buckets())
	d.eq("TimelineTotals", a.Timeline.Totals(), b.Timeline.Totals())
	d.eq("Links", a.Links, b.Links)
	d.eq("NoRoute", a.NoRoute, b.NoRoute)
	d.eq("Leaks", [3]int{a.ActiveChannels, a.ActiveTransactions, a.ActiveSpans},
		[3]int{b.ActiveChannels, b.ActiveTransactions, b.ActiveSpans})
	d.eq("CPUBand", [3]float64{a.CPULo, a.CPUMean, a.CPUHi}, [3]float64{b.CPULo, b.CPUMean, b.CPUHi})
	d.eq("Degradation", a.Degradation, b.Degradation)
	d.eq("Series", a.Series, b.Series)
	aj, ajErr := a.Telemetry.MarshalIndent()
	bj, bjErr := b.Telemetry.MarshalIndent()
	d.eq("Telemetry marshal error", ajErr, bjErr)
	d.json("Telemetry", aj, bj)
	return d.fields
}

// DiffRegistration runs a registration chaos scenario at one shard and
// at shards and compares the generator's view, every incarnation's
// counters, the nonce-cache counters, the location store's end state
// and the telemetry snapshot.
func DiffRegistration(sc chaos.RegistrationScenario, shards int) []string {
	single := sc
	single.Shards = 1
	sharded := sc
	sharded.Shards = shards

	a, aerr := chaos.RunRegistration(single)
	b, berr := chaos.RunRegistration(sharded)
	if aerr != nil || berr != nil {
		return []string{fmt.Sprintf("run error: shards=1: %v, sharded: %v", aerr, berr)}
	}

	var d diff
	d.eq("TimelineSummary", a.TimelineSummary(), b.TimelineSummary())
	d.eq("Load", a.Load, b.Load)
	d.eq("Counters", a.Counters, b.Counters)
	d.eq("Nonces", a.Nonces, b.Nonces)
	d.eq("Store", [2]int64{int64(a.Registered), a.LiveBindings}, [2]int64{int64(b.Registered), b.LiveBindings})
	d.eq("NoRoute", a.NoRoute, b.NoRoute)
	d.eq("Leaks", a.ActiveTransactions, b.ActiveTransactions)
	aj, ajErr := a.Telemetry.MarshalIndent()
	bj, bjErr := b.Telemetry.MarshalIndent()
	d.eq("Telemetry marshal error", ajErr, bjErr)
	d.json("Telemetry", aj, bj)
	return d.fields
}

// DiffCluster runs a cluster chaos scenario at one shard and at shards
// and compares the failover timeline, balancer counters, per-backend
// accounting and the observation plane.
func DiffCluster(sc chaos.ClusterScenario, shards int) []string {
	single := sc
	single.Shards = 1
	sharded := sc
	sharded.Shards = shards

	a, aerr := chaos.RunCluster(single)
	b, berr := chaos.RunCluster(sharded)
	if aerr != nil || berr != nil {
		return []string{fmt.Sprintf("run error: shards=1: %v, sharded: %v", aerr, berr)}
	}

	var d diff
	d.eq("TimelineSummary", a.TimelineSummary(), b.TimelineSummary())
	d.eq("Load", a.Load, b.Load)
	d.eq("Balancer", a.Balancer, b.Balancer)
	d.eq("Events", a.Events, b.Events)
	d.eq("Backends", a.Backends, b.Backends)
	d.eq("NoRoute", a.NoRoute, b.NoRoute)
	d.eq("Series", a.Series, b.Series)
	aj, ajErr := a.Telemetry.MarshalIndent()
	bj, bjErr := b.Telemetry.MarshalIndent()
	d.eq("Telemetry marshal error", ajErr, bjErr)
	d.json("Telemetry", aj, bj)
	return d.fields
}
