// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus root-level
// acceptance tests for the headline claims. Each figure/table bench
// performs the complete experiment per iteration and reports the key
// scalar it produces as a bench metric, so `go test -bench=.` doubles
// as the reproduction harness:
//
//	go test -bench=BenchmarkTableICapacity -benchtime=1x
package repro_test

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"repro"
	"repro/internal/bench"
)

// TestBusyHourSizingCheck pins the paper's Sec. IV worked example:
// 3000 calls/busy-hour × 3 min on a 165-channel server blocks ≈1.8%.
func TestBusyHourSizingCheck(t *testing.T) {
	s := bench.Sizing()
	if s.Erlangs != 150 {
		t.Fatalf("traffic = %v Erlangs, want 150", s.Erlangs)
	}
	if math.Abs(s.Pb-0.018) > 0.004 {
		t.Errorf("Pb = %.4f, paper reports ~0.018", s.Pb)
	}
}

// TestAbstractClaim pins the abstract: "more than 160 concurrent voice
// calls with a blocking probability of less than 5% while providing
// voice calls with average MOS above 4".
func TestAbstractClaim(t *testing.T) {
	// Analytically: 160 Erlangs on 165 channels is under 5%.
	if pb := repro.ErlangB(160, repro.DefaultCapacity); pb >= 0.05 {
		t.Errorf("B(160,165) = %.4f, want < 0.05", pb)
	}
	// Empirically: the simulated testbed at A=160 keeps blocking under
	// 10% (paper measured 6%) and MOS above 4.
	res := repro.Run(repro.Experiment{Workload: 160, Capacity: repro.DefaultCapacity, Seed: 160})
	if pb := res.BlockingProbability(); pb >= 0.10 {
		t.Errorf("empirical Pb at A=160 = %.4f", pb)
	}
	if m := res.MOS.Mean(); m <= 4.0 {
		t.Errorf("mean MOS = %.3f, want > 4", m)
	}
}

// TestCallSetupMessageFlow pins Fig. 2 / Sec. IV: 9 SIP messages to
// establish a call through the PBX and 4 to tear it down (13 total).
func TestCallSetupMessageFlow(t *testing.T) {
	res := repro.Run(repro.Experiment{Workload: 2, Capacity: 165, Seed: 2})
	est := uint64(res.Load.Established)
	if est == 0 {
		t.Fatal("no calls established")
	}
	// Subtract the fixed registration traffic (2 phones × 3 msgs:
	// REGISTER, 401, REGISTER, 200 = 8 total... counted exactly below).
	regMsgs := res.Capture.Total - 13*est
	if regMsgs != 8 {
		t.Errorf("per-call SIP messages != 13: total %d for %d calls (residue %d, want 8 registration msgs)",
			res.Capture.Total, est, regMsgs)
	}
}

func BenchmarkFig3ErlangBCurves(b *testing.B) {
	var curves []bench.Fig3Curve
	for i := 0; i < b.N; i++ {
		curves = bench.Fig3(260)
	}
	// Report the paper's operating point.
	b.ReportMetric(curves[7].Pb[164]*100, "Pb@160E,N165,%")
	if testing.Verbose() {
		bench.WriteFig3(benchOut(b), curves)
	}
}

// BenchmarkTableICapacity regenerates Table I with full packetized
// media — every 20 ms RTP frame of every call simulated end to end.
// One iteration is the whole six-workload experiment (~10⁷ events).
func BenchmarkTableICapacity(b *testing.B) {
	var cols []bench.TableIColumn
	for i := 0; i < b.N; i++ {
		cols = bench.TableI(bench.TableIOptions{Seed: uint64(i) + 1})
	}
	last := cols[len(cols)-1].Result
	b.ReportMetric(last.BlockingProbability()*100, "Pb@240E,%")
	b.ReportMetric(last.MOS.Mean(), "MOS@240E")
	b.ReportMetric(last.CPUMean, "CPU@240E,%")
	if testing.Verbose() {
		bench.WriteTableI(benchOut(b), cols)
	}
}

// BenchmarkTableIFlow is the same harness with flow-level media — the
// fast path for iterating on the experiment itself.
func BenchmarkTableIFlow(b *testing.B) {
	var cols []bench.TableIColumn
	for i := 0; i < b.N; i++ {
		cols = bench.TableI(bench.TableIOptions{FlowMedia: true, Seed: uint64(i) + 1})
	}
	b.ReportMetric(cols[len(cols)-1].Result.BlockingProbability()*100, "Pb@240E,%")
}

func BenchmarkFig6EmpiricalVsAnalytical(b *testing.B) {
	var points []bench.Fig6Point
	for i := 0; i < b.N; i++ {
		points = bench.Fig6(bench.Fig6Options{Reps: 3, Seed: uint64(i) + 1})
	}
	// The last point (A=260) against the N=165 overlay.
	last := points[len(points)-1]
	b.ReportMetric(last.Empirical*100, "empirical,%")
	b.ReportMetric(last.Analytical[165]*100, "erlangB165,%")
	if testing.Verbose() {
		bench.WriteFig6(benchOut(b), points, []int{160, 165, 170})
	}
}

func BenchmarkFig7Population(b *testing.B) {
	var curves []bench.Fig7Curve
	for i := 0; i < b.N; i++ {
		curves = bench.Fig7(8000, 165)
	}
	// 60% of the population at 2.5 minutes: the paper's ~21% point.
	b.ReportMetric(curves[1].Points[59].Pb*100, "Pb@60%,2.5min,%")
	if testing.Verbose() {
		bench.WriteFig7(benchOut(b), curves, 8000, 165)
	}
}

func BenchmarkSizingCheck(b *testing.B) {
	var s bench.SizingCheck
	for i := 0; i < b.N; i++ {
		s = bench.Sizing()
	}
	b.ReportMetric(s.Pb*100, "Pb,%")
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationAdmission(b *testing.B) {
	var ab bench.AdmissionAblation
	for i := 0; i < b.N; i++ {
		ab = bench.RunAdmissionAblation(240, uint64(i)+1)
	}
	b.ReportMetric(ab.ChannelCap.BlockingProbability()*100, "cap165-Pb,%")
	b.ReportMetric(ab.CPUAdmitted.BlockingProbability()*100, "cpu50-Pb,%")
	if testing.Verbose() {
		bench.WriteAdmissionAblation(benchOut(b), ab)
	}
}

func BenchmarkAblationMediaModel(b *testing.B) {
	var ab bench.MediaAblation
	for i := 0; i < b.N; i++ {
		ab = bench.RunMediaAblation(uint64(i) + 1)
	}
	b.ReportMetric(ab.PacketizedMOS, "packetizedMOS")
	b.ReportMetric(ab.FlowMOS, "flowMOS")
	b.ReportMetric(float64(ab.PacketizedEvents)/float64(ab.FlowEvents), "eventRatio")
	if testing.Verbose() {
		bench.WriteMediaAblation(benchOut(b), ab)
	}
}

func BenchmarkAblationArrivals(b *testing.B) {
	var ab bench.ArrivalAblation
	for i := 0; i < b.N; i++ {
		ab = bench.RunArrivalAblation(200, 2, uint64(i)+1)
	}
	b.ReportMetric(ab.PoissonBlocking*100, "poisson-Pb,%")
	b.ReportMetric(ab.UniformBlocking*100, "uniform-Pb,%")
	if testing.Verbose() {
		bench.WriteArrivalAblation(benchOut(b), ab)
	}
}

func BenchmarkAblationHoldTime(b *testing.B) {
	var ab bench.HoldAblation
	for i := 0; i < b.N; i++ {
		ab = bench.RunHoldAblation(200, 2, uint64(i)+1)
	}
	b.ReportMetric(ab.FixedBlocking*100, "fixed-Pb,%")
	b.ReportMetric(ab.ExponentialBlocking*100, "exp-Pb,%")
	if testing.Verbose() {
		bench.WriteHoldAblation(benchOut(b), ab)
	}
}

// BenchmarkClusterScaling measures the Sec. IV scale-out alternative:
// blocking vs number of 165-channel servers at A=240, under both
// placement policies, against the pooled and split Erlang-B bounds.
func BenchmarkClusterScaling(b *testing.B) {
	var cs bench.ClusterScaling
	for i := 0; i < b.N; i++ {
		cs = bench.RunClusterScaling(240, 165, 3, uint64(i)+1)
	}
	for _, p := range cs.Points {
		if p.Servers == 2 && p.Policy.String() == "least-busy" {
			b.ReportMetric(p.Measured*100, "k2-leastbusy-Pb,%")
		}
	}
	if testing.Verbose() {
		bench.WriteClusterScaling(benchOut(b), cs)
	}
}

// BenchmarkWiFiImpairment sweeps the VoWiFi radio conditions the
// paper's deployment motivates, measuring per-call MOS with the full
// packetized media path.
func BenchmarkWiFiImpairment(b *testing.B) {
	var results []bench.WiFiResult
	for i := 0; i < b.N; i++ {
		results = bench.WiFiStudy(uint64(i) + 1)
	}
	b.ReportMetric(results[0].MOS.Mean(), "wiredMOS")
	b.ReportMetric(results[len(results)-1].MOS.Mean(), "congestedMOS")
	if testing.Verbose() {
		bench.WriteWiFiStudy(benchOut(b), results)
	}
}

// Micro-benchmarks of the experiment engine itself.

func BenchmarkExperimentSignalling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := repro.Run(repro.Experiment{Workload: 120, Capacity: 165, Seed: uint64(i) + 1})
		b.ReportMetric(float64(res.Events), "events/run")
	}
}

func BenchmarkExperimentPacketized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := repro.Run(repro.Experiment{
			Workload: 40, Capacity: 165, Media: repro.MediaPacketized, Seed: uint64(i) + 1,
		})
		b.ReportMetric(float64(res.Events), "events/run")
	}
}

// BenchmarkExperimentPacketizedSharded measures the engine at the
// Table I saturation point (A=200 E, packetized RTP). Each shard count
// replicates the workload across that many isolated islands — one
// island per shard — so the per-shard work is identical and events/sec
// is the honest throughput metric. shards=1 runs one island inline on
// the benchmark goroutine, the baseline bench-check tracks.
func BenchmarkExperimentPacketizedSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := repro.Experiment{
					Workload: 200, Capacity: 165, Media: repro.MediaPacketized, Seed: uint64(i) + 1,
					Shards: shards, Islands: shards,
				}
				res := repro.Run(cfg)
				b.ReportMetric(float64(res.Events), "events/run")
				if s := res.Elapsed.Seconds(); s > 0 {
					b.ReportMetric(float64(res.Events)/s, "events/sec")
				}
			}
		})
	}
}

// TestShardScalingOnMultiCore asserts the tentpole speedup target —
// ≥2.5× events/sec at shards=4 over shards=1 — on
// hosts that can actually express it. A conservative-lookahead engine
// cannot beat its own barrier overhead on one core, so the check skips
// below 4 CPUs (the 1-core differential suite still pins correctness).
func TestShardScalingOnMultiCore(t *testing.T) {
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("need >= 4 CPUs to measure shard scaling, have %d", n)
	}
	if testing.Short() {
		t.Skip("scaling measurement is slow")
	}
	ss := bench.ShardScalingTable(bench.ShardScalingOptions{ShardCounts: []int{1, 4}})
	last := ss.Points[len(ss.Points)-1]
	if last.Speedup < 2.5 {
		t.Errorf("shards=4 speedup %.2fx, want >= 2.5x (%.0f -> %.0f events/sec on %d cores)",
			last.Speedup, ss.Points[0].EventsPerSec, last.EventsPerSec, ss.Cores)
	}
}

func BenchmarkErlangBFormula(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = repro.ErlangB(160, 165)
	}
}

// benchOut writes tables under -v without polluting metric parsing.
func benchOut(b *testing.B) io.Writer {
	return testWriter{b}
}

type testWriter struct{ b *testing.B }

func (w testWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}
