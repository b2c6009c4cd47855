package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/monitor"
	"repro/internal/sipp"
)

// goldenRow pins every externally observable statistic of one
// experiment run. The values were captured from the original
// container/heap scheduler and closure-based network path; the
// timing-wheel scheduler and pooled packet path must reproduce them
// bit-for-bit — the determinism contract is (at, seq) total order, so
// any engine change that reorders equal-timestamp events or perturbs
// RNG draw order shows up here as a diff.
type goldenRow struct {
	seed    uint64
	summary string
}

func goldenSummary(res ExperimentResult) string {
	return fmt.Sprintf("events=%d captureTotal=%d blocking=%.17g mosN=%d mosSum=%.17g",
		res.Events, res.Capture.Total,
		res.BlockingProbability(), res.MOS.N(), res.MOS.Mean()*float64(res.MOS.N()))
}

// TestGoldenDeterminism replays three configurations at three seeds
// and compares against pinned outcomes.
func TestGoldenDeterminism(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(seed uint64) ExperimentConfig
		rows []goldenRow
	}{
		{
			name: "signalling-200E",
			cfg: func(seed uint64) ExperimentConfig {
				return ExperimentConfig{Workload: 200, Capacity: 165, Seed: seed}
			},
			rows: []goldenRow{
				{1, "events=5882 captureTotal=3557 blocking=0.16613418530351437 mosN=261 mosSum=1136.1811313065698"},
				{42, "events=5704 captureTotal=3433 blocking=0.17704918032786884 mosN=251 mosSum=1092.6492871952071"},
				{160, "events=6169 captureTotal=3739 blocking=0.19287833827893175 mosN=272 mosSum=1182.4768512120031"},
			},
		},
		{
			name: "flow-model-12E",
			cfg: func(seed uint64) ExperimentConfig {
				return ExperimentConfig{Workload: 12, Capacity: 165, Media: sipp.MediaNone, Seed: seed}
			},
			rows: []goldenRow{
				{1, "events=915 captureTotal=216 blocking=0 mosN=16 mosSum=70.058432778993662"},
				{42, "events=934 captureTotal=229 blocking=0 mosN=17 mosSum=74.437084827680764"},
				{160, "events=1133 captureTotal=372 blocking=0 mosN=28 mosSum=122.60225736323891"},
			},
		},
		{
			name: "packetized-12E",
			cfg: func(seed uint64) ExperimentConfig {
				return ExperimentConfig{Workload: 12, Capacity: 165, Media: sipp.MediaPacketized, Seed: seed}
			},
			rows: []goldenRow{
				{1, "events=576947 captureTotal=216 blocking=0 mosN=16 mosSum=70.057201531372186"},
				{42, "events=612968 captureTotal=229 blocking=0 mosN=17 mosSum=74.435892108248225"},
				{160, "events=1009189 captureTotal=372 blocking=0 mosN=28 mosSum=122.600232871578"},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, row := range tc.rows {
				got := goldenSummary(Run(tc.cfg(row.seed)))
				if got != row.summary {
					t.Errorf("seed %d:\n got  %s\n want %s", row.seed, got, row.summary)
				}
			}
		})
	}
}

// TestGoldenTelemetrySnapshot pins the end-of-run telemetry snapshot
// for one config/seed byte-for-byte: metric family names, label sets,
// bucket layouts and every deterministic value. A diff here means the
// observation plane changed shape — rename, bucket edit, new family —
// which downstream scrapers and the JSON dump consumers must hear
// about. Regenerate with UPDATE_GOLDEN=1 go test ./internal/core/.
func TestGoldenTelemetrySnapshot(t *testing.T) {
	cfg := ExperimentConfig{Workload: 12, Capacity: 165, Media: sipp.MediaNone, Seed: 1}
	first, err := Run(cfg).Telemetry.MarshalIndent()
	if err != nil {
		t.Fatalf("MarshalIndent: %v", err)
	}
	second, err := Run(cfg).Telemetry.MarshalIndent()
	if err != nil {
		t.Fatalf("MarshalIndent: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("telemetry snapshot differs between identical runs")
	}
	golden := filepath.Join("testdata", "telemetry_flow12_seed1.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("telemetry snapshot drifted from %s (%d vs %d bytes); "+
			"regenerate with UPDATE_GOLDEN=1 if the change is intended",
			golden, len(first), len(want))
	}
}

// qosSummary flattens the measured-QoS plane of one run into a pinned
// string: the sensor-derived MOS histogram, the RTCP counters (zero in
// the simulator — sim media sessions emit no RTCP, a determinism
// invariant), the SLO breach counters per rule, and the breach
// timeline length.
func qosSummary(res ExperimentResult) string {
	snap := res.Telemetry
	var mosN uint64
	var mosSum float64
	if f := snap.Family("pbx_call_mos_measured"); f != nil && len(f.Metrics) > 0 {
		mosN = *f.Metrics[0].Count
		mosSum = *f.Metrics[0].Sum
	}
	var rttN uint64
	if f := snap.Family("pbx_call_rtt_seconds"); f != nil && len(f.Metrics) > 0 {
		rttN = *f.Metrics[0].Count
	}
	breach := map[string]float64{}
	if f := snap.Family("pbx_slo_breach_total"); f != nil {
		for _, m := range f.Metrics {
			for _, l := range m.Labels {
				if l.Key == "rule" {
					breach[l.Value] = *m.Value
				}
			}
		}
	}
	return fmt.Sprintf("mosMeasuredN=%d mosMeasuredSum=%.17g rttN=%d rtcp=%.17g "+
		"breachBlocking=%.17g breachMOS=%.17g breachDrops=%.17g breaches=%d",
		mosN, mosSum, rttN, snap.Scalar("rtp_relay_rtcp_total"),
		breach["blocking"], breach["mos_floor"], breach["drop_rate"], len(res.SLOBreaches))
}

// TestGoldenQoSSnapshot pins the measured-QoS plane end to end: the
// per-stream sensors' aggregate MOS on the relay path and the SLO
// verdict stream, for an uncongested packetized run and a blocking-
// heavy one with a deliberately unmeetable MOS floor.
func TestGoldenQoSSnapshot(t *testing.T) {
	cases := []struct {
		name    string
		cfg     ExperimentConfig
		summary string
	}{
		{
			name: "packetized-12E",
			cfg:  ExperimentConfig{Workload: 12, Capacity: 165, Media: sipp.MediaPacketized, Seed: 1},
			// The measured sum equals TestGoldenDeterminism's modeled
			// mosSum for the same cell: with zero link jitter and no
			// RTCP the sensor's delay terms reduce to the CDR model's.
			summary: "mosMeasuredN=16 mosMeasuredSum=70.057201531372186 rttN=0 rtcp=0 " +
				"breachBlocking=0 breachMOS=0 breachDrops=0 breaches=0",
		},
		{
			name: "blocking-30E-cap10",
			cfg: ExperimentConfig{Workload: 30, Capacity: 10, Media: sipp.MediaPacketized, Seed: 1,
				SLO: &monitor.SLORules{MaxBlocking: 0.01, MinOffered: 1, MinMOS: 4.5, MaxDropRate: 0.05}},
			summary: "mosMeasuredN=19 mosMeasuredSum=83.193227370136967 rttN=0 rtcp=0 " +
				"breachBlocking=24 breachMOS=17 breachDrops=0 breaches=41",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := qosSummary(Run(tc.cfg))
			if got != tc.summary {
				t.Errorf("qos summary:\n got  %s\n want %s", got, tc.summary)
			}
		})
	}
}

// TestGoldenReplayStable runs the same seed twice within one process
// and demands identical results, guarding against state leaking
// between runs through pools or globals.
func TestGoldenReplayStable(t *testing.T) {
	cfg := ExperimentConfig{Workload: 12, Capacity: 165, Media: sipp.MediaPacketized, Seed: 7}
	first := goldenSummary(Run(cfg))
	second := goldenSummary(Run(cfg))
	if first != second {
		t.Errorf("replay diverged:\n first  %s\n second %s", first, second)
	}
}
