// Package core is the paper's primary contribution in executable form:
// the capacity-evaluation methodology of Sec. III. It composes the
// substrates — the discrete-event network, the Asterisk-style PBX, the
// SIPp-style generator, the Wireshark/VoIPmonitor-style capture, the
// CPU model and the E-model — into the four-step empirical method of
// Fig. 5, and pairs it with the Erlang-B analytical model so the two
// can be compared (Fig. 6).
//
// One call to Run is one cell of Table I; RunReplications fans
// independent seeds across a worker pool for confidence intervals,
// which is where the evaluation earns its parallel-computing keep.
package core

import (
	"fmt"
	"time"

	"repro/internal/directory"
	"repro/internal/erlang"
	"repro/internal/media"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/pbx"
	"repro/internal/sip"
	"repro/internal/sipp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// ExperimentConfig describes one empirical run.
type ExperimentConfig struct {
	// Workload is the offered traffic A in Erlangs; the arrival rate
	// is derived as λ = A/h (Sec. III-C).
	Workload erlang.Erlangs
	// Hold is the call duration h (paper: 120 s).
	Hold time.Duration
	// Window is the call placement window (paper: 180 s).
	Window time.Duration
	// Warmup excludes calls placed in the first Warmup of the window
	// from the measured aggregates, yielding steady-state figures that
	// Erlang-B predicts. Zero reproduces the paper's transient-included
	// measurement.
	Warmup time.Duration
	// Capacity is the PBX channel cap (paper's host: ≈165). Zero
	// means unlimited.
	Capacity int
	// CPUAdmission switches to CPU-threshold admission (ablation).
	CPUAdmission bool
	// CPUThreshold is the admission limit when CPUAdmission is set.
	CPUThreshold float64
	// Media selects packetized RTP or signalling-only with flow-model
	// quality.
	Media sipp.MediaMode
	// Arrivals and HoldDist select the stochastic shape
	// (default Poisson + fixed hold, like the paper).
	Arrivals sipp.ArrivalProcess
	HoldDist sipp.HoldDistribution
	// LinkDelay/LinkJitter/LinkLoss shape every host↔PBX link, the
	// switch of Fig. 4. Defaults: 1 ms, 0, 0.
	LinkDelay  time.Duration
	LinkJitter time.Duration
	LinkLoss   float64
	// CodecMix draws each caller's offered codec preference list from
	// weighted shares. Empty reproduces the paper's G.711-only
	// workload bit-for-bit.
	CodecMix []sipp.CodecShare
	// PBXCodecs is the PBX's supported payload-type list (empty:
	// G.711 µ/A only, no transcoding).
	PBXCodecs []int
	// CalleeCodecs is the answering bank's supported list (empty:
	// G.711 µ/A).
	CalleeCodecs []int
	// QualityFloorMOS, when positive, layers quality-aware admission
	// over the configured policy: calls whose predicted E-model MOS
	// falls below the floor are shed with 503.
	QualityFloorMOS float64
	// Strategy names the overload-control strategy under test — the
	// knob the bench frontier sweeps head-to-head. "" keeps the legacy
	// per-field knobs (Capacity/CPUAdmission/QualityFloorMOS) exactly
	// as configured; the named strategies overlay the admission and
	// degradation fields through one shared mapping (applyStrategy).
	Strategy string
	// SLO overrides the service-level rules the per-second series is
	// judged against; nil applies monitor.DefaultSLORules().
	SLO *monitor.SLORules
	// Seed drives all randomness in the run.
	Seed uint64
	// Shards is the parallelism of the run: the simulated fabric is
	// partitioned across that many schedulers, synchronized with
	// conservative lookahead on the minimum cross-shard link delay;
	// shards beyond the first run on dedicated goroutines. The event
	// order — and therefore every result field — is the same at every
	// shard count. 0 and 1 both mean one shard.
	Shards int
	// Islands, when > 1, replicates the whole workload that many times
	// in one simulation: island 0 keeps the canonical host names and
	// seeds and is the one the result reports; the replicas only add
	// events. Each island is placed whole on one shard (no cross-shard
	// traffic), which is the near-linear-scaling configuration the
	// engine benchmarks use.
	Islands int
}

// Overload-control strategies selectable via ExperimentConfig.Strategy.
const (
	// StrategyStatic is the classical hard channel cap: admit to the
	// pool limit, 503 the rest (the paper's measured behaviour).
	StrategyStatic = "static"
	// StrategyOccupancy sheds early at 70% of the pool with the
	// EWMA-damped occupancy controller (503 + Retry-After).
	StrategyOccupancy = "occupancy"
	// StrategyQuality is the static cap plus the E-model quality
	// floor: predicted-MOS-below-floor calls are shed with 503.
	StrategyQuality = "quality"
	// StrategyLadder is the full graceful-degradation ladder — codec
	// downgrade → passthrough-only → upstream throttle → block —
	// layered over the occupancy controller's early shed ("degrade
	// before you block" is relative to the same admission baseline).
	StrategyLadder = "ladder"
)

// applyStrategy overlays the named strategy onto the PBX config of
// every island Run builds.
func applyStrategy(cfg ExperimentConfig, pc pbx.Config) pbx.Config {
	switch cfg.Strategy {
	case "":
		// Legacy knobs only.
	case StrategyStatic:
		pc.Admission = pbx.ChannelCapPolicy{Max: cfg.Capacity}
	case StrategyOccupancy:
		pc.Admission = pbx.OccupancyPolicy{
			Max: cfg.Capacity, Target: 0.7,
			RetryAfterMin: 1, RetryAfterMax: 8,
		}
	case StrategyQuality:
		pc.Admission = pbx.ChannelCapPolicy{Max: cfg.Capacity}
		if pc.QualityFloorMOS == 0 {
			pc.QualityFloorMOS = 3.5
		}
	case StrategyLadder:
		pc.Admission = pbx.OccupancyPolicy{
			Max: cfg.Capacity, Target: 0.7,
			RetryAfterMin: 1, RetryAfterMax: 8,
		}
		pc.Degradation = pbx.DegradationConfig{Enabled: true}
	default:
		panic(fmt.Sprintf("core: unknown strategy %q", cfg.Strategy))
	}
	return pc
}

// withDefaults fills the paper's parameter values.
func (c ExperimentConfig) withDefaults() ExperimentConfig {
	if c.Hold == 0 {
		c.Hold = 120 * time.Second
	}
	if c.Window == 0 {
		c.Window = 180 * time.Second
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = time.Millisecond
	}
	return c
}

// ArrivalRate returns λ = A/h for the configured workload.
func (c ExperimentConfig) ArrivalRate() float64 {
	cc := c.withDefaults()
	return erlang.ArrivalRate(cc.Workload, cc.Hold.Seconds())
}

// ExperimentResult is one Table I column plus run metadata.
type ExperimentResult struct {
	Config ExperimentConfig

	// Load reports the generator's view.
	Load sipp.Results
	// Server reports the PBX's counters.
	Server pbx.Counters
	// Capture reports the wire-level message counts.
	Capture monitor.TableRow
	// CPU band (lo, mean, hi) as sampled once per second.
	CPULo, CPUMean, CPUHi float64
	// MOS summarizes per-call scores: CDR-based (the VoIPmonitor
	// position) in packetized mode, flow-model in signalling mode.
	// Completed calls only, as the paper notes.
	MOS stats.Summary
	// ChannelsUsed is the peak concurrent call count (the paper's
	// "Number of Channels (N)" row).
	ChannelsUsed int
	// Events and Elapsed record simulation effort.
	Events  uint64
	Elapsed time.Duration
	// Telemetry is the end-of-run registry snapshot: every metric
	// family the run registered (PBX, SIP, relay, media, scheduler).
	Telemetry telemetry.Snapshot
	// Series is the per-second sampler series (offered load, active
	// calls, blocking, goodput, setup-latency quantiles).
	Series []monitor.Sample
	// SLOBreaches is the rule-violation timeline the SLO evaluator
	// produced over Series (empty when every tick met the rules).
	SLOBreaches []monitor.Breach
	// CDRs is the server's call-detail-record stream in close order,
	// the ledger the determinism-differential harness compares across
	// shard counts.
	CDRs []pbx.CDR
}

// BlockingProbability returns the measured Pb.
func (r ExperimentResult) BlockingProbability() float64 {
	return r.Load.BlockingProbability
}

// AnalyticalBlocking returns Erlang-B for the run's workload on n
// channels, for empirical-vs-model comparison (Fig. 6).
func (r ExperimentResult) AnalyticalBlocking(n int) float64 {
	return erlang.B(r.Config.Workload, n)
}

// islandSalt decorrelates the replica workloads' seeds. Island 0 uses
// salt 0, keeping the canonical seeds.
func islandSalt(i int) uint64 { return uint64(i) * 0x9e3779b97f4a7c15 }

// islandHosts returns the host names of one workload replica. Island 0
// keeps the canonical names, so its traffic, telemetry and capture are
// byte-identical to a single-island run.
func islandHosts(i int) (pbxHost, callerHost, calleeHost string) {
	if i == 0 {
		return "pbx", "sippc", "sipps"
	}
	return fmt.Sprintf("pbx%d", i), fmt.Sprintf("sippc%d", i), fmt.Sprintf("sipps%d", i)
}

// Run executes one experiment to completion and returns its results.
// The simulated fabric runs on a ShardGroup of max(1, cfg.Shards)
// schedulers in conservative-lookahead lock-step, with host groups
// placed by AssignShards. One shard runs inline on the caller's
// goroutine; every observable result field is bit-identical at any
// shard count for the same config and seed (the difftest package pins
// this); only Elapsed differs.
func Run(cfg ExperimentConfig) ExperimentResult {
	cfg = cfg.withDefaults()
	start := time.Now()
	k := max(1, cfg.Shards)
	nIslands := max(1, cfg.Islands)

	group := netsim.NewShardGroup(k)
	rng := stats.NewRNG(cfg.Seed)

	// Placement: a lone island splits into {generator pair} and {pbx}
	// so the signalling and media paths actually cross shards; replica
	// islands are placed whole (they never talk to each other, which
	// unbounds the lookahead and is what makes them scale).
	var groups [][]string
	for i := 0; i < nIslands; i++ {
		p, c, s := islandHosts(i)
		if nIslands > 1 {
			groups = append(groups, []string{p, c, s})
		} else {
			groups = append(groups, []string{c, s}, []string{p})
		}
	}
	hostShard := netsim.AssignShards(cfg.Seed, groups, k)
	net := netsim.NewShardedNetwork(group, rng.Split(), hostShard)
	if nIslands > 1 {
		net.SetIsolatedShards()
	}
	net.SetDefaultProfile(netsim.LinkProfile{
		Delay:  cfg.LinkDelay,
		Jitter: cfg.LinkJitter,
		Loss:   cfg.LinkLoss,
	})

	// Observation plane: one registry shared by island 0's subsystems,
	// plus the scheduler's pull-style families.
	reg := telemetry.NewRegistry()
	monitor.RegisterScheduler(reg, group)

	// Measurement taps — the mirrored switch port of the testbed: one
	// capture per shard that carries island-0 hosts, merged after the
	// run. With replicas present the taps filter on island-0 senders so
	// the merged capture equals the single-island one.
	obsShards := map[int]bool{net.ShardOf("pbx"): true, net.ShardOf("sippc"): true}
	var caps []*monitor.Capture
	for s := 0; s < k; s++ {
		if !obsShards[s] {
			continue
		}
		c := monitor.NewCapture()
		caps = append(caps, c)
		tap := c.Tap()
		if nIslands > 1 {
			inner := tap
			tap = func(now time.Duration, pkt *netsim.Packet) {
				switch pkt.Src.Host {
				case "pbx", "sippc", "sipps":
					inner(now, pkt)
				}
			}
		}
		net.AddShardTap(s, tap)
	}

	type island struct {
		server   *pbx.Server
		finished bool
		results  sipp.Results
	}
	islands := make([]*island, nIslands)

	var sampler *monitor.Sampler
	var slo *monitor.SLO
	for i := 0; i < nIslands; i++ {
		isl := &island{}
		islands[i] = isl
		pbxHost, callerHost, calleeHost := islandHosts(i)
		pbxClock := transport.SimClock{Sched: net.SchedulerFor(pbxHost)}

		var islReg *telemetry.Registry
		if i == 0 {
			islReg = reg
		}

		// The PBX host and its directory.
		dir := directory.New()
		for _, u := range []string{"uac", "uas"} {
			if err := dir.AddUser(directory.User{Username: u, Password: "pw-" + u}); err != nil {
				panic(fmt.Sprintf("core: provisioning %s: %v", u, err))
			}
		}
		factory := func(port int) (transport.Transport, error) {
			return transport.NewSim(net, fmt.Sprintf("%s:%d", pbxHost, port)), nil
		}
		pbxEP := sip.NewEndpoint(transport.NewSim(net, pbxHost+":5060"), pbxClock)
		if islReg != nil {
			pbxEP.UseTelemetry(islReg)
		}
		isl.server = pbx.New(
			pbxEP,
			dir, factory,
			applyStrategy(cfg, pbx.Config{
				MaxChannels:     cfg.Capacity,
				CPUAdmission:    cfg.CPUAdmission,
				CPUThreshold:    cfg.CPUThreshold,
				RelayRTP:        cfg.Media == sipp.MediaPacketized,
				Codecs:          cfg.PBXCodecs,
				QualityFloorMOS: cfg.QualityFloorMOS,
				Seed:            cfg.Seed ^ 0x9bd1 ^ islandSalt(i),
				Telemetry:       islReg,
			}))

		// The SIPp pair (Fig. 4: generator client and server machines).
		gen := sipp.New(net, callerHost, calleeHost, pbxHost+":5060", sipp.Config{
			Rate:         cfg.ArrivalRate(),
			Window:       cfg.Window,
			Warmup:       cfg.Warmup,
			Hold:         cfg.Hold,
			Arrivals:     cfg.Arrivals,
			HoldDist:     cfg.HoldDist,
			Media:        cfg.Media,
			CodecMix:     cfg.CodecMix,
			CalleeCodecs: cfg.CalleeCodecs,
			Target:       "uas",
			Seed:         cfg.Seed ^ 0x51bb01 ^ islandSalt(i),
			Telemetry:    islReg,
		})

		if i == 0 {
			// Per-second time series, ticking as an event on the PBX
			// shard and stopped with the traffic so the drain tail does
			// not pad the series; whole-second window splits make each
			// tick's cross-shard counter reads deterministic. The SLO
			// evaluator rides the sampler's tick hook, judging each
			// finished second.
			sampler = monitor.NewSampler(reg, pbxClock)
			rules := monitor.DefaultSLORules()
			if cfg.SLO != nil {
				rules = *cfg.SLO
			}
			slo = monitor.NewSLO(reg, rules)
			sampler.SetObserver(slo.Observe)
			sampler.Start()
		}

		genSched := net.SchedulerFor(callerHost)
		genShard := net.ShardOf(callerHost)
		gen.Start(func(r sipp.Results) {
			isl.results = r
			isl.finished = true
			// Stopping the sampler and freezing the PBX's CPU meter (so
			// the reported band spans the loaded interval, not the idle
			// drain tail) touch another shard's state, so both are
			// staged as barrier controls — stamped with the decision
			// time so the flushed sample does not depend on the shard
			// count. With one shard the control runs at once.
			doneAt := genSched.Now()
			group.Control(genShard, func() {
				if i == 0 {
					sampler.StopAt(doneAt)
				}
				isl.server.Close()
			})
		})
	}

	allDone := func() bool {
		for _, isl := range islands {
			if !isl.finished {
				return false
			}
		}
		return true
	}

	// Horizon: registration + window + the longest possible call tail
	// plus transaction timeouts.
	horizon := cfg.Window + 10*cfg.Hold + 5*time.Minute
	if err := group.Run(horizon); err != nil {
		panic(fmt.Sprintf("core: scheduler: %v", err))
	}
	if !allDone() {
		// Exponential hold times can exceed the 10·h allowance;
		// extend until every generator completes.
		for i := 0; i < 64 && !allDone(); i++ {
			if err := group.Run(group.Now() + horizon); err != nil {
				panic(fmt.Sprintf("core: scheduler: %v", err))
			}
		}
		if !allDone() {
			panic("core: experiment did not converge")
		}
	}

	capture := caps[0]
	for _, c := range caps[1:] {
		capture.Merge(c)
	}

	server0 := islands[0].server
	res := ExperimentResult{
		Config:       cfg,
		Load:         islands[0].results,
		Server:       server0.CountersSnapshot(),
		Capture:      capture.Row(),
		ChannelsUsed: server0.CountersSnapshot().PeakChannels,
		Events:       group.Fired(),
		Elapsed:      time.Since(start),
	}
	res.CPULo, res.CPUMean, res.CPUHi = server0.CPUBand()
	res.MOS = collectMOS(cfg, server0, islands[0].results)
	res.CDRs = server0.CDRs()
	res.Telemetry = reg.Snapshot()
	res.Series = sampler.Samples()
	res.SLOBreaches = slo.Breaches()
	return res
}

// collectMOS gathers per-call MOS. Packetized mode uses CDRs — the
// VoIPmonitor position on the server; signalling-only mode evaluates
// the flow model per completed call with the path the run configured
// plus the CPU model's overload drop rate.
func collectMOS(cfg ExperimentConfig, server *pbx.Server, results sipp.Results) stats.Summary {
	var s stats.Summary
	if cfg.Media == sipp.MediaPacketized {
		for _, cdr := range server.CDRs() {
			if cdr.Completed && cdr.MOS > 0 {
				s.Add(cdr.MOS)
			}
		}
		return s
	}
	_, meanUtil, _ := server.CPUBand()
	drop := serverDropAt(meanUtil)
	for _, rec := range results.Records {
		if !rec.Established {
			continue
		}
		rep := media.Flow(media.FlowParams{
			Duration:   rec.Duration,
			PathLoss:   1 - (1-cfg.LinkLoss)*(1-drop)*(1-cfg.LinkLoss),
			PathDelay:  2 * cfg.LinkDelay,
			PathJitter: 2 * cfg.LinkJitter,
			Codec:      pbxScoreCodec(),
		}, nil)
		s.Add(rep.MOS)
	}
	return s
}
