package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro"
	"repro/internal/stats"
)

// sim-table1: repro.Run at Table I's saturation point (A = 200 E on
// 165 channels, packetized media, the paper's 120 s holds and 180 s
// window), in process and single-threaded. The netsim scheduler and
// routing, the core wiring and the simulated SIP/PBX/media stack do
// all the work; no socket or kernel path is involved. One run of
// repro.Run is a "cell"; the workload runs cells back to back.
const (
	simLoad     = 200
	simCapacity = 165
	// simSetupWindow is the placement window of the short cell timed as
	// the simulator's set-up: the testbed built, both phones
	// registered, the first calls placed and carried to their end.
	simSetupWindow = 20 * time.Second
)

func simCell(seed uint64, window time.Duration) repro.Result {
	return repro.Run(repro.Experiment{
		Workload: simLoad, Capacity: simCapacity, Media: repro.MediaPacketized,
		Seed: seed, Window: window,
	})
}

// checkMessageFlow applies the accounting of TestCallSetupMessageFlow
// at saturation: 13 SIP messages per established call (Fig. 2's flow
// through the B2BUA), 3 per blocked call (INVITE, 503, ACK) and the
// fixed 8-message residue of the two phones' digest registrations.
func checkMessageFlow(r repro.Result) error {
	est, blk := uint64(r.Load.Established), uint64(r.Load.Blocked)
	if want := 13*est + 3*blk + 8; r.Capture.Total != want || est == 0 || r.Load.Failed != 0 {
		return fmt.Errorf("sim cell seed %d: %d SIP messages for %d established and %d blocked calls (want %d), %d failed",
			r.Config.Seed, r.Capture.Total, est, blk, want, r.Load.Failed)
	}
	return nil
}

// simPhase is the outcome of running cells back to back.
type simPhase struct {
	events, failedEvents uint64
	cpu                  procCPU
	cellMS               []float64 // wall time of each cell
	cellRate             []float64 // events per CPU-second of each cell
	profile              []cpuSample
	mallocs, allocBytes  uint64
	ctxsw                uint64
}

// runCells runs cells until d has passed (at least one), drawing
// seeds from rng. Traced, it profiles CPU and counts allocations and
// context switches over the cells.
func runCells(rng *stats.RNG, d time.Duration, traced bool, res *result) (simPhase, error) {
	var ph simPhase
	var ms0, ms1 runtime.MemStats
	var prof bytes.Buffer
	var ctx0 uint64
	self := strconv.Itoa(os.Getpid())
	if traced {
		var err error
		if ctx0, err = ctxSwitches("/proc", self); err != nil {
			return ph, err
		}
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return ph, err
		}
	}
	cpu0, err := readProcCPU(self)
	if err != nil {
		return ph, err
	}
	start := time.Now()
	for len(ph.cellMS) == 0 || time.Since(start) < d {
		t := time.Now()
		c0, err := schedCPU("/proc", self)
		if err != nil {
			return ph, err
		}
		r := simCell(rng.Uint64(), 0)
		ph.cellMS = append(ph.cellMS, float64(time.Since(t))/float64(time.Millisecond))
		c1, err := schedCPU("/proc", self)
		if err != nil {
			return ph, err
		}
		ph.cellRate = append(ph.cellRate, ratio(float64(r.Events), (c1-c0).Seconds()))
		ph.events += r.Events
		if err := checkMessageFlow(r); err != nil {
			ph.failedEvents += r.Events
			res.fail("%v", err)
		}
	}
	cpu1, err := readProcCPU(self)
	if err != nil {
		return ph, err
	}
	ph.cpu = cpu1.Sub(cpu0)
	if traced {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
		ctx1, err := ctxSwitches("/proc", self)
		if err != nil {
			return ph, err
		}
		ph.ctxsw = ctx1 - ctx0
		ph.mallocs = ms1.Mallocs - ms0.Mallocs
		ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		if ph.profile, err = decodeCPUProfile(prof.Bytes()); err != nil {
			return ph, err
		}
	}
	return ph, nil
}

func (ph simPhase) eventsPerCPUSecond() float64 {
	return ratio(float64(ph.events), ph.cpu.Total().Seconds())
}

func runSim(cfg runConfig) (*result, error) {
	res := newResult()
	rng := stats.NewRNG(cfg.seed)
	var setup []float64
	for i := 0; i < setupRuns; i++ {
		t := time.Now()
		r := simCell(rng.Uint64(), simSetupWindow)
		setup = append(setup, time.Since(t).Seconds())
		if err := checkMessageFlow(r); err != nil {
			res.fail("set-up: %v", err)
		}
	}

	span := cfg.seconds
	if cfg.traced {
		span /= 2
	}
	ph, err := runCells(rng, span, false, res)
	if err != nil {
		return nil, err
	}
	var tph simPhase
	if cfg.traced {
		if tph, err = runCells(rng, span, true, res); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)

	res.attempted = int(ph.events + tph.events)
	res.failed = int(ph.failedEvents + tph.failedEvents)
	res.e2e["setup_s"] = median(setup)
	res.e2e["heap_held_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	res.layers["kernel.peak_rss_mb"] = rss
	res.e2e["ops_per_cpu_s"] = median(ph.cellRate)
	cells := func(p float64) float64 { return percentile(append([]float64(nil), ph.cellMS...), p) }
	latency{cells(50), cells(90), cells(99)}.record(res)
	if cfg.traced {
		ops := float64(tph.events)
		cpuLedger(res.layers, tph.profile, ops)
		res.layers["kernel.sys_share"] = ratio(float64(tph.cpu.Sys), float64(tph.cpu.Total()))
		res.layers["kernel.ctxsw_per_op"] = ratio(float64(tph.ctxsw), ops)
		res.layers["runtime.alloc_bytes_per_op"] = ratio(float64(tph.allocBytes), ops)
		res.layers["sim.allocs_per_event"] = ratio(float64(tph.mallocs), ops)
		res.layers["trace.overhead_share"] = overheadShare(ph.eventsPerCPUSecond(), tph.eventsPerCPUSecond())
	}
	return res, nil
}
