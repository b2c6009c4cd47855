package main

import (
	"fmt"
	"time"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	pbxd     string // pbxd binary (wire workloads)
	out      string // directory for the span dumps, inside the checkout
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	// problems explains every failed correctness check, for stderr.
	problems []string
	// e2e and layers hold the end-to-end and per-layer metric values.
	e2e, layers map[string]float64
}

func newResult() *result {
	return &result{correct: true, e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records a violated correctness check.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runClock measures a run against one origin, so due times, send
// times and receive times from every goroutine compare directly.
type runClock struct{ base time.Time }

func newRunClock() *runClock { return &runClock{base: time.Now()} }

func (c *runClock) now() time.Duration { return time.Since(c.base) }

// sleepUntil blocks until the clock reads t. The Go timer wakes an
// idle process up to a millisecond late; the pacing loops report that
// lateness (gen.lag_p99_us). Latencies are timed from when a request
// or packet actually left, which no stall of pbxd can delay: sends
// never block and arrivals are scheduled ahead.
func (c *runClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// setupRuns is how many times a run sets the system up: setup_s is
// the median of these, so one slow process start does not move it.
const setupRuns = 5

// setupRepeated launches pbxd and prepares the workload state
// setupRuns times, tearing down all but the last, and returns the
// live pair with the median set-up time in seconds: pbxd launch until
// the workload is ready to measure.
func setupRepeated[T any](bin string, prepare func(*sut) (T, error), teardown func(T)) (*sut, T, float64, error) {
	var (
		times []float64
		s     *sut
		st    T
		zero  T
	)
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		var err error
		if s, err = startSUT(bin); err != nil {
			return nil, zero, 0, err
		}
		if st, err = prepare(s); err != nil {
			s.stop()
			return nil, zero, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRuns-1 {
			teardown(st)
			s.stop()
		}
	}
	return s, st, median(times), nil
}

// openLoop fires fire(i) when dues[i] (ascending, on clk) comes due,
// never waiting for earlier operations to finish. It returns how late
// each fire ran, in microseconds.
func openLoop(clk *runClock, dues []time.Duration, fire func(i int)) []float64 {
	lags := make([]float64, 0, len(dues))
	for i, due := range dues {
		clk.sleepUntil(due)
		lags = append(lags, float64(clk.now()-due)/float64(time.Microsecond))
		fire(i)
	}
	return lags
}

// window is one measured interval of a wire workload: pbxd and
// generator readings at both edges, plus pbxd's CPU profile over it
// when traced.
type window struct {
	from, to time.Duration // on the run clock
	a, b     sutSnap
	profile  []cpuSample
}

// sutCPU is pbxd's on-CPU time in the window.
func (w window) sutCPU() time.Duration { return w.b.ns - w.a.nsAfter }

// sutSplit is pbxd's user and kernel time in the window, to a tick.
func (w window) sutSplit() procCPU { return w.b.cpu.Sub(w.a.cpu) }

func (w window) genCPU() procCPU               { return w.b.gen.Sub(w.a.gen) }
func (w window) prom() promDelta               { return promDelta{before: w.a.prom, after: w.b.prom} }
func (w window) contains(t time.Duration) bool { return t >= w.from && t < w.to }

// sliceLen is the length of the slices an untraced window is cut
// into. Per-slice figures are combined by their median, so a short
// stall of the host moves one slice, not the result.
const sliceLen = time.Second

// measureSlices snapshots pbxd every sliceLen over [from,
// from+seconds) of the run clock while the workload's load runs on its
// own goroutines, and returns the slices in order.
func measureSlices(s *sut, clk *runClock, from, seconds time.Duration) ([]window, error) {
	clk.sleepUntil(from)
	prev, err := s.snapshot(false)
	if err != nil {
		return nil, err
	}
	var wins []window
	for t := from + sliceLen; t <= from+seconds; t += sliceLen {
		clk.sleepUntil(t)
		sn, err := s.snapshot(false)
		if err != nil {
			return nil, err
		}
		wins = append(wins, window{from: t - sliceLen, to: t, a: prev, b: sn})
		prev = sn
	}
	return wins, nil
}

// measureTraced splits [from, from+seconds) into an untraced half and
// a traced half (pbxd CPU profile, allocation and context-switch
// counts), so one run yields the per-layer ledger and the tracing
// overhead.
func measureTraced(s *sut, clk *runClock, from, seconds time.Duration) (untraced, traced window, err error) {
	mid, end := from+seconds/2, from+seconds
	clk.sleepUntil(from)
	a, err := s.snapshot(false)
	if err != nil {
		return
	}
	clk.sleepUntil(mid)
	m, err := s.snapshot(true)
	if err != nil {
		return
	}
	type profResult struct {
		data []byte
		err  error
	}
	prof := make(chan profResult, 1)
	go func() {
		data, err := s.cpuProfile(end - mid)
		prof <- profResult{data, err}
	}()
	clk.sleepUntil(end)
	b, err := s.snapshot(true)
	if err != nil {
		return
	}
	p := <-prof
	if p.err != nil {
		err = p.err
		return
	}
	untraced = window{from: from, to: mid, a: a, b: m}
	traced = window{from: mid, to: end, a: m, b: b}
	traced.profile, err = decodeCPUProfile(p.data)
	return
}

// measure runs the window the configuration asks for: 1-second slices
// untraced, or the untraced and traced halves. Either way the first
// element spans from the start of the window.
func measure(cfg runConfig, s *sut, clk *runClock, from time.Duration) ([]window, error) {
	if !cfg.traced {
		return measureSlices(s, clk, from, cfg.seconds)
	}
	u, t, err := measureTraced(s, clk, from, cfg.seconds)
	return []window{u, t}, err
}

// sliceMedian is the median over slices of f.
func sliceMedian(wins []window, f func(window) float64) float64 {
	xs := make([]float64, len(wins))
	for i, w := range wins {
		xs[i] = f(w)
	}
	return median(xs)
}

// timed is one operation's latency sample, keyed by when it was due.
type timed struct {
	due time.Duration
	ms  float64
}

// latencySlices is how many slices a window of the given length
// yields at rate operations per second: one per second at most, and
// no fewer than 1000 samples in each.
func latencySlices(rate float64, window time.Duration) int {
	n := int(rate * window.Seconds() / 1000)
	if secs := int(window / time.Second); n > secs {
		n = secs
	}
	return n
}

// latency is a run's latency distribution: each figure the median over
// slices of the slice's percentile.
type latency struct{ p50, p90, p99 float64 }

// sliceLatency cuts [from, to) into n equal slices by due time and
// takes the percentiles of each. Choose n so each slice holds at least
// 1000 samples, leaving ten beyond its p99.
func sliceLatency(samples []timed, from, to time.Duration, n int) latency {
	if n < 1 {
		n = 1
	}
	per := make([][]float64, n)
	for _, s := range samples {
		if s.due < from || s.due >= to {
			continue
		}
		i := int(int64(s.due-from) * int64(n) / int64(to-from))
		per[i] = append(per[i], s.ms)
	}
	var p50s, p90s, p99s []float64
	for _, xs := range per {
		if len(xs) > 0 {
			p50s = append(p50s, percentile(xs, 50))
			p90s = append(p90s, percentile(xs, 90))
			p99s = append(p99s, percentile(xs, 99))
		}
	}
	return latency{median(p50s), median(p90s), median(p99s)}
}

// record files the latencies with the per-layer figures. They are not
// end-to-end metrics: on a shared virtual machine the CPU time its
// hypervisor steals moved even the median by over a third from run to
// run, more than any bound a change could be held to.
func (l latency) record(res *result) {
	res.layers["latency.p50_ms"] = l.p50
	res.layers["latency.p90_ms"] = l.p90
	res.layers["latency.p99_ms"] = l.p99
}
