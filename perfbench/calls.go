package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// call-storm: Poisson call arrivals at callRate with short fixed
// holds and no RTP, against pbxd's default relay. It stresses SIP
// parsing and transactions, admission, bridge set-up, and the set-up
// and teardown of each call's relay ports; the relay forwards nothing.
const (
	callRate = 150.0 // calls per second
	// callHold keeps about callRate·callHold = 75 calls up, well under
	// the 165-channel capacity, so admission never blocks one.
	callHold   = 500 * time.Millisecond
	callWarmup = time.Second
	// callsDrain bounds the wait for the last calls to hang up.
	callsDrain = 10 * time.Second
)

// poissonDues returns Poisson arrival instants at rate per second in
// [from, to), conditioned on their expected count: that many uniform
// instants, sorted, are a Poisson process given its count. Fixing the
// count keeps a seed from changing how much work a run does.
func poissonDues(rng *stats.RNG, rate float64, from, to time.Duration) []time.Duration {
	dues := make([]time.Duration, int(rate*(to-from).Seconds()))
	for i := range dues {
		dues[i] = from + time.Duration(rng.Float64()*float64(to-from))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	return dues
}

// countIn counts the instants in [from, to).
func countIn(ts []time.Duration, from, to time.Duration) int {
	n := 0
	for _, t := range ts {
		if t >= from && t < to {
			n++
		}
	}
	return n
}

// waitTimeout waits for wg, giving up after d.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

func runCallStorm(cfg runConfig) (*result, error) {
	clk := newRunClock()
	// No RTP flows, so the SDP names the discard port.
	s, ca, setupS, err := setupRepeated(cfg.pbxd,
		func(s *sut) (*callAgents, error) { return newCallAgents(s.sipAddr, clk, "127.0.0.1:9", "127.0.0.1:9") },
		(*callAgents).close)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	defer ca.close()

	t0 := clk.now() + 10*time.Millisecond
	w0, w1 := t0+callWarmup, t0+callWarmup+cfg.seconds
	dues := poissonDues(stats.NewRNG(cfg.seed), callRate, t0, w1)
	calls := make([]*call, len(dues))
	var pending sync.WaitGroup
	fire := func(i int) {
		c := &call{due: dues[i]}
		calls[i] = c
		pending.Add(1)
		ca.invite(c, func(c *call) {
			if c.status != 200 {
				pending.Done()
				return
			}
			time.AfterFunc(callHold, func() { ca.hangup(c, func(*call) { pending.Done() }) })
		})
	}
	var lags []float64
	fired := make(chan struct{})
	go func() {
		defer close(fired)
		lags = openLoop(clk, dues, fire)
	}()
	wins, werr := measure(cfg, s, clk, w0)
	<-fired
	drained := waitTimeout(&pending, callsDrain)
	if werr != nil {
		return nil, werr
	}

	res := newResult()
	if !drained {
		// Unfinished calls are still being written by the agents' receive
		// goroutines, so none is read: the whole window counts as failed.
		res.attempted = countIn(dues, w0, w1)
		res.failed = res.attempted
		res.fail("calls still unfinished %v after the last arrival", callsDrain)
		calls = nil
	}
	var answers []timed
	var log spanLog
	for _, c := range calls {
		ok := c.status == 200 && c.byeStatus == 200
		if c.status == 200 && c.byeStatus != 200 {
			res.fail("answered call %s: BYE got %d", c.id, c.byeStatus)
		}
		if c.due < w0 || c.due >= w1 {
			continue
		}
		res.attempted++
		if !ok {
			res.failed++
			continue
		}
		answers = append(answers, timed{c.due, float64(c.answered-c.sent) / float64(time.Millisecond)})
		if cfg.traced && wins[1].contains(c.due) {
			log.add("invite_to_180", c.id, c.sent, c.ringing)
			log.add("ringing_to_200", c.id, c.ringing, c.answered)
			log.add("bye_to_200", c.id, c.byeSent, c.byeDone)
		}
	}
	if res.failed > 0 {
		res.fail("%d of %d calls in the window were not answered and hung up with 200s", res.failed, res.attempted)
	}
	if drained {
		if err := awaitIdle(s, res); err != nil {
			return nil, err
		}
	}
	if err := s.memory(res); err != nil {
		return nil, err
	}

	answeredIn := func(w window) float64 { return w.prom().Delta("pbx_calls_established_total") }
	w := wins[0]
	res.e2e["setup_s"] = setupS
	res.e2e["ops_per_cpu_s"] = sliceMedian(wins, func(w window) float64 { return opsPerCPUSecond(w, answeredIn(w)) })
	sliceLatency(answers, w0, w1, latencySlices(callRate, cfg.seconds)).record(res)
	if cfg.traced {
		tw := wins[1]
		wireLedger(res.layers, tw, answeredIn(tw))
		res.layers["gen.lag_p99_us"] = percentile(lags, 99)
		res.layers["span.invite_to_180_ms"] = log.medianMS("invite_to_180")
		res.layers["span.ringing_to_200_ms"] = log.medianMS("ringing_to_200")
		res.layers["trace.overhead_share"] = overheadShare(opsPerCPUSecond(w, answeredIn(w)), opsPerCPUSecond(tw, answeredIn(tw)))
		if err := log.write(cfg.out, cfg.workload, cfg.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}
