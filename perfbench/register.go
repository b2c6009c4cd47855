package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
)

// register-storm: Poisson digest REGISTERs at regRate over a large
// provisioned population, half of them first contacts (401 challenge,
// then an authorised retry) and half preemptively authorised
// refreshes of endpoints already bound. All of it leaves from
// regSockets fixed generator sockets. It exercises the write side of
// the directory, the nonce cache and the registrar admission lane,
// with no INVITE and no relay traffic.
const (
	regRate = 1500.0 // REGISTERs per second
	// regPopulation is pbxd's provisioned user count (u0…); initial
	// registrations draw from it without replacement.
	regPopulation   = 20000
	regSockets      = 4
	regRefreshShare = 0.5
	regWarmup       = time.Second
	regDrain        = 10 * time.Second
)

// regOp is one generated REGISTER operation.
type regOp struct {
	due    time.Duration
	callID string
	res    regResult
}

func runRegisterStorm(cfg runConfig) (*result, error) {
	clk := newRunClock()
	s, agents, setupS, err := setupRepeated(cfg.pbxd,
		func(s *sut) ([]*agent, error) {
			var as []*agent
			for i := 0; i < regSockets; i++ {
				a, err := newAgent(s.sipAddr)
				if err != nil {
					closeAgents(as)
					return nil, err
				}
				as = append(as, a)
			}
			return as, nil
		}, closeAgents)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	defer closeAgents(agents)

	rng := stats.NewRNG(cfg.seed)
	order := permutation(rng, regPopulation)
	t0 := clk.now() + 10*time.Millisecond
	w0, w1 := t0+regWarmup, t0+regWarmup+cfg.seconds
	dues := poissonDues(rng, regRate, t0, w1)
	wantRefresh := make([]bool, len(dues))
	for i := range wantRefresh {
		wantRefresh[i] = rng.Float64() < regRefreshShare
	}

	var (
		mu    sync.Mutex
		ready []*regEndpoint // bound endpoints with no REGISTER in flight, oldest first
		bound = map[string]bool{}
		next  int
	)
	ops := make([]*regOp, len(dues))
	var pending sync.WaitGroup
	fire := func(i int) {
		mu.Lock()
		var e *regEndpoint
		refresh := (wantRefresh[i] || next == len(order)) && len(ready) > 0
		if refresh {
			e, ready = ready[0], ready[1:]
		} else if next < len(order) {
			e = &regEndpoint{user: fmt.Sprintf("u%d", order[next]), agent: agents[next%len(agents)]}
			next++
		}
		mu.Unlock()
		op := &regOp{due: dues[i]}
		ops[i] = op
		if e == nil {
			return // population exhausted: the op fails
		}
		pending.Add(1)
		e.register(clk, func(r regResult) {
			op.res, op.callID = r, e.callID
			mu.Lock()
			if r.ok {
				ready = append(ready, e)
				bound[e.user] = true
			}
			mu.Unlock()
			pending.Done()
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
	drained := waitTimeout(&pending, regDrain)
	if werr != nil {
		return nil, werr
	}

	res := newResult()
	if !drained {
		// Unfinished operations are still being written by the agents'
		// receive goroutines, so none is read.
		res.attempted = countIn(dues, w0, w1)
		res.failed = res.attempted
		res.fail("REGISTERs still unanswered %v after the last arrival", regDrain)
		ops = nil
	}
	var lat []timed
	var log spanLog
	for _, op := range ops {
		if op.due < w0 || op.due >= w1 {
			continue
		}
		res.attempted++
		if !op.res.ok {
			res.failed++
			continue
		}
		lat = append(lat, timed{op.due, float64(op.res.done-op.res.sent) / float64(time.Millisecond)})
		if cfg.traced && wins[1].contains(op.due) {
			if op.res.challenged {
				log.add("register_challenge", op.callID, op.res.sent, op.res.challenge)
				log.add("register_auth_to_200", op.callID, op.res.authSent, op.res.done)
			} else {
				log.add("register_auth_to_200", op.callID, op.res.sent, op.res.done)
			}
		}
	}
	if res.failed > 0 {
		res.fail("%d of %d REGISTERs in the window did not end in 200 OK", res.failed, res.attempted)
	}
	if drained {
		final, err := s.scrape()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		want := len(bound)
		mu.Unlock()
		if got := final.Sum("pbx_bindings"); got != float64(want) {
			res.fail("pbx_bindings is %.0f, want the %d registered endpoints", got, want)
		}
	}
	if err := s.memory(res); err != nil {
		return nil, err
	}

	accepted := func(w window) float64 { return w.prom().Delta("pbx_registers_total", "outcome", "accepted") }
	w := wins[0]
	res.e2e["setup_s"] = setupS
	res.e2e["ops_per_cpu_s"] = sliceMedian(wins, func(w window) float64 { return opsPerCPUSecond(w, accepted(w)) })
	sliceLatency(lat, w0, w1, latencySlices(regRate, cfg.seconds)).record(res)
	if cfg.traced {
		tw := wins[1]
		wireLedger(res.layers, tw, accepted(tw))
		res.layers["gen.lag_p99_us"] = percentile(lags, 99)
		res.layers["span.register_challenge_ms"] = log.medianMS("register_challenge")
		res.layers["span.register_auth_to_200_ms"] = log.medianMS("register_auth_to_200")
		res.layers["trace.overhead_share"] = overheadShare(opsPerCPUSecond(w, accepted(w)), opsPerCPUSecond(tw, accepted(tw)))
		if err := log.write(cfg.out, cfg.workload, cfg.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func closeAgents(as []*agent) {
	for _, a := range as {
		a.close()
	}
}
