package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpu"
	"repro/internal/mos"
	"repro/internal/rtp"
	"repro/internal/stats"
	"repro/internal/transport"
)

// relay-g711: relayCalls G.711 passthrough calls are set up before the
// window; during it only RTP flows, 50 packets per second in each
// direction of every call, sent open loop from one pacing loop. It
// isolates the relay data plane: transport, the pbx relay, the media
// QoS meters, rtp parsing and kernel UDP, with no SIP in the window.
const (
	// relayCalls keeps internal/cpu's modelled load (7 + 0.2·N = 27%)
	// under its 45% knee, where the relay would start dropping packets
	// by model, and pbxd's real CPU near a third of one core.
	relayCalls = 100
	rtpFrame   = 20 * time.Millisecond
	// rtpSlots spreads the streams over this many pacing instants per
	// frame, so each wake-up sends one small sendmmsg batch per socket.
	rtpSlots     = 20
	rtpPayload   = 160 // one 20 ms G.711 frame
	relayWarmup  = time.Second
	relayDrain   = 300 * time.Millisecond
	pacingBudget = 5 * time.Millisecond
	// mosFloor is the paper's quality bar; a run below it is invalid.
	mosFloor = 4.0
)

// modelSettle is how long to wait after the last set-up INVITE before
// RTP may flow. pbxd's CPU model charges 5% per call attempt per
// second through an EWMA (alpha 0.3, one sample a second), so the
// burst of set-up INVITEs briefly lifts the modelled load past the
// knee; RTP sent then would be dropped by model. The bound assumes
// every attempt landed in one sampling second, the worst case.
func modelSettle(calls, attempts int) time.Duration {
	m := cpu.DefaultModel()
	const margin = 2 // percentage points below the knee
	headroom := (m.OverloadKnee - margin - m.BasePercent - m.PerCallPercent*float64(calls)) / m.PerAttemptPercent
	ewma := 0.3 * float64(attempts)
	ticks := 1 // the sample that closes the second of the last attempt
	for ewma > headroom && ticks < 60 {
		ewma *= 0.7
		ticks++
	}
	return time.Duration(ticks)*time.Second + 200*time.Millisecond
}

// rtpStream is one direction of one call's media.
type rtpStream struct {
	ssrc   uint32
	dst    string // the PBX relay port it is sent to
	sock   *transport.UDPTransport
	slot   int
	callID string

	// Pacer goroutine only.
	sentWin   int
	firstSent time.Duration

	// Receiver side, under rtpRx.mu.
	next       uint16
	rxWin      int
	maxTransit time.Duration
	lastRx     time.Duration
}

// slotDue is when frame f of the streams in slot is due to be sent.
func slotDue(t0 time.Duration, f, slot int) time.Duration {
	return t0 + time.Duration(f)*rtpFrame + time.Duration(slot)*rtpFrame/rtpSlots
}

// fillPayload writes the deterministic payload of (ssrc, seq), so the
// receiver can check every byte without keeping what was sent.
func fillPayload(p []byte, salt uint64, ssrc uint32, seq uint16) {
	x := salt ^ uint64(ssrc)<<16 ^ uint64(seq)
	for i := 0; i+8 <= len(p); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(p[i:], z^z>>31)
	}
}

// rtpRx checks and times every packet that comes back through the
// relay, on both media sockets.
type rtpRx struct {
	clk    *runClock
	salt   uint64
	t0     time.Duration
	w0, w1 time.Duration
	bySSRC map[uint32]*rtpStream // read-only once media flows
	// sentAt holds, per frame and slot, when the pacing loop handed that
	// instant's packets to the kernel.
	sentAt []atomic.Int64

	mu         sync.Mutex
	pkt        rtp.Packet
	want       []byte
	transit    []timed
	violations int
	firstErr   string
}

func (r *rtpRx) violate(format string, args ...any) {
	if r.violations == 0 {
		r.firstErr = fmt.Sprintf(format, args...)
	}
	r.violations++
}

func (r *rtpRx) onPacket(src string, data []byte) {
	now := r.clk.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.pkt.Unmarshal(data); err != nil {
		r.violate("unparseable RTP from %s: %v", src, err)
		return
	}
	s := r.bySSRC[r.pkt.SSRC]
	if s == nil {
		r.violate("unknown SSRC %#x", r.pkt.SSRC)
		return
	}
	seq := r.pkt.Sequence
	if seq != s.next {
		r.violate("SSRC %#x: sequence %d, want %d", s.ssrc, seq, s.next)
	}
	s.next = seq + 1
	fillPayload(r.want, r.salt, s.ssrc, seq)
	if !bytes.Equal(r.pkt.Payload, r.want) {
		r.violate("SSRC %#x seq %d: payload differs from the one sent", s.ssrc, seq)
		return
	}
	s.lastRx = now
	due := slotDue(r.t0, int(seq), s.slot)
	if due < r.w0 || due >= r.w1 {
		return
	}
	transit := now - time.Duration(r.sentAt[int(seq)*rtpSlots+s.slot].Load())
	s.rxWin++
	if transit > s.maxTransit {
		s.maxTransit = transit
	}
	r.transit = append(r.transit, timed{due, float64(transit) / float64(time.Millisecond)})
}

// relaySetup is the state one set-up builds: the signalling agents,
// the two media sockets every call uses, and the answered calls.
type relaySetup struct {
	ca                     *callAgents
	callerSock, calleeSock *transport.UDPTransport
	calls                  []*call
	inbound                []inboundLeg // the PBX's legs to the callee, one per call
}

func (st *relaySetup) close() {
	if st.ca != nil {
		st.ca.close()
	}
	if st.callerSock != nil {
		st.callerSock.Close()
	}
	if st.calleeSock != nil {
		st.calleeSock.Close()
	}
}

// prepareRelay registers the agents and answers relayCalls calls.
func prepareRelay(s *sut, clk *runClock) (_ *relaySetup, err error) {
	st := &relaySetup{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.callerSock, err = transport.ListenUDP("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if st.calleeSock, err = transport.ListenUDP("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if st.ca, err = newCallAgents(s.sipAddr, clk, st.callerSock.LocalAddr(), st.calleeSock.LocalAddr()); err != nil {
		return nil, err
	}
	inbound := make(chan inboundLeg, relayCalls)
	st.ca.mu.Lock()
	st.ca.onInbound = func(l inboundLeg) { inbound <- l }
	st.ca.mu.Unlock()
	answered := make(chan *call, relayCalls)
	for i := 0; i < relayCalls; i++ {
		st.ca.invite(&call{}, func(c *call) { answered <- c })
	}
	deadline := time.After(20 * time.Second)
	for len(st.calls) < relayCalls || len(st.inbound) < relayCalls {
		select {
		case c := <-answered:
			if c.status != 200 || c.relay == "" {
				return nil, fmt.Errorf("set-up call answered %d (relay %q)", c.status, c.relay)
			}
			st.calls = append(st.calls, c)
		case r := <-inbound:
			st.inbound = append(st.inbound, r)
		case <-deadline:
			return nil, fmt.Errorf("%d of %d set-up calls answered", len(st.calls), relayCalls)
		}
	}
	return st, nil
}

func runRelay(cfg runConfig) (*result, error) {
	clk := newRunClock()
	s, st, setupS, err := setupRepeated(cfg.pbxd,
		func(s *sut) (*relaySetup, error) { return prepareRelay(s, clk) },
		func(st *relaySetup) { st.close() })
	if err != nil {
		return nil, err
	}
	defer s.stop()
	defer st.close()
	time.Sleep(modelSettle(relayCalls, relayCalls))

	// Streams: one per direction of every call, with seeded SSRCs and
	// a seeded spread over the pacing slots.
	rng := stats.NewRNG(cfg.seed)
	salt := rng.Uint64()
	var streams []*rtpStream
	for _, c := range st.calls {
		streams = append(streams, &rtpStream{dst: c.relay, sock: st.callerSock, callID: c.id})
	}
	for _, l := range st.inbound {
		streams = append(streams, &rtpStream{dst: l.relay, sock: st.calleeSock, callID: l.callID})
	}
	byssrc := map[uint32]*rtpStream{}
	slots := make([][]*rtpStream, rtpSlots)
	for i, k := range permutation(rng, len(streams)) {
		s := streams[k]
		for s.ssrc == 0 || byssrc[s.ssrc] != nil {
			s.ssrc = uint32(rng.Uint64())
		}
		byssrc[s.ssrc] = s
		s.slot = i % rtpSlots
		slots[s.slot] = append(slots[s.slot], s)
	}

	t0 := clk.now() + 10*time.Millisecond
	w0, w1 := t0+relayWarmup, t0+relayWarmup+cfg.seconds
	frames := int((w1-t0)/rtpFrame) + 1
	rx := &rtpRx{clk: clk, salt: salt, t0: t0, w0: w0, w1: w1, bySSRC: byssrc,
		sentAt: make([]atomic.Int64, frames*rtpSlots), want: make([]byte, rtpPayload)}
	st.callerSock.SetReceiver(rx.onPacket)
	st.calleeSock.SetReceiver(rx.onPacket)

	var lags []float64
	paced := make(chan struct{})
	go func() {
		defer close(paced)
		lags = pace(clk, slots, salt, t0, w0, w1, rx.sentAt, st.callerSock, st.calleeSock)
	}()
	wins, werr := measure(cfg, s, clk, w0)
	<-paced
	time.Sleep(relayDrain)
	// Closing waits for the read loops, so rx is settled from here on.
	st.callerSock.Close()
	st.calleeSock.Close()
	if werr != nil {
		return nil, werr
	}

	res := newResult()
	var mosSum float64
	for _, s := range streams {
		res.attempted += s.sentWin
		lost := s.sentWin - s.rxWin
		res.failed += lost
		loss := ratio(float64(lost), float64(s.sentWin))
		mosSum += mos.Score(mos.G711, mos.Metrics{OneWayDelay: s.maxTransit + rtpFrame, LossRatio: loss, BurstRatio: 1})
	}
	mosMean := mosSum / float64(len(streams))
	if rx.violations > 0 {
		res.fail("%d RTP packets out of order or corrupted; first: %s", rx.violations, rx.firstErr)
	}
	if res.failed > 0 {
		res.fail("%d of %d RTP packets due in the window never came back", res.failed, res.attempted)
	}
	if mosMean < mosFloor {
		res.fail("mean MOS %.3f below %.1f", mosMean, mosFloor)
	}
	// A late generator leaves pbxd's outputs correct but the run less
	// trustworthy, so it warns rather than fails.
	lagP99 := percentile(lags, 99)
	if lagP99 > float64(pacingBudget/time.Microsecond) {
		fmt.Fprintf(os.Stderr, "perfbench: warning: generator ran late: pacing lag p99 %.0f us over the %v budget\n", lagP99, pacingBudget)
	}

	final, err := s.scrape()
	if err != nil {
		return nil, err
	}
	if d := final.Sum("rtp_relay_dropped_total"); d != 0 {
		res.fail("relay dropped %.0f packets (rtp_relay_dropped_total)", d)
	}
	if err := hangupAll(st.ca, st.calls, s, res); err != nil {
		return nil, err
	}
	if err := s.memory(res); err != nil {
		return nil, err
	}

	relayed := func(w window) float64 { return w.prom().Delta("rtp_relay_packets_total") }
	w := wins[0]
	res.e2e["setup_s"] = setupS
	res.e2e["ops_per_cpu_s"] = sliceMedian(wins, func(w window) float64 { return opsPerCPUSecond(w, relayed(w)) })
	sliceLatency(rx.transit, w0, w1, latencySlices(2*relayCalls/rtpFrame.Seconds(), cfg.seconds)).record(res)
	if cfg.traced {
		tw := wins[1]
		wireLedger(res.layers, tw, relayed(tw))
		res.layers["media.mos_mean"] = mosMean
		res.layers["gen.lag_p99_us"] = lagP99
		res.layers["trace.overhead_share"] = overheadShare(opsPerCPUSecond(w, relayed(w)), opsPerCPUSecond(tw, relayed(tw)))
		var log spanLog
		for _, s := range streams {
			log.add("rtp_leg", s.callID, s.firstSent, s.lastRx)
		}
		if err := log.write(cfg.out, cfg.workload, cfg.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pace is the generator's single RTP loop: at each slot instant it
// sends that slot's packet of every stream there, one sendmmsg per
// socket, until end, and notes in sentAt when it did. It returns how
// late each instant was served, in microseconds, and counts per stream
// the packets due in [w0, w1).
func pace(clk *runClock, slots [][]*rtpStream, salt uint64, t0, w0, end time.Duration, sentAt []atomic.Int64, socks ...*transport.UDPTransport) []float64 {
	payload := make([]byte, rtpPayload)
	var buf []byte
	var lags []float64
	for f := 0; ; f++ {
		for slot, ss := range slots {
			due := slotDue(t0, f, slot)
			if due >= end {
				return lags
			}
			clk.sleepUntil(due)
			now := clk.now()
			lags = append(lags, float64(now-due)/float64(time.Microsecond))
			for _, s := range ss {
				seq := uint16(f)
				fillPayload(payload, salt, s.ssrc, seq)
				pkt := rtp.Packet{PayloadType: 0, Sequence: seq, Timestamp: uint32(f) * rtpPayload, SSRC: s.ssrc, Payload: payload}
				buf = pkt.Marshal(buf[:0])
				s.sock.QueueSend(s.dst, buf)
				if due >= w0 {
					s.sentWin++
					if s.firstSent == 0 {
						s.firstSent = now
					}
				}
			}
			sentAt[f*rtpSlots+slot].Store(int64(clk.now()))
			for _, sk := range socks {
				sk.Flush()
			}
		}
	}
}

// permutation returns a seeded random order of 0..n-1.
func permutation(rng *stats.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// hangupAll sends BYE on every call, requires a 200 for each, and
// requires pbxd to hold no channel afterwards.
func hangupAll(ca *callAgents, calls []*call, s *sut, res *result) error {
	ended := make(chan *call, len(calls))
	for _, c := range calls {
		ca.hangup(c, func(c *call) { ended <- c })
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < len(calls); i++ {
		select {
		case c := <-ended:
			if c.byeStatus != 200 {
				res.fail("BYE of %s answered %d", c.id, c.byeStatus)
			}
		case <-deadline:
			res.fail("%d of %d BYEs unanswered", len(calls)-i, len(calls))
			return nil
		}
	}
	return awaitIdle(s, res)
}

// awaitIdle waits for pbx_active_channels to reach 0.
func awaitIdle(s *sut, res *result) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		sc, err := s.scrape()
		if err != nil {
			return err
		}
		active := sc.Sum("pbx_active_channels")
		if active == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			res.fail("pbx_active_channels is %.0f after every call ended", active)
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}
