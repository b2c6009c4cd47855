package main

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/sdp"
	"repro/internal/sip"
	"repro/internal/transport"
)

// The generator's SIP side: a handful of fixed sockets, each a
// sip.Endpoint, carrying every call and REGISTER of a run. Calls are
// driven request by request here rather than through sip.Phone so the
// SDP can point every call at the same two media sockets, and so each
// transaction boundary can be timed.

// agent is one generator SIP socket.
type agent struct {
	ep    *sip.Endpoint
	host  string
	port  int
	proxy string
	pHost string
	pPort int
}

// newAgent binds a loopback SIP socket aimed at proxy.
func newAgent(proxy string) (*agent, error) {
	tr, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ph, pp, err := splitHostPort(proxy)
	if err != nil {
		tr.Close()
		return nil, err
	}
	h, p, _ := splitHostPort(tr.LocalAddr())
	return &agent{ep: sip.NewEndpoint(tr, transport.NewRealClock()), host: h, port: p, proxy: proxy, pHost: ph, pPort: pp}, nil
}

func (a *agent) close() { a.ep.Close() }

func (a *agent) uri(user string) sip.URI { return sip.NewURI(user, a.host, a.port) }

func splitHostPort(addr string) (string, int, error) {
	h, p, err := net.SplitHostPort(addr)
	if err != nil {
		return "", 0, err
	}
	n, err := strconv.Atoi(p)
	return h, n, err
}

// regEndpoint is one registering address-of-record and its dialog
// state across an initial REGISTER and its refreshes.
type regEndpoint struct {
	user    string
	agent   *agent
	callID  string
	fromTag string
	seq     uint32
	ch      sip.DigestChallenge
	haveCh  bool
}

// regResult is the outcome of one REGISTER operation.
type regResult struct {
	ok         bool
	challenged bool
	// sent, challenge and authSent are offsets from the run's base
	// clock; done is when the final response arrived.
	sent, challenge, authSent, done time.Duration
}

// regExpires is the binding lifetime requested: longer than any run,
// so bindings never lapse mid-measurement.
const regExpires = 3600

// register runs one REGISTER operation for e: preemptively authorised
// when a challenge is cached, answering up to two 401s (the first
// contact, then a stale nonce). done runs on the agent's receive
// goroutine.
func (e *regEndpoint) register(clk *runClock, done func(regResult)) {
	a := e.agent
	if e.callID == "" {
		e.callID = a.ep.NewCallID()
		e.fromTag = a.ep.NewTag()
	}
	var res regResult
	var send func(round int)
	send = func(round int) {
		e.seq++
		req := sip.NewRequest(sip.REGISTER, sip.NewURI("", a.pHost, a.pPort),
			sip.NameAddr{URI: a.uri(e.user), Tag: e.fromTag}, sip.NameAddr{URI: a.uri(e.user)},
			e.callID, e.seq)
		contact := sip.NameAddr{URI: a.uri(e.user)}
		req.Contact = &contact
		req.Expires = regExpires
		if e.haveCh {
			req.Authorization = e.ch.Answer(e.user, "pw-"+e.user, sip.REGISTER, req.RequestURI.String()).Header()
		}
		if round == 0 {
			res.sent = clk.now()
		} else {
			res.authSent = clk.now()
		}
		a.ep.SendRequest(a.proxy, req, func(resp *sip.Message) {
			switch {
			case resp.StatusCode < 200:
				return
			case resp.StatusCode == sip.StatusUnauthorized && round < 2:
				ch, ok := sip.ParseDigestChallenge(resp.WWWAuthenticate)
				if ok {
					if !res.challenged {
						res.challenged, res.challenge = true, clk.now()
					}
					e.ch, e.haveCh = ch, true
					send(round + 1)
					return
				}
			}
			res.ok = resp.StatusCode == sip.StatusOK
			res.done = clk.now()
			done(res)
		})
	}
	send(0)
}

// call is one generated call, seen from the calling side.
type call struct {
	id  string
	due time.Duration
	// Offsets from the run's base clock; zero until reached.
	sent, ringing, answered, byeSent, byeDone time.Duration
	status, byeStatus                         int
	// relay is the PBX relay port facing the caller, from the 200 OK.
	relay string

	localTag, remoteTag string
	remote              string
	invite              *sip.Message
}

// inboundLeg is a call leg the PBX placed to the callee: its Call-ID
// and the PBX's callee-facing relay port, where its media goes.
type inboundLeg struct{ callID, relay string }

// callAgents are the two signalling sockets of call traffic: the
// caller "uac" places INVITEs and BYEs, the callee "uas" answers.
// Every call offers and answers the same two media addresses.
type callAgents struct {
	uac, uas   *agent
	offer      []byte // SDP offer naming callerMedia
	answerHost string
	answerPort int
	clk        *runClock

	mu sync.Mutex
	// onInbound, when set, receives each answered inbound leg.
	onInbound func(inboundLeg)
}

// newCallAgents binds uac and uas and registers both with pbxd.
func newCallAgents(proxy string, clk *runClock, callerMedia, calleeMedia string) (*callAgents, error) {
	uac, err := newAgent(proxy)
	if err != nil {
		return nil, err
	}
	uas, err := newAgent(proxy)
	if err != nil {
		uac.close()
		return nil, err
	}
	ca := &callAgents{uac: uac, uas: uas, clk: clk}
	oh, op, err := splitHostPort(callerMedia)
	if err == nil {
		ca.answerHost, ca.answerPort, err = splitHostPort(calleeMedia)
	}
	if err != nil {
		ca.close()
		return nil, err
	}
	ca.offer = sdp.NewSessionWith("uac", oh, op, []int{0, 8}).Marshal()
	uas.ep.Handle(ca.handleUAS)
	okc := make(chan bool, 2)
	for _, r := range []*regEndpoint{{user: "uac", agent: uac}, {user: "uas", agent: uas}} {
		r.register(clk, func(res regResult) { okc <- res.ok })
	}
	for i := 0; i < 2; i++ {
		select {
		case ok := <-okc:
			if !ok {
				ca.close()
				return nil, fmt.Errorf("uac/uas registration refused")
			}
		case <-time.After(10 * time.Second):
			ca.close()
			return nil, fmt.Errorf("uac/uas registration timed out")
		}
	}
	return ca, nil
}

func (ca *callAgents) close() {
	ca.uac.close()
	ca.uas.close()
}

// handleUAS is the callee: 180 then 200 with an SDP answer for every
// INVITE, 200 for BYE. The 2xx ACK needs no action here; the
// transaction layer stops retransmitting the 200 when it arrives.
func (ca *callAgents) handleUAS(tx *sip.ServerTx, req *sip.Message, src string) {
	if tx == nil {
		return
	}
	switch req.Method {
	case sip.INVITE:
		offer, err := sdp.Parse(req.Body)
		if err != nil {
			tx.Respond(req.Response(sip.StatusInternalError))
			return
		}
		answer, err := offer.Answer("uas", ca.answerHost, ca.answerPort, []int{0, 8})
		if err != nil {
			tx.Respond(req.Response(sip.StatusNotAcceptableHere))
			return
		}
		tag := ca.uas.ep.NewTag()
		ringing := req.Response(sip.StatusRinging)
		ringing.To.Tag = tag
		tx.Respond(ringing)
		ok := req.Response(sip.StatusOK)
		ok.To.Tag = tag
		contact := sip.NameAddr{URI: ca.uas.uri("uas")}
		ok.Contact = &contact
		ok.ContentType = sdp.ContentType
		ok.Body = answer.Marshal()
		ca.mu.Lock()
		fn := ca.onInbound
		ca.mu.Unlock()
		if fn != nil {
			fn(inboundLeg{req.CallID, fmt.Sprintf("%s:%d", offer.Host, offer.Port)})
		}
		tx.Respond(ok)
	default:
		tx.Respond(req.Response(sip.StatusOK))
	}
}

// invite places c and calls answered once a final response (or the
// transaction timeout, as a 408) arrives; c.status tells which. It
// runs on the uac's receive goroutine.
func (ca *callAgents) invite(c *call, answered func(*call)) {
	a := ca.uac
	c.id = a.ep.NewCallID()
	c.localTag = a.ep.NewTag()
	to := sip.NewURI("uas", a.pHost, a.pPort)
	req := sip.NewRequest(sip.INVITE, to, sip.NameAddr{URI: a.uri("uac"), Tag: c.localTag},
		sip.NameAddr{URI: to}, c.id, 1)
	contact := sip.NameAddr{URI: a.uri("uac")}
	req.Contact = &contact
	req.ContentType = sdp.ContentType
	req.Body = ca.offer
	c.invite = req
	c.sent = ca.clk.now()
	a.ep.SendRequest(a.proxy, req, func(resp *sip.Message) {
		switch {
		case resp.StatusCode == sip.StatusRinging:
			if c.ringing == 0 {
				c.ringing = ca.clk.now()
			}
			return
		case resp.StatusCode < 200:
			return
		}
		c.status = resp.StatusCode
		if resp.StatusCode == sip.StatusOK {
			c.answered = ca.clk.now()
			c.remoteTag = resp.To.Tag
			c.remote = a.proxy
			if resp.Contact != nil {
				c.remote = resp.Contact.URI.HostPort()
			}
			if s, err := sdp.Parse(resp.Body); err == nil {
				c.relay = fmt.Sprintf("%s:%d", s.Host, s.Port)
			}
			ack := sip.NewRequest(sip.ACK, req.RequestURI, req.From,
				sip.NameAddr{URI: req.To.URI, Tag: c.remoteTag}, c.id, 1)
			a.ep.SendACK(c.remote, ack)
		}
		answered(c)
	})
}

// hangup sends BYE on an answered call; ended runs when its final
// response (or a timeout 408) arrives.
func (ca *callAgents) hangup(c *call, ended func(*call)) {
	a := ca.uac
	host, port, _ := splitHostPort(c.remote)
	bye := sip.NewRequest(sip.BYE, sip.URI{Host: host, Port: port},
		sip.NameAddr{URI: a.uri("uac"), Tag: c.localTag},
		sip.NameAddr{URI: c.invite.To.URI, Tag: c.remoteTag}, c.id, 2)
	c.byeSent = ca.clk.now()
	a.ep.SendRequest(c.remote, bye, func(resp *sip.Message) {
		if resp.StatusCode < 200 {
			return
		}
		c.byeStatus = resp.StatusCode
		c.byeDone = ca.clk.now()
		ended(c)
	})
}
