// Package pbx implements the Asterisk stand-in: a back-to-back user
// agent (B2BUA) that terminates every SIP dialog and relays every RTP
// packet, exactly the role the paper describes — "Asterisk PBX serves
// as a gateway to all SIP messages exchanged between the endpoints as
// well as it handles all the VoIP messages" (Sec. II-B).
//
// Capacity behaviour reproduces the paper's observations:
//
//   - a finite channel pool (default 165, the measured capacity of the
//     paper's host) rejects INVITEs with 503 Service Unavailable when
//     exhausted — the blocked calls of Table I;
//   - a calibrated CPU model (internal/cpu) tracks utilization and,
//     past the overload knee, drops relayed RTP packets — the "packet
//     errors" the paper reports at A = 240;
//   - a registrar with digest authentication fronts the user
//     directory, the LDAP role of Sec. II-A;
//   - every completed call produces a CDR with both directions' RTP
//     statistics and an E-model MOS, the measurement VoIPmonitor
//     provided in the paper's testbed.
package pbx

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/mos"
	"repro/internal/sip"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TransportFactory opens an additional datagram socket on the PBX
// host, used to allocate the per-call RTP relay ports.
type TransportFactory func(port int) (transport.Transport, error)

// Config tunes the server.
type Config struct {
	// Realm names the digest authentication domain.
	Realm string
	// MaxChannels caps concurrent calls; 0 means unlimited. The
	// paper's host measured ≈165.
	MaxChannels int
	// CPUAdmission, when true, adds admission control on projected CPU
	// utilization (the ablation of DESIGN.md): an INVITE is rejected
	// when utilization would exceed CPUThreshold. With MaxChannels
	// zero it replaces the channel cap; with both set the call must
	// clear both bounds.
	CPUAdmission bool
	// CPUThreshold is the admission limit for CPUAdmission mode.
	CPUThreshold float64
	// CPU is the host load model; the zero value selects DefaultModel.
	CPU cpu.Model
	// Admission selects the overload-control policy explicitly. When
	// nil, the legacy fields above choose one: CPUAdmission maps to
	// CPUThresholdPolicy (wrapped with ChannelCapPolicy in an
	// AllOfPolicy when MaxChannels is also set), otherwise MaxChannels
	// maps to ChannelCapPolicy.
	Admission AdmissionPolicy
	// RelayRTP enables per-packet media relay through dedicated relay
	// ports (packetized mode). When false the PBX only handles
	// signalling and the flow-level media model supplies call quality.
	RelayRTP bool
	// RTPPortBase is the first relay port (two per call).
	RTPPortBase int
	// AuthInvites requires digest credentials on INVITE. Off by
	// default: the paper's SIPp scenarios do not authenticate calls,
	// and Table I's message counts contain no 401s.
	AuthInvites bool
	// StoreOfflineMessages holds MESSAGEs for unregistered users and
	// delivers them at the next REGISTER.
	StoreOfflineMessages bool
	// Voicemail makes the PBX answer calls to unreachable users and
	// store the deposit ("voice messages", Sec. I).
	Voicemail bool
	// VoicemailMaxDuration caps a deposit (default 3 minutes).
	VoicemailMaxDuration time.Duration
	// Dialplan adds pattern routing ahead of user resolution — most
	// importantly trunk rules toward the campus telephone exchange of
	// Fig. 1. Nil routes by registered user only.
	Dialplan *Dialplan
	// Codecs lists the RTP payload types the PBX supports, in its own
	// preference order. Empty selects the paper's G.711-only pair
	// {0, 8}; codec.AllPayloadTypes() makes a transcoding-capable PBX
	// that bridges any two codecs in the registry at a per-call CPU
	// surcharge.
	Codecs []int
	// QualityFloorMOS, when > 0, wraps the admission policy in a
	// QualityFloorPolicy: INVITEs whose predicted E-model MOS falls
	// below the floor are shed even when capacity remains.
	QualityFloorMOS float64
	// Degradation, when Enabled, runs the graceful-degradation ladder
	// (see degrade.go): the per-second sampler feeds a hysteresis state
	// machine whose rungs re-order new calls' codec preference, refuse
	// transcoded bridges, advertise an upstream backoff window, and
	// finally block. Disabled, the server behaves exactly as before.
	Degradation DegradationConfig
	// ScoreCodec selects the E-model codec profile for CDR MOS values.
	// Default is mos.G711PLC, matching VoIPmonitor's concealment-aware
	// G.711 scoring.
	ScoreCodec mos.Codec
	// RemoteMediaClocks declares that RTP senders stamp timestamps from
	// their own clocks (real endpoints over the wire). The relay's
	// transit-time estimates are then cross-clock offsets, not one-way
	// delays, so call scoring must ignore them and take delay from RTCP
	// round trips instead. Leave false in the simulator, where senders
	// and the PBX share one clock base and transit is a real delay.
	RemoteMediaClocks bool
	// Journal, when non-nil, write-ahead logs every call's lifecycle
	// (begin at admission, answer at ACK, end at teardown) so records
	// interrupted by a crash can be recovered. The journal models the
	// durable disk: it is owned by the caller and survives Server
	// instances across a crash/restart cycle.
	Journal *CDRJournal
	// DrainRetryAfter is the Retry-After hint (seconds) on the 503s a
	// draining server sends to new INVITEs; 0 selects 10.
	DrainRetryAfter int
	// Registrar tunes the REGISTER plane (admission lane, nonce cache,
	// event-driven binding expiry, registrar telemetry). The zero value
	// keeps the pre-registrar behavior: REGISTERs are never shed and
	// bindings expire lazily on read.
	Registrar RegistrarConfig
	// Seed drives the server's randomness (overload drops, nonces).
	Seed uint64
	// Telemetry, when non-nil, registers the PBX metric families and
	// the per-call tracer on the given registry. Nil disables
	// instrumentation entirely (record sites reduce to one nil check).
	Telemetry *telemetry.Registry
	// CallLog, when non-nil, receives one JSON line per bridged call at
	// teardown — the wide-event record (CallEvent). Independent of the
	// sink, the last events stay queryable via RecentCalls.
	CallLog io.Writer
	// Instance names this server in wide events (the backend/shard
	// field of a cluster deployment). Empty omits the field.
	Instance string
}

// DefaultCapacity is the concurrent-call capacity the paper measured
// for its Asterisk host (Sec. IV: "approximately 165 calls").
const DefaultCapacity = 165

// Counters aggregates server-side totals for one run.
type Counters struct {
	Attempts       uint64 // INVITEs received (new calls)
	Established    uint64 // calls that reached ACK
	Blocked        uint64 // rejected for capacity (503)
	Rejected       uint64 // rejected for other reasons (404, 401…)
	Completed      uint64 // ended via BYE
	Canceled       uint64 // abandoned by the caller before answer
	Failed         uint64 // ended abnormally (timeouts)
	RelayedPackets uint64 // RTP packets forwarded
	DroppedPackets uint64 // RTP packets dropped by overload
	PeakChannels   int    // high-water mark of concurrent calls

	TranscodedCalls uint64 // answered calls whose legs negotiated different codecs
	CodecRejected   uint64 // INVITEs 488'd for lacking any supported codec
	QualityRejected uint64 // INVITEs shed by the quality floor (subset of Blocked)
	TranscodedPkts  uint64 // RTP packets rewritten between codecs by relays

	MessagesRouted    uint64 // MESSAGEs forwarded to registered users
	MessagesStored    uint64 // MESSAGEs held for offline users
	VoicemailDeposits uint64 // completed voicemail recordings
	TrunkCalls        uint64 // calls routed to a trunk gateway
	DrainRejected     uint64 // INVITEs 503'd while draining (subset of Blocked)

	// Degradation-ladder totals (all zero while the ladder is off).
	DegradeBlocked   uint64 // INVITEs 503'd by the Block rung (subset of Blocked)
	TranscodeRefused uint64 // transcode-requiring answers refused at PassthroughOnly
	ThrottleSignals  uint64 // responses stamped with X-Overload-Window
	Renegotiations   uint64 // mid-call codec renegotiations (must stay 0: chaos invariant)

	// Registrar totals (REGISTER plane).
	Registers          uint64 // REGISTERs accepted (binding added, refreshed or removed)
	RegisterChallenges uint64 // 401 challenges issued with a fresh nonce
	RegisterStale      uint64 // stale=true re-challenges (nonce aged out, unknown, or lost in a restart)
	RegisterAuthFail   uint64 // REGISTERs 403'd for bad credentials
	RegisterShed       uint64 // REGISTERs 503'd by the registrar admission lane
	RegisterRemovals   uint64 // bindings removed by Expires:0 or the Contact:* wildcard
}

// Server is the PBX.
type Server struct {
	ep      *sip.Endpoint
	dir     *directory.Directory
	cfg     Config
	factory TransportFactory
	host    string

	mu            sync.Mutex
	bridges       map[string]*bridge // by either leg's Call-ID
	offline       map[string][]StoredMessage
	voicemails    map[string][]Voicemail
	vmNotified    map[string]bool
	vmSessions    map[string]*vmSession
	channels      int
	admission     AdmissionPolicy
	codecs        []int   // supported payload types (Config.Codecs or {0,8})
	transcodeLoad float64 // CPU percent charged by active transcoding bridges
	nextPort      int
	freePorts     []int
	counters      Counters
	cdrs          []CDR
	meter         *cpu.Meter
	cpuSamples    []cpuSample
	rng           *stats.RNG
	nonceSeq      uint64
	nonces        *directory.NonceCache

	// per-second rate tracking for the CPU meter
	attemptsWindow uint64
	errorsWindow   uint64
	// registersWindow meters REGISTER arrivals for the registrar's
	// per-second admission lane (reset each sampler tick).
	registersWindow uint64
	attemptsEWMA    float64
	errorsEWMA      float64
	channelsEWMA    float64 // dampened occupancy for OccupancyPolicy
	sampler         transport.Timer

	// Degradation ladder (nil while Config.Degradation is disabled)
	// plus the per-tick sensor deltas its signals are derived from.
	degrade      *DegradationController
	lastRelayed  uint64  // counters.RelayedPackets at the previous tick
	lastDropped  uint64  // counters.DroppedPackets at the previous tick
	mosTickSum   float64 // measured MOS accumulated since the last tick
	mosTickCalls int
	closed       bool
	crashed      bool
	draining     bool
	drainStart   time.Duration
	drainDone    bool

	// callEvents retains the recent wide-event call records and owns
	// the JSONL sink (its own lock; see callevent.go).
	callEvents callEventLog

	tm *pbxMetrics // nil when Config.Telemetry is nil
}

// New creates a PBX on ep, serving users from dir, opening RTP relay
// ports through factory (may be nil when RelayRTP is false).
func New(ep *sip.Endpoint, dir *directory.Directory, factory TransportFactory, cfg Config) *Server {
	if cfg.Realm == "" {
		cfg.Realm = "unb.br"
	}
	if cfg.RTPPortBase == 0 {
		cfg.RTPPortBase = 10000
	}
	if cfg.CPU == (cpu.Model{}) {
		cfg.CPU = cpu.DefaultModel()
	}
	if cfg.CPUThreshold == 0 {
		cfg.CPUThreshold = 50
	}
	if cfg.ScoreCodec.Name == "" {
		cfg.ScoreCodec = mos.G711PLC
	}
	host, _, _ := strings.Cut(ep.Addr(), ":")
	s := &Server{
		ep:         ep,
		dir:        dir,
		cfg:        cfg,
		factory:    factory,
		host:       host,
		bridges:    make(map[string]*bridge),
		offline:    make(map[string][]StoredMessage),
		voicemails: make(map[string][]Voicemail),
		vmNotified: make(map[string]bool),
		vmSessions: make(map[string]*vmSession),
		nextPort:   cfg.RTPPortBase,
		meter:      cpu.NewMeter(cfg.CPU),
		rng:        stats.NewRNG(cfg.Seed ^ 0xa57e7a57),
	}
	s.codecs = cfg.Codecs
	if len(s.codecs) == 0 {
		s.codecs = codec.DefaultPreference()
	}
	s.admission = cfg.Admission
	if s.admission == nil {
		if cfg.CPUAdmission {
			s.admission = CPUThresholdPolicy{Threshold: cfg.CPUThreshold}
			if cfg.MaxChannels > 0 {
				// Both bounds configured: the call must clear the hard
				// channel plateau and the CPU budget.
				s.admission = AllOfPolicy{Policies: []AdmissionPolicy{
					ChannelCapPolicy{Max: cfg.MaxChannels},
					s.admission,
				}}
			}
		} else {
			s.admission = ChannelCapPolicy{Max: cfg.MaxChannels}
		}
	}
	if cfg.QualityFloorMOS > 0 {
		s.admission = QualityFloorPolicy{Floor: cfg.QualityFloorMOS, Base: s.admission, RetryAfter: 4}
	}
	if cfg.Degradation.Enabled {
		s.degrade = NewDegradationController(cfg.Degradation)
	}
	// The nonce cache backs the strict registrar auth flow whether or
	// not the registrar plane is tuned: a REGISTER must answer a nonce
	// this server actually issued.
	s.nonces = directory.NewNonceCache(nonceShards(cfg.Registrar),
		cfg.Registrar.NonceWindow, cfg.Registrar.NonceCap)
	if cfg.Registrar.Enabled {
		// Event-driven binding expiry on the server's clock: the sim
		// timing wheel in scenarios, the wall clock in pbxd.
		dir.StartExpiry(ep.Clock())
	}
	if cfg.Telemetry != nil {
		s.tm = newPBXMetrics(cfg.Telemetry, s.admission.Name())
		if s.degrade != nil {
			s.tm.registerDegradation(cfg.Telemetry)
		}
		if cfg.Registrar.Enabled {
			s.tm.registerRegistrar(cfg.Telemetry)
		}
	}
	s.callEvents.sink = cfg.CallLog
	s.callEvents.sinkOK = true
	ep.Handle(s.handleRequest)
	s.scheduleSample()
	return s
}

// Directory returns the server's user store.
func (s *Server) Directory() *directory.Directory { return s.dir }

// Addr returns the PBX signalling address.
func (s *Server) Addr() string { return s.ep.Addr() }

// Close stops background sampling.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.sampler != nil {
		s.sampler.Stop()
	}
	s.mu.Unlock()
}

// Drain puts the server in administrative drain: new INVITEs are
// rejected with 503 + Retry-After while established calls (and their
// RTP) run to completion — the zero-downtime half of a rolling
// restart. When the last channel releases (or immediately, if idle)
// the drain-duration histogram records how long the drain took.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.drainStart = s.ep.Clock().Now()
	if s.tm != nil {
		s.tm.draining.Set(1)
	}
	s.mu.Unlock()
	s.maybeFinishDrain()
}

// Draining reports whether the server is in administrative drain.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drained reports whether a drain has started AND every channel has
// released.
func (s *Server) Drained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainDone
}

// maybeFinishDrain records the drain-duration sample once the last
// channel releases. Called (unlocked) from every channel-release path.
func (s *Server) maybeFinishDrain() {
	s.mu.Lock()
	if !s.draining || s.drainDone || s.channels > 0 {
		s.mu.Unlock()
		return
	}
	s.drainDone = true
	d := s.ep.Clock().Now() - s.drainStart
	s.mu.Unlock()
	if s.tm != nil {
		s.tm.drainDur.Observe(d.Seconds())
	}
}

// drainRetryAfterLocked is the Retry-After hint for drain 503s.
func (s *Server) drainRetryAfterLocked() int {
	if s.cfg.DrainRetryAfter > 0 {
		return s.cfg.DrainRetryAfter
	}
	return 10
}

// Crash simulates the process dying mid-flight: in-flight bridges and
// voicemail deposits are dropped without CDRs or farewell signalling,
// relay ports go dark, every trace span ends as "lost", and the SIP
// endpoint's transactions and socket are torn down. Counters and the
// journal survive — they model what an external observer (and the
// durable disk) keeps; recovery of the journal's open entries happens
// when a replacement server calls Journal.Recover.
func (s *Server) Crash() {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return
	}
	s.crashed = true
	s.closed = true
	if s.sampler != nil {
		s.sampler.Stop()
	}
	seen := make(map[*bridge]bool, len(s.bridges))
	var bridges []*bridge
	for _, br := range s.bridges {
		if !seen[br] {
			seen[br] = true
			bridges = append(bridges, br)
		}
	}
	s.bridges = make(map[string]*bridge)
	vms := s.vmSessions
	s.vmSessions = make(map[string]*vmSession)
	s.channels = 0
	s.transcodeLoad = 0
	s.updateChannelGaugesLocked()
	s.mu.Unlock()

	for _, br := range bridges {
		br.state = bridgeTerminated
		if br.relay != nil {
			br.relay.close()
		}
		s.traceEnd(br.aCallID, telemetry.OutcomeLost)
	}
	for callID, vm := range vms {
		vm.close()
		s.traceEnd(callID, telemetry.OutcomeLost)
	}
	s.ep.Crash()
}

// cpuSample is one meter reading with the load context needed to
// isolate the busy plateau afterwards.
type cpuSample struct {
	util     float64
	channels int
}

// scheduleSample drives the once-per-second CPU meter.
func (s *Server) scheduleSample() {
	timer := s.ep.Clock().AfterFunc(time.Second, func() {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		// Smooth the per-second rates: a real host's utilization
		// meter integrates over the sampling interval rather than
		// swinging with each Poisson arrival.
		const alpha = 0.3
		s.attemptsEWMA = (1-alpha)*s.attemptsEWMA + alpha*float64(s.attemptsWindow)
		s.errorsEWMA = (1-alpha)*s.errorsEWMA + alpha*float64(s.errorsWindow)
		s.channelsEWMA = (1-alpha)*s.channelsEWMA + alpha*float64(s.channels)
		u := s.meter.SampleWith(s.channels, s.attemptsEWMA, s.errorsEWMA, s.transcodeLoad)
		s.cpuSamples = append(s.cpuSamples, cpuSample{util: u, channels: s.channels})
		s.attemptsWindow = 0
		s.errorsWindow = 0
		s.registersWindow = 0
		s.evaluateDegradationLocked(u)
		s.mu.Unlock()
		s.scheduleSample()
	})
	s.mu.Lock()
	if s.closed {
		timer.Stop()
	} else {
		s.sampler = timer
	}
	s.mu.Unlock()
}

// evaluateDegradationLocked feeds one sampler tick into the ladder:
// the fresh CPU reading, the relay drop rate since the previous tick,
// and the mean measured MOS of the calls that tore down since then.
// Transitions land in the controller's timeline and the stage gauge.
// Callers hold s.mu. A no-op while the ladder is disabled.
func (s *Server) evaluateDegradationLocked(util float64) {
	if s.degrade == nil {
		return
	}
	sig := DegradationSignals{CPU: util}
	rel := s.counters.RelayedPackets - s.lastRelayed
	drp := s.counters.DroppedPackets - s.lastDropped
	s.lastRelayed, s.lastDropped = s.counters.RelayedPackets, s.counters.DroppedPackets
	if tot := rel + drp; tot > 0 {
		sig.DropRate = float64(drp) / float64(tot)
	}
	if s.mosTickCalls > 0 {
		sig.MOS = s.mosTickSum / float64(s.mosTickCalls)
		s.mosTickSum, s.mosTickCalls = 0, 0
	}
	prev := s.degrade.Stage()
	stage := s.degrade.Evaluate(s.ep.Clock().Now(), sig)
	if s.tm != nil && s.tm.degradeStage != nil {
		s.tm.degradeStage.SetInt(int(stage))
		if stage != prev {
			s.tm.degradeTransitions.Inc()
		}
	}
}

// degradeStageLocked is the current rung (StageNormal when the ladder
// is disabled). Callers hold s.mu.
func (s *Server) degradeStageLocked() DegradationStage {
	if s.degrade == nil {
		return StageNormal
	}
	return s.degrade.Stage()
}

// overloadWindowLocked returns the advertised backoff window in
// seconds while the ladder is at UpstreamThrottle or above, else 0.
// Callers hold s.mu.
func (s *Server) overloadWindowLocked() int {
	if s.degrade == nil || s.degrade.Stage() < StageUpstreamThrottle {
		return 0
	}
	return s.degrade.Config().ThrottleWindow
}

// DegradationStage returns the ladder's current rung (StageNormal when
// the ladder is disabled).
func (s *Server) DegradationStage() DegradationStage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degradeStageLocked()
}

// DegradationTimeline returns every ladder transition taken so far
// (nil when the ladder is disabled) — the golden-timeline surface.
func (s *Server) DegradationTimeline() []DegradationTransition {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degrade == nil {
		return nil
	}
	return s.degrade.Timeline()
}

// CPUBand returns the utilization band (lo, mean, hi) over the busy
// plateau: samples taken while the server carried at least 90% of its
// peak concurrent load. This matches how the paper reports CPU as an
// "X% to Y%" range at each workload; ramp-up and drain samples would
// otherwise dilute the band. With no loaded samples it falls back to
// the whole run.
func (s *Server) CPUBand() (float64, float64, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	threshold := (s.counters.PeakChannels*9 + 9) / 10 // ceil(0.9·peak)
	var sum stats.Summary
	for _, smp := range s.cpuSamples {
		if smp.channels >= threshold {
			sum.Add(smp.util)
		}
	}
	if sum.N() == 0 {
		return s.meter.Band()
	}
	mean := sum.Mean()
	dev := sum.Stddev()
	lo, hi := mean-dev, mean+dev
	if lo < 0 {
		lo = 0
	}
	if hi > 100 {
		hi = 100
	}
	return lo, mean, hi
}

// CountersSnapshot returns a copy of the run totals.
func (s *Server) CountersSnapshot() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// ActiveChannels returns the number of calls currently holding a
// channel.
func (s *Server) ActiveChannels() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.channels
}

// TranscodeLoad returns the CPU percentage currently charged by active
// transcoding bridges.
func (s *Server) TranscodeLoad() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.transcodeLoad
}

// SupportedCodecs returns the PBX's payload-type preference list.
func (s *Server) SupportedCodecs() []int { return append([]int(nil), s.codecs...) }

// AdmissionPolicyName names the active overload-control policy.
func (s *Server) AdmissionPolicyName() string { return s.admission.Name() }

// SignalingStats returns the SIP endpoint's wire counters, including
// the transaction layer's retransmission and timeout totals.
func (s *Server) SignalingStats() sip.Stats { return s.ep.StatsSnapshot() }

// ActiveTransactions returns the number of live SIP transactions —
// a leak detector for chaos-test invariants.
func (s *Server) ActiveTransactions() int { return s.ep.ActiveTransactions() }

// allocRelayPortLocked reserves one relay port number.
func (s *Server) allocRelayPortLocked() int {
	if n := len(s.freePorts); n > 0 {
		p := s.freePorts[n-1]
		s.freePorts = s.freePorts[:n-1]
		return p
	}
	p := s.nextPort
	s.nextPort++
	return p
}

func (s *Server) freeRelayPortLocked(p int) { s.freePorts = append(s.freePorts, p) }

// newNonce issues a digest nonce.
func (s *Server) newNonce() string {
	s.mu.Lock()
	s.nonceSeq++
	n := s.nonceSeq
	salt := s.rng.Uint64() & 0xffffff
	s.mu.Unlock()
	return fmt.Sprintf("n%d-%d", n, salt)
}

// handleRequest is the endpoint TU.
func (s *Server) handleRequest(tx *sip.ServerTx, req *sip.Message, src string) {
	switch req.Method {
	case sip.REGISTER:
		s.handleRegister(tx, req, src)
	case sip.INVITE:
		s.handleInvite(tx, req, src)
	case sip.ACK:
		s.handleAck(req)
	case sip.BYE:
		s.handleBye(tx, req)
	case sip.MESSAGE:
		s.handleMessage(tx, req)
	case sip.OPTIONS:
		// OPTIONS doubles as the liveness probe: a draining server
		// answers 503 so balancers take it out of rotation while its
		// established calls finish.
		s.mu.Lock()
		draining := s.draining
		ra := s.drainRetryAfterLocked()
		window := s.overloadWindowLocked()
		if window > 0 {
			s.counters.ThrottleSignals++
		}
		s.mu.Unlock()
		if draining {
			resp := req.Response(sip.StatusServiceUnavailable)
			resp.RetryAfter = ra
			tx.Respond(resp)
			return
		}
		// While the ladder throttles, the probe answer carries the
		// backoff window so balancers de-weight this backend — the
		// closed-loop feedback path toward the cluster plane.
		resp := req.Response(sip.StatusOK)
		if window > 0 {
			resp.SetOverloadWindow(window)
			if s.tm != nil && s.tm.throttleSignals != nil {
				s.tm.throttleSignals.Inc()
			}
		}
		tx.Respond(resp)
	default:
		s.countError()
		tx.Respond(req.Response(sip.StatusInternalError))
	}
}

func (s *Server) countError() {
	s.mu.Lock()
	s.errorsWindow++
	s.mu.Unlock()
}
