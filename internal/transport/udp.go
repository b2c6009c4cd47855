package transport

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// RealClock implements Clock over the wall clock. Durations are
// measured from the clock's creation so Now is comparable with
// simulated clocks.
type RealClock struct {
	origin time.Time
}

// NewRealClock returns a wall clock with origin now.
func NewRealClock() *RealClock { return &RealClock{origin: time.Now()} }

// Now returns time elapsed since the clock's creation.
func (c *RealClock) Now() time.Duration { return time.Since(c.origin) }

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }

// AfterFunc delegates to time.AfterFunc.
func (c *RealClock) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{t: time.AfterFunc(d, fn)}
}

// realRearm reuses one time.Timer across firings via Reset.
type realRearm struct{ t *time.Timer }

func (rt *realRearm) Schedule(d time.Duration) { rt.t.Reset(d) }
func (rt *realRearm) Stop() bool               { return rt.t.Stop() }

// NewRearmTimer implements TimerFactory.
func (c *RealClock) NewRearmTimer(fn func()) RearmTimer {
	t := time.AfterFunc(time.Hour, fn)
	t.Stop()
	return &realRearm{t: t}
}

// MaxDatagram is the receive buffer size; SIP messages and G.711 RTP
// frames are far below it.
const MaxDatagram = 8192

// DefaultBatch is the default number of datagrams moved per
// recvmmsg/sendmmsg syscall on the batched path.
const DefaultBatch = 32

// UDPConfig tunes a real-UDP transport. The zero value gives the
// production defaults: batched syscalls where the platform supports
// them (linux amd64/arm64) and the shared buffer pool of the default
// size.
type UDPConfig struct {
	// DisableBatch forces the portable single-datagram read/write
	// loop even on batch-capable platforms. The benchmarks use it to
	// measure the batching win; everything else should leave it off.
	DisableBatch bool
	// BatchSize is the number of datagrams per batched syscall
	// (default DefaultBatch). Ignored on the portable path.
	BatchSize int
	// BufferSize is the per-slot receive/queue buffer size. 0 picks
	// the platform default: MaxDatagram, or 64KB on the batched path
	// so a full GRO aggregate fits (which is what arms receive-side
	// segment coalescing). The read loop and send queue each hold
	// BatchSize such buffers, drawn from the process-wide pool for
	// this size: transports of one size recycle each other's buffers,
	// and the pool is trimmed as they close. Per-call transports (RTP
	// relay legs) still pick a small size, which keeps the live set
	// small at many concurrent calls, at the price of GRO.
	BufferSize int
}

// TransportStats counts datagrams and syscalls through a UDP
// transport. Batches count read/write syscalls that moved at least
// one datagram, so RxPackets/RxBatches is the achieved inbound batch
// width — 1.0 on the portable path, up to BatchSize under load on the
// batched path.
type TransportStats struct {
	RxPackets uint64
	RxBatches uint64
	TxPackets uint64
	TxBatches uint64
	// TxDropped counts datagrams abandoned on a send error (UDP
	// semantics: errors are not reported to the caller).
	TxDropped uint64
}

// UDPTransport implements Transport over a real UDP socket. One
// dedicated goroutine runs the read loop; on batch-capable platforms
// it drains the socket with recvmmsg into pooled buffers and the
// optional QueueSend path coalesces outbound datagrams into sendmmsg
// flushes. Inbound data handed to the Receiver follows the netsim
// ownership contract: valid only for the duration of the call.
type UDPTransport struct {
	conn  *net.UDPConn
	pool  bufLease // this socket's share of the process-wide pool
	addrs *addrCache
	batch int // datagrams per syscall; 0 = portable path
	v6    bool

	mu       sync.RWMutex
	recv     Receiver
	batchEnd func()

	done      chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once

	sq *sendQueue // nil on the portable path

	rxPackets atomic.Uint64
	rxBatches atomic.Uint64
	txPackets atomic.Uint64
	txBatches atomic.Uint64
	txDropped atomic.Uint64
}

// ListenUDP binds a UDP socket on addr (e.g. "127.0.0.1:5060";
// ":0" picks an ephemeral port) and starts the read loop, with the
// default configuration.
func ListenUDP(addr string) (*UDPTransport, error) {
	return ListenUDPConfig(addr, UDPConfig{})
}

// ListenUDPConfig is ListenUDP with explicit tuning.
func ListenUDPConfig(addr string, cfg UDPConfig) (*UDPTransport, error) {
	return listenUDP(addr, cfg, false, nil)
}

// listenUDP is the shared constructor. reuse requests SO_REUSEPORT
// (sharded listeners); addrs, when non-nil, is shared across the
// shards of one listener group.
func listenUDP(addr string, cfg UDPConfig, reuse bool, addrs *addrCache) (*UDPTransport, error) {
	conn, err := listenUDPConn(addr, reuse)
	if err != nil {
		return nil, err
	}
	if addrs == nil {
		addrs = newAddrCache()
	}
	t := &UDPTransport{
		conn:     conn,
		pool:     bufLease{pool: poolFor(cfg)},
		addrs:    addrs,
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	if la, ok := conn.LocalAddr().(*net.UDPAddr); ok {
		t.v6 = la.IP.To4() == nil
	}
	if batchCapable && !cfg.DisableBatch {
		t.batch = cfg.BatchSize
		if t.batch <= 0 {
			t.batch = DefaultBatch
		}
		if sq, err := newSendQueue(t); err == nil {
			t.sq = sq
		}
	}
	go t.run()
	return t, nil
}

// poolFor returns the shared buffer pool sized for cfg. The batched
// path defaults to buffers large enough for a full GRO aggregate (the
// kernel can hand us up to 64KB of coalesced same-flow datagrams in
// one delivery); the portable path needs only one datagram.
func poolFor(cfg UDPConfig) *BufPool {
	if cfg.BufferSize > 0 {
		return sharedPool(cfg.BufferSize)
	}
	if batchCapable && !cfg.DisableBatch {
		return sharedPool(batchBufSize)
	}
	return sharedPool(MaxDatagram)
}

// listenPlainUDP is the portable bind without socket options.
func listenPlainUDP(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.ListenUDP("udp", ua)
}

// run owns the read loop for the transport's lifetime.
func (t *UDPTransport) run() {
	defer close(t.loopDone)
	if t.batch > 0 && t.runBatch() {
		return
	}
	t.runFallback()
}

// runFallback is the portable single-datagram read loop. Unlike the
// seed implementation it neither copies the datagram (the Receiver
// contract matches netsim: data is valid only during the call) nor
// formats the source address per packet (sources are interned).
func (t *UDPTransport) runFallback() {
	buf := t.pool.get()
	defer t.pool.put(buf)
	for {
		n, src, err := t.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if t.closing() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient error on a datagram socket; keep reading.
			continue
		}
		t.rxPackets.Add(1)
		t.rxBatches.Add(1)
		recv, hook := t.handlers()
		if recv != nil {
			recv(t.addrs.intern(src), buf[:n])
		}
		if hook != nil {
			hook()
		}
	}
}

// handlers snapshots the receiver and batch-end hook.
func (t *UDPTransport) handlers() (Receiver, func()) {
	t.mu.RLock()
	r, h := t.recv, t.batchEnd
	t.mu.RUnlock()
	return r, h
}

func (t *UDPTransport) closing() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Send transmits a datagram immediately; resolution or write errors
// are dropped, matching UDP semantics. With the destination cached —
// always, after the first packet either way — the path is
// allocation-free.
func (t *UDPTransport) Send(dst string, data []byte) {
	ap, ok := t.addrs.toAddrPort(dst)
	if !ok {
		return
	}
	t.sendNow(ap, data)
}

// sendNow is the unbatched write.
func (t *UDPTransport) sendNow(ap netip.AddrPort, data []byte) {
	if _, err := t.conn.WriteToUDPAddrPort(data, ap); err != nil {
		t.txDropped.Add(1)
		return
	}
	t.txPackets.Add(1)
}

// QueueSend enqueues a datagram for the next Flush, copying data into
// a pooled buffer (the caller keeps ownership of data, mirroring
// Send). A full queue flushes inline; on platforms without sendmmsg it
// degrades to an immediate Send. Part of the BatchSender extension.
func (t *UDPTransport) QueueSend(dst string, data []byte) {
	if t.sq == nil {
		t.Send(dst, data)
		return
	}
	ap, ok := t.addrs.toAddrPort(dst)
	if !ok {
		return
	}
	t.sq.queue(ap, data)
}

// Flush transmits all queued datagrams in as few syscalls as the
// platform allows. Part of the BatchSender extension.
func (t *UDPTransport) Flush() {
	if t.sq != nil {
		t.sq.flush()
	}
}

// SetBatchEnd installs fn, invoked by the read loop after each
// delivered inbound batch (after the last Receiver call of the batch).
// The RTP relay uses it to flush the opposite leg's send queue exactly
// once per inbound burst. Part of the BatchEndNotifier extension.
func (t *UDPTransport) SetBatchEnd(fn func()) {
	t.mu.Lock()
	t.batchEnd = fn
	t.mu.Unlock()
}

// Batched reports whether the transport runs the batched-syscall path.
func (t *UDPTransport) Batched() bool { return t.batch > 0 }

// LocalAddr returns the bound socket address.
func (t *UDPTransport) LocalAddr() string { return t.conn.LocalAddr().String() }

// SetReceiver installs the inbound handler.
func (t *UDPTransport) SetReceiver(r Receiver) {
	t.mu.Lock()
	t.recv = r
	t.mu.Unlock()
}

// Stats snapshots the transport's datagram and syscall counters.
func (t *UDPTransport) Stats() TransportStats {
	return TransportStats{
		RxPackets: t.rxPackets.Load(),
		RxBatches: t.rxBatches.Load(),
		TxPackets: t.txPackets.Load(),
		TxBatches: t.txBatches.Load(),
		TxDropped: t.txDropped.Load(),
	}
}

// PoolStats returns this transport's own lifetime gets and puts on the
// shared buffer pool. After Close the two are equal; a difference is a
// leaked buffer.
func (t *UDPTransport) PoolStats() (gets, puts uint64) { return t.pool.stats() }

// Close stops the read loop, releases the socket, returns every pooled
// buffer and drops its own references to them, then trims the shared
// pool's free list to what its remaining users hold. It is idempotent
// and must not be called from the transport's own Receiver (it waits
// for the read loop to exit).
func (t *UDPTransport) Close() error {
	var err error
	t.closeOnce.Do(func() {
		close(t.done)
		err = t.conn.Close()
		<-t.loopDone
		if t.sq != nil {
			t.sq.close()
		}
		t.pool.pool.trim()
	})
	return err
}
