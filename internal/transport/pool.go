package transport

import (
	"sync"
	"sync/atomic"
)

// BufPool recycles fixed-size datagram buffers for the real-UDP data
// plane. It mirrors the netsim packet pool's ownership contract
// (netsim.Packet): a buffer handed to a Receiver is valid only for the
// duration of the call, and every Get must be matched by exactly one
// Put. The gets/puts counters make the contract checkable — with no
// user of the pool running, Stats must report gets == puts; a
// difference is a buffer leak across a read-loop or send-queue
// boundary, the same invariant the sharded sim engine pins with
// Network.PoolStats.
//
// UDP transports do not own a pool: every transport of one buffer size
// draws from the same process-wide pool (sharedPool), so per-call relay
// legs recycle each other's buffers instead of allocating fresh ones,
// and each transport keeps its own gets/puts through a bufLease. A
// closing transport trims the shared free list (trim), so the pool
// never holds more idle buffers than its live users have outstanding.
type BufPool struct {
	size int
	gets atomic.Uint64
	puts atomic.Uint64

	mu   sync.Mutex
	free [][]byte
}

// NewBufPool returns a pool of size-byte buffers.
func NewBufPool(size int) *BufPool { return &BufPool{size: size} }

// Size returns the length of every buffer the pool issues.
func (p *BufPool) Size() int { return p.size }

// Get returns a full-length buffer. The caller owns it until Put.
func (p *BufPool) Get() []byte {
	p.gets.Add(1)
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return make([]byte, p.size)
}

// Put returns a buffer obtained from Get. Foreign or resliced buffers
// are rejected (not counted) so the gets==puts invariant stays exact.
func (p *BufPool) Put(b []byte) { p.put(b) }

// put is Put, reporting whether the buffer was accepted.
func (p *BufPool) put(b []byte) bool {
	if cap(b) < p.size {
		return false
	}
	p.puts.Add(1)
	b = b[:p.size]
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
	return true
}

// Stats returns the lifetime gets and puts. They are equal exactly
// when no issued buffer is outstanding.
func (p *BufPool) Stats() (gets, puts uint64) {
	return p.gets.Load(), p.puts.Load()
}

// trim shrinks the free list to the number of buffers still
// outstanding. Transports call it on Close, never on Put: a steady
// population of live transports keeps a free list as large as what it
// holds (enough to open the next call's legs without allocating),
// while a shrinking one hands memory back — all of it once the last
// user has closed.
func (p *BufPool) trim() {
	gets, puts := p.Stats()
	keep := 0
	if gets > puts {
		keep = int(gets - puts)
	}
	p.mu.Lock()
	switch {
	case keep == 0:
		p.free = nil
	case len(p.free) > keep:
		clear(p.free[keep:])
		p.free = p.free[:keep]
	}
	p.mu.Unlock()
}

// sharedPools holds the process-wide pool for each buffer size.
var sharedPools = struct {
	mu sync.Mutex
	m  map[int]*BufPool
}{m: make(map[int]*BufPool)}

// sharedPool returns the process-wide pool of size-byte buffers.
func sharedPool(size int) *BufPool {
	sharedPools.mu.Lock()
	defer sharedPools.mu.Unlock()
	p := sharedPools.m[size]
	if p == nil {
		p = NewBufPool(size)
		sharedPools.m[size] = p
	}
	return p
}

// bufLease is one transport's handle on a shared BufPool. It counts
// that transport's own gets and puts, so the ownership contract
// (gets == puts after Close) stays checkable per socket while the
// buffers themselves circulate through the whole process.
type bufLease struct {
	pool *BufPool
	gets atomic.Uint64
	puts atomic.Uint64
}

// size returns the length of every leased buffer.
func (l *bufLease) size() int { return l.pool.size }

func (l *bufLease) get() []byte {
	l.gets.Add(1)
	return l.pool.Get()
}

func (l *bufLease) put(b []byte) {
	if l.pool.put(b) {
		l.puts.Add(1)
	}
}

func (l *bufLease) stats() (gets, puts uint64) { return l.gets.Load(), l.puts.Load() }
