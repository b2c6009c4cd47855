package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// udpVariants returns the configurations every wire-path test runs
// under: the batched syscall path (where the platform has one) and the
// portable fallback. Both must behave identically at the Transport
// interface.
func udpVariants() map[string]UDPConfig {
	v := map[string]UDPConfig{"fallback": {DisableBatch: true}}
	if batchCapable {
		v["batched"] = UDPConfig{}
	}
	return v
}

// TestUDPVariantsRoundTrip drives varied-size datagrams both ways
// through each read-loop variant and checks payload integrity and
// source-address formatting — the batched decode path (raw sockaddr →
// netip → interned string) must be indistinguishable from the
// portable one.
func TestUDPVariantsRoundTrip(t *testing.T) {
	for name, cfg := range udpVariants() {
		t.Run(name, func(t *testing.T) {
			a, err := ListenUDPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := ListenUDPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			if batchCapable && !cfg.DisableBatch && !b.Batched() {
				t.Fatal("batched transport fell back unexpectedly")
			}

			// b echoes every datagram back to its source.
			b.SetReceiver(func(src string, data []byte) {
				if src != a.LocalAddr() {
					t.Errorf("src = %q, want %q", src, a.LocalAddr())
				}
				b.Send(src, data)
			})
			echoed := make(chan string, 64)
			a.SetReceiver(func(src string, data []byte) {
				if src != b.LocalAddr() {
					t.Errorf("echo src = %q, want %q", src, b.LocalAddr())
				}
				echoed <- string(data)
			})

			const n = 50
			want := make(map[string]bool, n)
			for i := 0; i < n; i++ {
				msg := fmt.Sprintf("datagram-%03d-%s", i, string(make([]byte, i*7%512)))
				want[msg] = true
				a.Send(b.LocalAddr(), []byte(msg))
			}
			for i := 0; i < n; i++ {
				select {
				case msg := <-echoed:
					if !want[msg] {
						t.Fatalf("unexpected echo %q", msg)
					}
					delete(want, msg)
				case <-time.After(5 * time.Second):
					t.Fatalf("only %d/%d echoes arrived", i, n)
				}
			}
		})
	}
}

// TestUDPQueueSendFlush checks the BatchSender path end to end: a run
// of queued datagrams reaches the peer after Flush, and the sender's
// syscall counters show coalescing on batch-capable platforms.
func TestUDPQueueSendFlush(t *testing.T) {
	for name, cfg := range udpVariants() {
		t.Run(name, func(t *testing.T) {
			a, err := ListenUDPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := ListenUDPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			var got atomic.Uint64
			b.SetReceiver(func(string, []byte) { got.Add(1) })

			const n = 24 // below one batch, so the tail needs the Flush
			var bs BatchSender = a
			for i := 0; i < n; i++ {
				bs.QueueSend(b.LocalAddr(), []byte("queued"))
			}
			bs.Flush()
			deadline := time.Now().Add(5 * time.Second)
			for got.Load() < n && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got.Load() != n {
				t.Fatalf("received %d/%d queued datagrams", got.Load(), n)
			}
			if st := a.Stats(); st.TxPackets != n {
				t.Errorf("TxPackets = %d, want %d", st.TxPackets, n)
			}
			if a.Batched() {
				if st := a.Stats(); st.TxBatches != 1 {
					t.Errorf("TxBatches = %d, want 1 (one sendmmsg flush)", st.TxBatches)
				}
			}
		})
	}
}

// TestUDPPoolInvariantConcurrent hammers one transport pair with
// concurrent immediate and queued sends while both read loops run,
// then closes everything and checks the buffer pool's gets==puts
// invariant — the transport equivalent of the netsim PoolStats check,
// meaningful chiefly under -race.
func TestUDPPoolInvariantConcurrent(t *testing.T) {
	for name, cfg := range udpVariants() {
		t.Run(name, func(t *testing.T) {
			a, err := ListenUDPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ListenUDPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}

			var rx atomic.Uint64
			sink := func(string, []byte) { rx.Add(1) }
			a.SetReceiver(sink)
			b.SetReceiver(sink)
			a.SetBatchEnd(b.Flush) // cross-wire the flush hooks, as the relay does
			b.SetBatchEnd(a.Flush)

			const workers = 4
			const perWorker = 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					payload := []byte("pool-invariant-payload")
					for i := 0; i < perWorker; i++ {
						switch i % 3 {
						case 0:
							a.Send(b.LocalAddr(), payload)
						case 1:
							a.QueueSend(b.LocalAddr(), payload)
						default:
							b.QueueSend(a.LocalAddr(), payload)
						}
					}
					a.Flush()
					b.Flush()
				}(w)
			}
			wg.Wait()
			// Give the read loops a beat to drain what made it through.
			time.Sleep(100 * time.Millisecond)

			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			for name, tr := range map[string]*UDPTransport{"a": a, "b": b} {
				gets, puts := tr.PoolStats()
				if gets != puts {
					t.Errorf("%s pool leak: gets=%d puts=%d", name, gets, puts)
				}
			}
			if rx.Load() == 0 {
				t.Error("no datagrams delivered during the soak")
			}
		})
	}
}

// freeLen returns the number of idle buffers on p's free list.
func freeLen(p *BufPool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// TestSharedPoolPerTransport opens several transports of one buffer
// size — they share that size's process-wide pool — and closes them
// one at a time. Each closed transport must balance its own gets and
// puts while its siblings still hold buffers, the free list must never
// exceed what the open ones hold, and after the last Close the pool
// keeps no idle buffer.
func TestSharedPoolPerTransport(t *testing.T) {
	for name, cfg := range udpVariants() {
		t.Run(name, func(t *testing.T) {
			// A size no other test uses, so this pool is ours alone.
			cfg.BufferSize = 3001
			cfg.BatchSize = 4
			if cfg.DisableBatch {
				cfg.BufferSize++
			}
			pool := sharedPool(cfg.BufferSize)
			if g, p := pool.Stats(); g != p || freeLen(pool) != 0 {
				t.Fatalf("pool in use before the test: gets=%d puts=%d free=%d", g, p, freeLen(pool))
			}

			const n = 3
			trs := make([]*UDPTransport, n)
			var rx atomic.Uint64
			for i := range trs {
				tr, err := ListenUDPConfig("127.0.0.1:0", cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				tr.SetReceiver(func(string, []byte) { rx.Add(1) })
				if tr.pool.pool != pool {
					t.Fatalf("transport %d draws from a private pool", i)
				}
				trs[i] = tr
			}
			// Traffic around the ring proves every read loop is up
			// (and so holding its buffers) before the closes begin.
			for i, tr := range trs {
				tr.QueueSend(trs[(i+1)%n].LocalAddr(), []byte("ring"))
				tr.Flush()
			}
			deadline := time.Now().Add(5 * time.Second)
			for rx.Load() < n && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if rx.Load() < n {
				t.Fatalf("ring delivered %d/%d datagrams", rx.Load(), n)
			}

			returned := 0
			for i, tr := range trs {
				if err := tr.Close(); err != nil {
					t.Fatal(err)
				}
				gets, puts := tr.PoolStats()
				if gets == 0 || gets != puts {
					t.Errorf("transport %d after Close: gets=%d puts=%d", i, gets, puts)
				}
				returned += int(puts)
				held := 0
				for j, open := range trs[i+1:] {
					g, p := open.PoolStats()
					if g == p {
						t.Errorf("open sibling %d holds no buffer", i+1+j)
					}
					held += int(g - p)
				}
				if want := min(returned, held); freeLen(pool) != want {
					t.Errorf("after closing %d: free=%d, want min(returned %d, held %d)", i, freeLen(pool), returned, held)
				}
				returned = freeLen(pool)
			}
			if g, p := pool.Stats(); g != p || freeLen(pool) != 0 {
				t.Errorf("after the last Close: gets=%d puts=%d free=%d, want balanced and empty", g, p, freeLen(pool))
			}
		})
	}
}

// TestShardedUDP binds multiple SO_REUSEPORT shards on one port and
// checks that traffic from many distinct sources is delivered exactly
// once, that replies work from any shard, and that the shards' pool
// accounting balances after close.
func TestShardedUDP(t *testing.T) {
	const shards = 3
	g, err := ListenUDPSharded("127.0.0.1:0", shards, UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reusePortAvailable {
		if g.NumShards() != 1 {
			t.Fatalf("NumShards = %d, want 1 without SO_REUSEPORT", g.NumShards())
		}
	} else if g.NumShards() != shards {
		t.Fatalf("NumShards = %d, want %d", g.NumShards(), shards)
	}

	var rx atomic.Uint64
	g.SetReceiver(func(src string, data []byte) {
		rx.Add(1)
		g.Send(src, data) // echo
	})

	// Many distinct client sockets, so the kernel's 4-tuple hash has
	// flows to spread across shards.
	const clients = 8
	const perClient = 20
	var echoes atomic.Uint64
	var cls []*UDPTransport
	for c := 0; c < clients; c++ {
		cl, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.SetReceiver(func(string, []byte) { echoes.Add(1) })
		cls = append(cls, cl)
	}
	for i := 0; i < perClient; i++ {
		for _, cl := range cls {
			cl.Send(g.LocalAddr(), []byte("sharded"))
		}
	}
	want := uint64(clients * perClient)
	deadline := time.Now().Add(5 * time.Second)
	for echoes.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if echoes.Load() != want {
		t.Fatalf("echoes = %d, want %d (rx=%d)", echoes.Load(), want, rx.Load())
	}
	if st := g.Stats(); st.RxPackets != want || st.TxPackets != want {
		t.Errorf("group stats %+v, want rx=tx=%d", st, want)
	}

	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	gets, puts := g.PoolStats()
	if gets != puts {
		t.Errorf("shared pool leak: gets=%d puts=%d", gets, puts)
	}
}

// TestUDPSendSteadyStateAllocs pins the 0 allocs/op contract on the
// send hot path once the destination is cached.
func TestUDPSendSteadyStateAllocs(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	dst := b.LocalAddr()
	payload := make([]byte, 172)
	a.Send(dst, payload) // prime the addr cache
	if n := testing.AllocsPerRun(100, func() { a.Send(dst, payload) }); n > 0 {
		t.Errorf("Send allocates %.1f per op in steady state", n)
	}
	if a.Batched() {
		if n := testing.AllocsPerRun(100, func() {
			a.QueueSend(dst, payload)
			a.Flush()
		}); n > 0 {
			t.Errorf("QueueSend+Flush allocates %.1f per op in steady state", n)
		}
	}
}

// TestBufPool pins the pool's accounting: recycling, the foreign-
// buffer guard, and the gets==puts invariant.
func TestBufPool(t *testing.T) {
	p := NewBufPool(64)
	b1 := p.Get()
	if len(b1) != 64 {
		t.Fatalf("len = %d", len(b1))
	}
	p.Put(b1)
	b2 := p.Get()
	if &b1[0] != &b2[0] {
		t.Error("pool did not recycle the buffer")
	}
	p.Put(b2)
	p.Put(make([]byte, 8)) // foreign: must be rejected, not counted
	gets, puts := p.Stats()
	if gets != 2 || puts != 2 {
		t.Errorf("gets=%d puts=%d, want 2/2", gets, puts)
	}
}

// TestAddrCache pins interning: parse-once sends, source strings
// shared across packets, and 4-in-6 normalization.
func TestAddrCache(t *testing.T) {
	c := newAddrCache()
	ap, ok := c.toAddrPort("127.0.0.1:5060")
	if !ok || ap.String() != "127.0.0.1:5060" {
		t.Fatalf("toAddrPort: %v %v", ap, ok)
	}
	s1 := c.intern(ap)
	s2 := c.intern(ap)
	if s1 != "127.0.0.1:5060" {
		t.Errorf("intern = %q", s1)
	}
	// Same backing string, not merely equal.
	if &[]byte(s1)[0] == nil || s1 != s2 {
		t.Errorf("intern not stable")
	}
	// Interning primes the forward direction.
	if _, ok := c.fwd[s1]; !ok {
		t.Error("intern did not prime the send path")
	}
	if _, ok := c.toAddrPort("not an address"); ok {
		t.Error("malformed destination resolved")
	}
}
