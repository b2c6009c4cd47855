package sip

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

// sinkTransport discards outbound datagrams; tests drive the endpoint
// by calling handleData directly.
type sinkTransport struct{ sent int }

func (s *sinkTransport) Send(string, []byte)            { s.sent++ }
func (s *sinkTransport) LocalAddr() string              { return "pbx:5060" }
func (s *sinkTransport) SetReceiver(transport.Receiver) {}
func (s *sinkTransport) Close() error                   { return nil }

// nopClock never fires: benchmarks use it so armed timers retain
// nothing across iterations.
type nopClock struct{}

type nopTimer struct{}

func (nopTimer) Stop() bool                                      { return false }
func (nopClock) Now() time.Duration                              { return 0 }
func (nopClock) AfterFunc(time.Duration, func()) transport.Timer { return nopTimer{} }

const uacAddr = "uac:5060"

// ackRig is one endpoint receiving INVITEs from a single UAC, with
// every request the TU sees recorded.
type ackRig struct {
	ep    *Endpoint
	txs   map[string]*ServerTx // by Call-ID
	acks  []*Message           // ACKs handed to the TU (tx == nil)
	nextB int
}

func newAckRig(clock transport.Clock) *ackRig {
	r := &ackRig{txs: make(map[string]*ServerTx)}
	r.ep = NewEndpoint(&sinkTransport{}, clock)
	r.ep.Handle(func(tx *ServerTx, req *Message, _ string) {
		if tx == nil {
			r.acks = append(r.acks, req)
			return
		}
		r.txs[req.CallID] = tx
	})
	return r
}

// request builds a request from the UAC with a fresh branch.
func (r *ackRig) request(m Method, callID string, seq uint32) *Message {
	r.nextB++
	req := NewRequest(m, NewURI("uas", "pbx", 5060),
		NameAddr{URI: NewURI("uac", "uac", 5060), Tag: "ft"},
		NameAddr{URI: NewURI("uas", "pbx", 5060), Tag: "tt"},
		callID, seq)
	req.Via = []Via{{Transport: "UDP", SentBy: uacAddr, Branch: fmt.Sprintf("%s-uac-%d", BranchPrefix, r.nextB)}}
	return req
}

func (r *ackRig) deliver(m *Message) { r.ep.handleData(uacAddr, m.Marshal()) }

// invite opens an INVITE server transaction and answers it with code.
func (r *ackRig) invite(callID string, seq uint32, code int) *ServerTx {
	req := r.request(INVITE, callID, seq)
	r.deliver(req)
	tx := r.txs[callID]
	tx.Respond(req.Response(code))
	return tx
}

// checkIndex asserts the 2xx-ACK index holds exactly the unacked INVITE
// server transactions, and returns their number.
func checkIndex(t *testing.T, ep *Endpoint) int {
	t.Helper()
	ep.mu.Lock()
	defer ep.mu.Unlock()
	indexed := 0
	for k, head := range ep.unacked {
		for tx := head; tx != nil; tx = tx.ackNext {
			indexed++
			if ackKeyOf(tx) != k || tx.acked || ep.serverTxs[tx.key] != tx {
				t.Errorf("stale index entry %+v for tx %s (acked=%v)", k, tx.key, tx.acked)
			}
		}
	}
	unacked := 0
	for _, tx := range ep.serverTxs {
		if tx.isInvite && !tx.acked {
			unacked++
		}
	}
	if indexed != unacked {
		t.Errorf("index holds %d transactions, %d unacked INVITEs live", indexed, unacked)
	}
	return indexed
}

// TestAck2xxIndex: a 2xx ACK quiets its own INVITE transaction among
// many, every ACK — matched, duplicate or for an unknown dialog —
// still reaches the TU, and the index tracks the unacked set exactly.
func TestAck2xxIndex(t *testing.T) {
	r := newAckRig(transport.SimClock{Sched: netsim.NewScheduler()})
	const n = 50
	for i := 0; i < n; i++ {
		r.invite(fmt.Sprintf("call-%d", i), 1, StatusOK)
	}
	if got := checkIndex(t, r.ep); got != n {
		t.Fatalf("indexed %d, want %d", got, n)
	}

	r.deliver(r.request(ACK, "call-17", 1))
	for id, tx := range r.txs {
		if tx.acked != (id == "call-17") {
			t.Errorf("%s acked=%v after the ACK for call-17", id, tx.acked)
		}
	}
	if got := checkIndex(t, r.ep); got != n-1 {
		t.Errorf("indexed %d after one ACK, want %d", got, n-1)
	}

	r.deliver(r.request(ACK, "call-17", 1)) // duplicate
	r.deliver(r.request(ACK, "no-such", 1)) // unknown dialog
	r.deliver(r.request(ACK, "call-3", 2))  // known Call-ID, other CSeq
	if len(r.acks) != 4 {
		t.Errorf("TU saw %d ACKs, want 4", len(r.acks))
	}
	if got := checkIndex(t, r.ep); got != n-1 {
		t.Errorf("indexed %d after unmatched ACKs, want %d", got, n-1)
	}

	// A non-2xx final is ACKed on the INVITE's own branch: that path
	// must leave the index too.
	inv := r.request(INVITE, "busy", 1)
	r.deliver(inv)
	r.txs["busy"].Respond(inv.Response(486))
	ack := r.request(ACK, "busy", 1)
	ack.Via = inv.Via
	r.deliver(ack)
	if !r.txs["busy"].acked {
		t.Error("non-2xx ACK did not reach its transaction")
	}
	if got := checkIndex(t, r.ep); got != n-1 {
		t.Errorf("indexed %d after the non-2xx ACK, want %d", got, n-1)
	}
}

// TestAck2xxIndexSharedKey: two unacked INVITEs with one Call-ID and
// CSeq (different branches) are ACKed oldest first, one per ACK.
func TestAck2xxIndexSharedKey(t *testing.T) {
	r := newAckRig(transport.SimClock{Sched: netsim.NewScheduler()})
	first := r.invite("dup", 1, StatusOK)
	second := r.request(INVITE, "dup", 1)
	r.deliver(second)
	secondTx := r.txs["dup"]
	secondTx.Respond(second.Response(StatusOK))
	if first == secondTx {
		t.Fatal("second INVITE did not open its own transaction")
	}
	if got := checkIndex(t, r.ep); got != 2 {
		t.Fatalf("indexed %d, want 2", got)
	}
	r.deliver(r.request(ACK, "dup", 1))
	if !first.acked || secondTx.acked {
		t.Errorf("first ACK: acked %v/%v, want true/false", first.acked, secondTx.acked)
	}
	r.deliver(r.request(ACK, "dup", 1))
	if !secondTx.acked {
		t.Error("second ACK did not reach the second transaction")
	}
	if got := checkIndex(t, r.ep); got != 0 {
		t.Errorf("indexed %d, want 0", got)
	}
}

// TestAck2xxIndexReaped: Timer H and Crash leave no index entry behind.
func TestAck2xxIndexReaped(t *testing.T) {
	sched := netsim.NewScheduler()
	r := newAckRig(transport.SimClock{Sched: sched})
	for i := 0; i < 5; i++ {
		r.invite(fmt.Sprintf("never-acked-%d", i), 1, StatusOK)
	}
	r.invite("acked", 1, StatusOK)
	r.deliver(r.request(ACK, "acked", 1))
	checkIndex(t, r.ep)
	sched.Run(TransactionTimeout + time.Second)
	if n := r.ep.ActiveTransactions(); n != 0 {
		t.Errorf("%d transactions survive Timer H", n)
	}
	if got := checkIndex(t, r.ep); got != 0 {
		t.Errorf("indexed %d after Timer H, want 0", got)
	}

	r.invite("pre-crash", 1, StatusOK)
	r.ep.Crash()
	if got := checkIndex(t, r.ep); got != 0 {
		t.Errorf("indexed %d after Crash, want 0", got)
	}
}

// TestFinalResponseDropsOnCancel: once a final response is out the
// CANCEL callback is gone, so a transaction lingering for its ACK
// keeps nothing of the TU reachable; before it, the callback stays.
func TestFinalResponseDropsOnCancel(t *testing.T) {
	r := newAckRig(transport.SimClock{Sched: netsim.NewScheduler()})
	inv := r.request(INVITE, "c", 1)
	r.deliver(inv)
	tx := r.txs["c"]
	tx.OnCancel(func(*Message) {})
	tx.Respond(inv.Response(StatusRinging))
	if tx.onCancel == nil {
		t.Fatal("provisional response dropped the CANCEL callback")
	}
	tx.Respond(inv.Response(StatusOK))
	if tx.onCancel != nil {
		t.Error("CANCEL callback still set after the final response")
	}
	tx.OnCancel(func(*Message) {})
	if tx.onCancel != nil {
		t.Error("OnCancel installed a callback after the final response")
	}
}

// BenchmarkEndpointAck2xx is the 2xx-ACK path with live INVITE server
// transactions: ns/op must not grow with their number.
func BenchmarkEndpointAck2xx(b *testing.B) {
	for _, live := range []int{10, 2000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			r := newAckRig(nopClock{})
			txs := make([]*ServerTx, live)
			acks := make([][]byte, live)
			for i := range txs {
				id := fmt.Sprintf("call-%d", i)
				txs[i] = r.invite(id, 1, StatusOK)
				acks[i] = r.request(ACK, id, 1).Marshal()
			}
			r.ep.Handle(func(*ServerTx, *Message, string) {})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % live
				r.ep.handleData(uacAddr, acks[j])
				// Re-open the transaction for the next round.
				r.ep.mu.Lock()
				txs[j].acked = false
				r.ep.indexLocked(txs[j])
				r.ep.mu.Unlock()
			}
		})
	}
}
