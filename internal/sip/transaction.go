package sip

import (
	"time"

	"repro/internal/transport"
)

// RFC 3261 timer values. T1 is the RTT estimate; the retransmission
// machinery derives everything else from it.
const (
	T1 = 500 * time.Millisecond
	T2 = 4 * time.Second
	// TimerB/F: transaction timeout, 64·T1.
	TransactionTimeout = 64 * T1
	// TimerD: wait for response retransmissions after a non-2xx final.
	CompletedLinger = 5 * time.Second
)

// ClientTx is a client transaction: one request, its retransmissions,
// and the responses that match its branch.
type ClientTx struct {
	ep         *Endpoint
	key        string
	req        *Message
	wire       []byte
	dst        string
	isInvite   bool
	onResponse func(*Message)

	interval   time.Duration
	retransmit transport.Timer
	timeout    transport.Timer
	linger     transport.Timer
	finalSeen  bool
	terminated bool
}

// Request returns the transaction's request.
func (tx *ClientTx) Request() *Message { return tx.req }

// ServerTx is a server transaction: one received request and the
// response retransmission state.
type ServerTx struct {
	ep        *Endpoint
	key       string
	req       *Message
	src       string
	isInvite  bool
	lastWire  []byte
	lastCode  int
	acked     bool
	ackNext   *ServerTx // next unacked INVITE with the same ackKey
	onAck     func(*Message)
	onCancel  func(*Message)
	retrans   transport.Timer
	interval  time.Duration
	destroyTm transport.Timer
}

// Request returns the request that opened the transaction.
func (tx *ServerTx) Request() *Message { return tx.req }

// Source returns the network source of the request, which is where
// responses are sent.
func (tx *ServerTx) Source() string { return tx.src }

// OnAck installs a callback invoked when the ACK for a final INVITE
// response arrives on this transaction (non-2xx case; the 2xx ACK is a
// separate transaction delivered to the endpoint handler).
func (tx *ServerTx) OnAck(fn func(*Message)) { tx.onAck = fn }

// OnCancel installs a callback invoked when a CANCEL matching this
// INVITE transaction arrives before a final response. The transaction
// layer answers the CANCEL itself with 200; the callback is where the
// TU responds 487 on the INVITE (RFC 3261 9.2). The first final
// response drops the callback (and a later OnCancel installs none), so
// a transaction lingering for ACKs does not keep the TU's call state
// reachable.
func (tx *ServerTx) OnCancel(fn func(*Message)) {
	tx.ep.mu.Lock()
	if tx.lastCode < 200 {
		tx.onCancel = fn
	}
	tx.ep.mu.Unlock()
}

// Respond sends a response on the transaction. Provisional responses
// may be followed by more responses; the first final response arms the
// retransmission machinery for INVITE transactions until the ACK
// arrives. Respond is safe to call from endpoint callbacks.
func (tx *ServerTx) Respond(resp *Message) {
	tx.ep.mu.Lock()
	defer tx.ep.mu.Unlock()
	tx.respondLocked(resp)
}

func (tx *ServerTx) respondLocked(resp *Message) {
	tx.lastWire = resp.Marshal()
	tx.lastCode = resp.StatusCode
	tx.ep.sendWireLocked(tx.src, tx.lastWire, resp)
	if resp.StatusCode < 200 {
		return
	}
	tx.onCancel = nil // CANCEL is moot once a final response is out
	if tx.isInvite && !tx.acked {
		// Retransmit the final response until ACK (Timer G/H). This
		// deliberately covers 2xx as well: the B2BUA owns reliability
		// for both, a documented simplification over RFC 3261 13.3.
		tx.interval = T1
		tx.armRetransmitLocked()
		tx.destroyTm = tx.ep.clock.AfterFunc(TransactionTimeout, func() {
			tx.ep.mu.Lock()
			tx.stopTimersLocked()
			delete(tx.ep.serverTxs, tx.key)
			tx.ep.unindexLocked(tx)
			tx.ep.mu.Unlock()
		})
	} else {
		// Non-INVITE: linger in Completed to absorb request
		// retransmissions, then vanish (Timer J).
		tx.destroyTm = tx.ep.clock.AfterFunc(CompletedLinger, func() {
			tx.ep.mu.Lock()
			delete(tx.ep.serverTxs, tx.key)
			tx.ep.mu.Unlock()
		})
	}
}

func (tx *ServerTx) armRetransmitLocked() {
	tx.retrans = tx.ep.clock.AfterFunc(tx.interval, func() {
		tx.ep.mu.Lock()
		defer tx.ep.mu.Unlock()
		if tx.acked || tx.lastWire == nil {
			return
		}
		tx.ep.stats.Retransmissions++
		if tx.ep.tm != nil {
			tx.ep.tm.retrans.Inc()
		}
		tx.ep.tr.Send(tx.src, tx.lastWire)
		tx.interval *= 2
		if tx.interval > T2 {
			tx.interval = T2
		}
		tx.armRetransmitLocked()
	})
}

func (tx *ServerTx) stopTimersLocked() {
	if tx.retrans != nil {
		tx.retrans.Stop()
	}
	if tx.destroyTm != nil {
		tx.destroyTm.Stop()
	}
}

// handleAckLocked consumes an ACK matching this INVITE transaction.
func (tx *ServerTx) handleAckLocked(ack *Message) func() {
	if !tx.acked {
		tx.acked = true
		tx.ep.unindexLocked(tx)
	}
	tx.stopTimersLocked()
	// Leave the tx in place briefly to absorb duplicate ACKs.
	tx.destroyTm = tx.ep.clock.AfterFunc(CompletedLinger, func() {
		tx.ep.mu.Lock()
		delete(tx.ep.serverTxs, tx.key)
		tx.ep.mu.Unlock()
	})
	if tx.onAck != nil {
		fn := tx.onAck
		return func() { fn(ack) }
	}
	return nil
}

// startClientTxLocked sends req as a new client transaction.
func (ep *Endpoint) startClientTxLocked(dst string, req *Message, onResponse func(*Message)) *ClientTx {
	tx := &ClientTx{
		ep:         ep,
		key:        req.TransactionKey(),
		req:        req,
		dst:        dst,
		isInvite:   req.Method == INVITE,
		onResponse: onResponse,
		interval:   T1,
	}
	tx.wire = req.Marshal()
	ep.clientTxs[tx.key] = tx
	ep.sendWireLocked(dst, tx.wire, req)
	tx.armRetransmitLocked()
	tx.timeout = ep.clock.AfterFunc(TransactionTimeout, func() {
		ep.mu.Lock()
		if tx.terminated || tx.finalSeen {
			ep.mu.Unlock()
			return
		}
		tx.terminateLocked()
		ep.stats.Timeouts++
		if ep.tm != nil {
			ep.tm.timeouts.Inc()
		}
		cb := tx.onResponse
		ep.mu.Unlock()
		if cb != nil {
			// Deliver the timeout as a synthesized 408 so user agents
			// have a single response-handling path.
			resp := req.Response(StatusRequestTimeout)
			cb(resp)
		}
	})
	return tx
}

func (tx *ClientTx) armRetransmitLocked() {
	// Non-INVITE requests retransmit with Timer E capped at T2;
	// INVITEs with Timer A doubling unbounded until Timer B.
	tx.retransmit = tx.ep.clock.AfterFunc(tx.interval, func() {
		tx.ep.mu.Lock()
		defer tx.ep.mu.Unlock()
		if tx.terminated || tx.finalSeen {
			return
		}
		tx.ep.stats.Retransmissions++
		if tx.ep.tm != nil {
			tx.ep.tm.retrans.Inc()
		}
		tx.ep.tr.Send(tx.dst, tx.wire)
		tx.interval *= 2
		if !tx.isInvite && tx.interval > T2 {
			tx.interval = T2
		}
		tx.armRetransmitLocked()
	})
}

// Terminate abandons the transaction: timers stop, the transaction is
// removed from the endpoint, and no further callbacks fire. It exists
// for user agents that enforce deadlines shorter than Timer B — e.g. a
// balancer's health probe giving up on an OPTIONS long before the 32 s
// transaction timeout.
func (tx *ClientTx) Terminate() {
	tx.ep.mu.Lock()
	if !tx.terminated {
		tx.terminateLocked()
	}
	tx.ep.mu.Unlock()
}

func (tx *ClientTx) terminateLocked() {
	tx.terminated = true
	if tx.retransmit != nil {
		tx.retransmit.Stop()
	}
	if tx.timeout != nil {
		tx.timeout.Stop()
	}
	if tx.linger != nil {
		tx.linger.Stop()
	}
	delete(tx.ep.clientTxs, tx.key)
}

// handleResponseLocked processes a response matched to this
// transaction, returning the TU callback to run after unlock.
func (tx *ClientTx) handleResponseLocked(resp *Message) func() {
	if tx.terminated {
		return nil
	}
	cb := tx.onResponse
	if resp.StatusCode < 200 {
		// Provisional: stop retransmitting (Timer A only; keep B).
		if tx.retransmit != nil {
			tx.retransmit.Stop()
		}
		if cb == nil {
			return nil
		}
		return func() { cb(resp) }
	}
	if tx.finalSeen {
		// Retransmitted final response: re-ACK non-2xx, swallow.
		if tx.isInvite && resp.StatusCode >= 300 {
			tx.ep.sendAckForLocked(tx, resp)
		}
		return nil
	}
	tx.finalSeen = true
	if tx.retransmit != nil {
		tx.retransmit.Stop()
	}
	if tx.timeout != nil {
		tx.timeout.Stop()
	}
	if tx.isInvite && resp.StatusCode >= 300 {
		// The transaction layer ACKs non-2xx finals (RFC 3261 17.1.1.3)
		// and lingers to absorb retransmissions.
		tx.ep.sendAckForLocked(tx, resp)
		tx.linger = tx.ep.clock.AfterFunc(CompletedLinger, func() {
			tx.ep.mu.Lock()
			tx.terminateLocked()
			tx.ep.mu.Unlock()
		})
	} else {
		tx.terminateLocked()
	}
	if cb == nil {
		return nil
	}
	return func() { cb(resp) }
}

// sendAckForLocked emits the transaction-layer ACK for a non-2xx final
// response: same branch, same CSeq number, method ACK.
func (ep *Endpoint) sendAckForLocked(tx *ClientTx, resp *Message) {
	ack := NewRequest(ACK, tx.req.RequestURI, tx.req.From, resp.To, tx.req.CallID, tx.req.CSeq.Seq)
	ack.CSeq.Method = ACK
	ack.Via = []Via{tx.req.Via[0]}
	ep.sendWireLocked(tx.dst, ack.Marshal(), ack)
}
