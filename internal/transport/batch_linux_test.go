//go:build linux && (amd64 || arm64)

package transport

import "testing"

// TestCloseDropsBufferReferences: a closed transport may stay
// reachable (a relay leg still held by its call), so Close must leave
// its send queue pointing at no pooled buffer — neither the slot
// slices nor the iovecs the kernel wrote from.
func TestCloseDropsBufferReferences(t *testing.T) {
	tr, err := ListenUDPConfig("127.0.0.1:0", UDPConfig{BatchSize: 4, BufferSize: MaxDatagram})
	if err != nil {
		t.Fatal(err)
	}
	if tr.sq == nil {
		t.Fatal("batched transport has no send queue")
	}
	tr.QueueSend(tr.LocalAddr(), []byte("self"))
	tr.Flush()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range tr.sq.bufs {
		if tr.sq.bufs[i] != nil || tr.sq.iovs[i].Base != nil {
			t.Errorf("send slot %d still references its buffer after Close", i)
		}
	}
}
