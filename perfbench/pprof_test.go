package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// pbEnc builds protobuf messages for the decoder tests.
type pbEnc struct{ b []byte }

func (e *pbEnc) varint(field int, v uint64) *pbEnc {
	e.b = binary.AppendUvarint(e.b, uint64(field)<<3)
	e.b = binary.AppendUvarint(e.b, v)
	return e
}

func (e *pbEnc) bytes(field int, data []byte) *pbEnc {
	e.b = binary.AppendUvarint(e.b, uint64(field)<<3|2)
	e.b = binary.AppendUvarint(e.b, uint64(len(data)))
	e.b = append(e.b, data...)
	return e
}

func (e *pbEnc) msg(field int, m *pbEnc) *pbEnc { return e.bytes(field, m.b) }

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile is a two-value CPU profile (samples/count,
// cpu/nanoseconds). Location 3 holds two frames, an inlined callee
// first. Sample values use both repeated-field encodings.
func syntheticProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"syscall.Syscall6", "repro/internal/transport.(*UDPTransport).runBatch",
		"crypto/md5.block", "repro/internal/sip.DigestResponse", "runtime.gcBgMarkWorker", "runtime.scanobject"}
	p := &pbEnc{}
	p.msg(pfSampleType, (&pbEnc{}).varint(1, 1).varint(2, 2))
	p.msg(pfSampleType, (&pbEnc{}).varint(1, 3).varint(2, 4))
	// function id i names string 4+i.
	for id := uint64(1); id <= 6; id++ {
		p.msg(pfFunction, (&pbEnc{}).varint(1, id).varint(2, id+4))
	}
	line := func(fn uint64) *pbEnc { return (&pbEnc{}).varint(1, fn).varint(2, 10) }
	p.msg(pfLocation, (&pbEnc{}).varint(1, 1).msg(4, line(1)))                 // syscall.Syscall6
	p.msg(pfLocation, (&pbEnc{}).varint(1, 2).msg(4, line(2)))                 // transport runBatch
	p.msg(pfLocation, (&pbEnc{}).varint(1, 3).msg(4, line(3)).msg(4, line(4))) // md5.block inlined in sip.DigestResponse
	p.msg(pfLocation, (&pbEnc{}).varint(1, 4).msg(4, line(6)).msg(4, line(5))) // scanobject inlined in gcBgMarkWorker
	// Packed location ids and values.
	p.msg(pfSample, (&pbEnc{}).bytes(1, packed(1, 2)).bytes(2, packed(3, 30_000_000)))
	// One value per field.
	p.msg(pfSample, (&pbEnc{}).varint(1, 3).varint(1, 2).varint(2, 1).varint(2, 10_000_000))
	p.msg(pfSample, (&pbEnc{}).varint(1, 4).varint(2, 2).varint(2, 20_000_000))
	for _, s := range strs {
		p.bytes(pfStringTable, []byte(s))
	}
	p.varint(10, uint64(time.Second)) // duration_nanos, a field the decoder skips
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeCPUProfileSynthetic(t *testing.T) {
	samples, err := decodeCPUProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{Stack: []string{"syscall.Syscall6", "repro/internal/transport.(*UDPTransport).runBatch"}, NS: 30_000_000},
		{Stack: []string{"crypto/md5.block", "repro/internal/sip.DigestResponse", "repro/internal/transport.(*UDPTransport).runBatch"}, NS: 10_000_000},
		{Stack: []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, NS: 20_000_000},
	}
	if len(samples) != len(want) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(want))
	}
	for i := range want {
		if strings.Join(samples[i].Stack, ";") != strings.Join(want[i].Stack, ";") || samples[i].NS != want[i].NS {
			t.Errorf("sample %d = %+v, want %+v", i, samples[i], want[i])
		}
	}
	by := cpuByModule(samples)
	if by["syscall"] != 30e6 || by["sip"] != 10e6 || by["runtime_gc"] != 20e6 || len(by) != 3 {
		t.Errorf("cpuByModule = %v", by)
	}
	if _, err := decodeCPUProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/pbx.(*relay).forward", "repro/internal/transport.(*UDPTransport).run"}, "pbx"},
		{[]string{"syscall.Syscall6", "repro/internal/transport.(*sendQueue).flush"}, "syscall"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.RawSyscall6"}, "syscall"},
		{[]string{"runtime.mallocgc", "repro/internal/sip.Parse"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/sip.Parse"}, "runtime_gc"},
		{[]string{"strings.IndexByte", "internal/bytealg.IndexByteString", "repro/internal/sip.Parse"}, "sip"},
		{[]string{"crypto/md5.block", "repro/internal/directory.(*NonceCache).Verify"}, "directory"},
		{[]string{"repro.Run", "main.main"}, "repro"},
		{[]string{"net/http.(*conn).serve"}, "other"},
		{[]string{"main.startAdmin.func2"}, "main"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var spinSink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += uint64(i) * spinSink
		}
	}
}

// TestDecodeRuntimeProfile decodes a profile runtime/pprof really
// wrote, so the decoder follows the encoder the benchmark meets.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		if len(s.Stack) == 0 || s.NS <= 0 {
			t.Fatalf("sample with stack %v and %d ns", s.Stack, s.NS)
		}
		total += s.NS
		for _, fn := range s.Stack {
			if fn == "repro/perfbench.spin" || fn == "main.spin" {
				inSpin += s.NS
				break
			}
		}
	}
	// Race-detector builds charge much of the loop to the race runtime,
	// so only require that spin's frames were decoded.
	if total == 0 || inSpin == 0 {
		t.Errorf("decoded %d ns of CPU, %d in spin; want some in spin", total, inSpin)
	}
}
