package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestPercentileNearestRank(t *testing.T) {
	var hundred []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		hundred = append(hundred, float64(i))
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{hundred, 0.5, 1},
		{[]float64{7}, 99, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 99, 4},
		{nil, 99, 0},
	}
	for _, c := range cases {
		xs := append([]float64(nil), c.xs...)
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
		{nil, 0},
	}
	for _, c := range cases {
		if got := median(append([]float64(nil), c.xs...)); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// The command field may hold spaces and parentheses.
	line := "4242 (pbx d) (x)) S 1 4242 4242 0 -1 4194560 1200 0 3 0 150 50 0 0 20 0 9 0 12345 1000000 500 18446744073709551615\n"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.User != 1500*time.Millisecond || got.Sys != 500*time.Millisecond || got.Total() != 2*time.Second {
		t.Errorf("parseProcStat = %+v, want user 1.5s sys 0.5s", got)
	}
	d := got.Sub(procCPU{User: time.Second, Sys: 100 * time.Millisecond})
	if d.User != 500*time.Millisecond || d.Sys != 400*time.Millisecond {
		t.Errorf("Sub = %+v", d)
	}
	for _, bad := range []string{"", "4242 (pbxd) S 1 2 3", "4242 (pbxd) S 1 4242 4242 0 -1 4194560 1200 0 3 0 x 50 0"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
}

func TestParseProcStatSelf(t *testing.T) {
	if _, err := readProcCPU("self"); err != nil {
		t.Skipf("no /proc here: %v", err)
	}
	if _, err := peakRSSMB("self"); err != nil {
		t.Errorf("peakRSSMB(self): %v", err)
	}
}

const taskStatus = `Name:	pbxd
State:	S (sleeping)
VmHWM:	   43260 kB
Threads:	7
voluntary_ctxt_switches:	120
nonvoluntary_ctxt_switches:	8
`

func TestParseHostStat(t *testing.T) {
	a, err := parseHostStat("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 50 0 25 400 5 0 2 18 0 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 35 {
		t.Errorf("parseHostStat = %+v, want total 1000 (guest excluded), steal 35", a)
	}
	b := cpuTicks{total: 1200, steal: 85}
	if got := stealShare(a, b); got != 0.25 {
		t.Errorf("stealShare = %v, want 0.25", got)
	}
	for _, bad := range []string{"", "cpu 1 2 3\n", "intr 1 2 3 4 5 6 7 8 9\n", "cpu  1 2 3 4 5 6 7 x 9\n"} {
		if _, err := parseHostStat(bad); err == nil {
			t.Errorf("parseHostStat(%q) accepted", bad)
		}
	}
}

func TestParseStatusFields(t *testing.T) {
	f, err := parseStatusFields(taskStatus, "VmHWM", "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
	if err != nil {
		t.Fatal(err)
	}
	if f["VmHWM"] != 43260 || f["voluntary_ctxt_switches"] != 120 || f["nonvoluntary_ctxt_switches"] != 8 {
		t.Errorf("parseStatusFields = %v", f)
	}
	if _, err := parseStatusFields(taskStatus, "VmRSS"); err == nil {
		t.Error("missing key accepted")
	}
}

func TestCtxSwitchesSumsTasks(t *testing.T) {
	root := t.TempDir()
	tasks := map[string]string{
		"100": "voluntary_ctxt_switches:\t10\nnonvoluntary_ctxt_switches:\t1\n",
		"101": "voluntary_ctxt_switches:\t200\nnonvoluntary_ctxt_switches:\t20\n",
	}
	for tid, text := range tasks {
		dir := filepath.Join(root, "100", "task", tid)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "status"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ctxSwitches(root, "100")
	if err != nil {
		t.Fatal(err)
	}
	if got != 231 {
		t.Errorf("ctxSwitches = %d, want 231", got)
	}
	if _, err := ctxSwitches(root, "999"); err == nil {
		t.Error("missing process accepted")
	}
}

func TestPromDelta(t *testing.T) {
	before := `# HELP sip_messages_total SIP messages by direction and kind
# TYPE sip_messages_total counter
sip_messages_total{dir="recv",kind="INVITE"} 10
sip_messages_total{dir="sent",kind="2xx"} 12
pbx_nonce_cache_total{result="hit"} 5
pbx_nonce_cache_total{result="stale"} 1
pbx_call_mos_bucket{le="4"} 3
pbx_active_channels 4
`
	after := `sip_messages_total{dir="recv",kind="INVITE"} 25
sip_messages_total{dir="sent",kind="2xx"} 40
pbx_nonce_cache_total{result="hit"} 95
pbx_nonce_cache_total{result="stale"} 1
pbx_nonce_cache_total{result="bad"} 4
rtp_relay_packets_total 1000
pbx_active_channels 0
`
	a, err := parseScrape(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseScrape(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta{before: a, after: b}
	cases := []struct {
		name  string
		match []string
		want  float64
	}{
		{"sip_messages_total", nil, 43},
		{"sip_messages_total", []string{"dir", "recv"}, 15},
		{"sip_messages_total", []string{"dir", "recv", "kind", "2xx"}, 0},
		{"pbx_nonce_cache_total", []string{"result", "hit"}, 90},
		{"pbx_nonce_cache_total", nil, 94},                        // a label set first seen after counts from 0
		{"rtp_relay_packets_total", nil, 1000},                    // so does a family registered mid-run
		{"pbx_active_channels", nil, -4},                          // gauges subtract too
		{"udp_rx_packets_total", []string{"transport", "sip"}, 0}, // absent family
	}
	for _, c := range cases {
		if got := d.Delta(c.name, c.match...); got != c.want {
			t.Errorf("Delta(%s, %v) = %v, want %v", c.name, c.match, got, c.want)
		}
	}
	if _, err := parseScrape(strings.NewReader("not a sample line at all{\n")); err == nil {
		t.Error("malformed exposition accepted")
	}
}

func TestParseMemStatsText(t *testing.T) {
	text := "heap profile: 1: 2 [3: 4] @ heap/1048576\n# runtime.MemStats\n# Alloc = 100\n# TotalAlloc = 123456\n# Mallocs = 789\n# NumGC = 3\n# PauseNs = [0 0 0]\n"
	got, err := parseMemStatsText(text, "TotalAlloc", "Mallocs", "NumGC")
	if err != nil {
		t.Fatal(err)
	}
	if got["TotalAlloc"] != 123456 || got["Mallocs"] != 789 || got["NumGC"] != 3 {
		t.Errorf("parseMemStatsText = %v", got)
	}
	if _, err := parseMemStatsText(text, "HeapSys"); err == nil {
		t.Error("missing key accepted")
	}
}

func TestBannerAddr(t *testing.T) {
	line := "pbxd: listening on 127.0.0.1:41234 (1 shard(s), batched=true), capacity 165"
	if a, ok := bannerAddr(line, "pbxd: listening on "); !ok || a != "127.0.0.1:41234" {
		t.Errorf("bannerAddr = %q, %v", a, ok)
	}
	admin := "pbxd: admin HTTP on http://127.0.0.1:39999 (/metrics /healthz)"
	if a, ok := bannerAddr(admin, "admin HTTP on http://"); !ok || a != "127.0.0.1:39999" {
		t.Errorf("bannerAddr = %q, %v", a, ok)
	}
	if _, ok := bannerAddr("pbxd: registrar on", "pbxd: listening on "); ok {
		t.Error("unrelated line matched")
	}
}

// TestModelSettleClearsKnee replays pbxd's CPU-model EWMA for the
// worst case modelSettle assumes (every set-up INVITE in one sampling
// second) and checks the modelled load is under the knee once the wait
// is over.
func TestModelSettleClearsKnee(t *testing.T) {
	for _, n := range []int{1, 50, relayCalls, 150} {
		wait := modelSettle(n, n)
		ewma := 0.0
		for tick := 1; time.Duration(tick)*time.Second <= wait; tick++ {
			burst := 0.0
			if tick == 1 {
				burst = float64(n)
			}
			ewma = 0.7*ewma + 0.3*burst
		}
		if util := 7 + 0.2*float64(n) + 5*ewma; util >= 45 {
			t.Errorf("%d calls: modelled load %.1f%% after %v, want < 45%%", n, util, wait)
		}
	}
}

func TestPoissonDuesSeeded(t *testing.T) {
	a := poissonDues(stats.NewRNG(7), 100, time.Second, 11*time.Second)
	b := poissonDues(stats.NewRNG(7), 100, time.Second, 11*time.Second)
	if len(a) != 1000 || len(b) != 1000 {
		t.Fatalf("%d and %d arrivals, want 1000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || a[i] < time.Second || a[i] >= 11*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFillPayloadDistinct(t *testing.T) {
	p, q := make([]byte, rtpPayload), make([]byte, rtpPayload)
	fillPayload(p, 1, 0xabc, 7)
	fillPayload(q, 1, 0xabc, 7)
	if string(p) != string(q) {
		t.Fatal("payload not deterministic")
	}
	fillPayload(q, 1, 0xabc, 8)
	if string(p) == string(q) {
		t.Fatal("consecutive packets share a payload")
	}
}
