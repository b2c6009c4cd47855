package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Every wire workload starts pbxd with exactly these flags, so one
// binary serves all of them and a result never depends on which
// workload ran first. The ports are ephemeral (read back from pbxd's
// banner) so concurrent checkouts cannot collide; the population
// covers register-storm; the default channel capacity (165, the
// paper's) stays in force.
var pbxdFlags = []string{
	"-addr", "127.0.0.1:0",
	"-admin", "127.0.0.1:0",
	"-users", strconv.Itoa(regPopulation),
	"-rtp-base", "21000",
	"-quiet",
	"-flight-dump", "",
}

// sutGOMAXPROCS pins pbxd to one P, so its CPU-second is one core's
// worth of work and "calls per core" reads straight off the metrics.
const sutGOMAXPROCS = 1

// sut is a running pbxd.
type sut struct {
	cmd      *exec.Cmd
	pid      string
	sipAddr  string
	adminURL string
	client   *http.Client
	outDone  chan struct{}
}

// startSUT launches pbxd and returns once its SIP socket is bound and
// /healthz answers.
func startSUT(bin string) (*sut, error) {
	cmd := exec.Command(bin, pbxdFlags...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(sutGOMAXPROCS))
	cmd.Stderr = os.Stderr
	// Should the benchmark die without stopping pbxd, the kernel kills
	// pbxd too rather than leave it serving.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := cmd.Start
	if canPin() {
		start = func() error { return startPinned(sutCore, cmd.Start) }
	}
	if err := start(); err != nil {
		return nil, fmt.Errorf("start pbxd: %w", err)
	}
	// The timeout bounds every admin call but the CPU profile, which
	// has a context of its own.
	s := &sut{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), client: &http.Client{Timeout: 10 * time.Second}, outDone: make(chan struct{})}
	sipCh, adminCh := make(chan string, 1), make(chan string, 1)
	go func() {
		defer close(s.outDone)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := bannerAddr(line, "pbxd: listening on "); ok {
				sipCh <- a
			}
			if a, ok := bannerAddr(line, "admin HTTP on http://"); ok {
				adminCh <- a
			}
		}
		// Keep draining so pbxd never blocks on a full pipe.
		io.Copy(io.Discard, out)
	}()
	deadline := time.After(30 * time.Second)
	for s.sipAddr == "" || s.adminURL == "" {
		select {
		case a := <-sipCh:
			s.sipAddr = a
		case a := <-adminCh:
			s.adminURL = "http://" + a
		case <-s.outDone:
			s.stop()
			return nil, fmt.Errorf("pbxd exited before it was ready")
		case <-deadline:
			s.stop()
			return nil, fmt.Errorf("pbxd not ready after 30s")
		}
	}
	for {
		resp, err := s.client.Get(s.adminURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-deadline:
			s.stop()
			return nil, fmt.Errorf("pbxd /healthz not ready after 30s")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// bannerAddr extracts the "host:port" that follows prefix in a pbxd
// start-up line.
func bannerAddr(line, prefix string) (string, bool) {
	_, rest, ok := strings.Cut(line, prefix)
	if !ok {
		return "", false
	}
	addr, _, _ := strings.Cut(rest, " ")
	return addr, addr != ""
}

// stop interrupts pbxd (its graceful path), kills it if it lingers,
// and waits until the process and its output reader have ended.
func (s *sut) stop() {
	s.cmd.Process.Signal(os.Interrupt)
	exited := make(chan struct{})
	go func() {
		<-s.outDone
		s.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Signal(syscall.SIGKILL)
		<-exited
	}
}

// scrape reads pbxd's /metrics.
func (s *sut) scrape() (promScrape, error) { return scrapeMetrics(s.client, s.adminURL+"/metrics") }

// memStats reads the runtime.MemStats lines a heap or allocs profile
// appends to its text form (query includes debug=1).
func (s *sut) memStats(query string, keys ...string) (map[string]uint64, error) {
	resp, err := s.client.Get(s.adminURL + "/debug/pprof/" + query)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMemStatsText(string(b), keys...)
}

// parseMemStatsText picks "# Name = value" lines out of a heap
// profile's debug=1 text.
func parseMemStatsText(text string, keys ...string) (map[string]uint64, error) {
	out := map[string]uint64{}
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		if n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64); err == nil {
			out[k] = n
		}
	}
	for _, k := range keys {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("memstats: no %s line", k)
		}
	}
	return out, nil
}

// memory records pbxd's memory at the end of a run: the live heap
// after a forced collection (what the run left held, an end-to-end
// metric) and the resident-set high-water mark (per layer; it swings
// with where the collector's cycles fell, too much to gate on).
func (s *sut) memory(res *result) error {
	ms, err := s.memStats("heap?gc=1&debug=1", "HeapAlloc")
	if err != nil {
		return err
	}
	res.e2e["heap_held_mb"] = float64(ms["HeapAlloc"]) / (1 << 20)
	res.layers["kernel.peak_rss_mb"], err = peakRSSMB(s.pid)
	return err
}

// cpuProfile records pbxd's CPU profile for d (whole seconds).
func (s *sut) cpuProfile(d time.Duration) ([]byte, error) {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), d+30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", s.adminURL, secs), nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cpu profile: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// sutSnap is one reading of pbxd and of the generator at a window edge.
type sutSnap struct {
	prom promScrape
	cpu  procCPU       // pbxd, user and kernel
	ns   time.Duration // pbxd, nanosecond on-CPU time
	// nsAfter is pbxd's on-CPU time as the window starting here opens:
	// after the traced probes, whose own cost thus falls in no window.
	nsAfter time.Duration
	gen     procCPU           // this process
	ctxsw   uint64            // traced edges only
	mem     map[string]uint64 // traced edges only
}

// snapshot reads pbxd's counters and both processes' CPU time. The
// traced form adds context switches and allocation totals.
func (s *sut) snapshot(traced bool) (sutSnap, error) {
	var sn sutSnap
	var err error
	if sn.prom, err = s.scrape(); err != nil {
		return sn, err
	}
	if sn.ns, err = schedCPU("/proc", s.pid); err != nil {
		return sn, err
	}
	if sn.cpu, err = readProcCPU(s.pid); err != nil {
		return sn, err
	}
	if sn.gen, err = readProcCPU("self"); err != nil {
		return sn, err
	}
	sn.nsAfter = sn.ns
	if !traced {
		return sn, nil
	}
	// Rendering the allocation profile costs pbxd tens of milliseconds;
	// bracketing it keeps that cost out of both windows.
	if sn.mem, err = s.memStats("allocs?debug=1", "TotalAlloc"); err != nil {
		return sn, err
	}
	if sn.ctxsw, err = ctxSwitches("/proc", s.pid); err != nil {
		return sn, err
	}
	sn.nsAfter, err = schedCPU("/proc", s.pid)
	return sn, err
}
