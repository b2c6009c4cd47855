// Command perfbench is the repository's end-to-end benchmark. Each
// workload runs the real system, checks that its outputs are correct
// and prints one JSON result as the last line of standard output:
//
//	bash perfbench/run.sh --workload relay-g711 --seed 1 --seconds 30 --trace 0
//
// The wire workloads (relay-g711, call-storm, register-storm) start
// cmd/pbxd as the system under test and drive it from this process
// over loopback; sim-table1 runs the simulator in process. With
// --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer ledger. README.md explains the workloads
// and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// genGOMAXPROCS keeps the generator on one core, so on a two-core
// host it cannot take the core pbxd runs on.
const genGOMAXPROCS = 1

// e2eMetrics are the end-to-end metrics, in output order. Every
// workload defines each; README.md gives the per-workload meaning.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"heap_held_mb", "MB"},
	{"ops_per_cpu_s", "1/s"},
}

var workloads = map[string]struct {
	run  func(runConfig) (*result, error)
	wire bool
}{
	"relay-g711":     {runRelay, true},
	"call-storm":     {runCallStorm, true},
	"register-storm": {runRegisterStorm, true},
	"sim-table1":     {runSim, false},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: relay-g711, call-storm, register-storm or sim-table1")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
		seconds  = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
		pbxd     = flag.String("pbxd", "", "pbxd binary under test (wire workloads)")
		out      = flag.String("out", "", "directory for the traced run's span dump")
	)
	flag.Parse()
	wl, ok := workloads[*workload]
	switch {
	case !ok:
		fatalf("unknown workload %q", *workload)
	case *seconds < 1:
		fatalf("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		fatalf("--trace must be 0 or 1")
	case wl.wire && *pbxd == "":
		fatalf("%s needs -pbxd", *workload)
	}
	runtime.GOMAXPROCS(genGOMAXPROCS)
	if canPin() {
		if err := pinSelf(genCore); err != nil {
			fatalf("%v", err)
		}
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, pbxd: *pbxd, out: *out,
	}
	// Stolen CPU time is how busy the machine's neighbours kept it: the
	// usual reason one run reads slower than the others.
	ticks0, err := readHostStat()
	if err != nil {
		fatalf("%v", err)
	}
	res, err := wl.run(cfg)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	ticks1, err := readHostStat()
	if err != nil {
		fatalf("%v", err)
	}
	res.layers["host.steal_share"] = stealShare(ticks0, ticks1)
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	fp := hostFingerprint(cfg, wl.wire)
	fp["steal_share"] = res.layers["host.steal_share"]
	stamp, err := json.Marshal(map[string]any{"host": fp})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(stamp))
	line, err := json.Marshal(report(res, cfg.traced))
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report shapes a result as the benchmark's output line: every
// end-to-end metric, or every per-layer metric when traced.
func report(res *result, traced bool) output {
	list, vals := e2eMetrics, res.e2e
	if traced {
		list, vals = layerMetrics, res.layers
	}
	r := output{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		r.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	return r
}

// hostFingerprint identifies where and how a result was measured, so
// results from different hosts or configurations are not compared.
func hostFingerprint(cfg runConfig, wire bool) map[string]any {
	fp := map[string]any{
		"cpu_model":      cpuModel(),
		"nproc":          runtime.NumCPU(),
		"kernel":         strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		"go":             runtime.Version(),
		"gen_gomaxprocs": runtime.GOMAXPROCS(0),
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds.Seconds(),
	}
	if canPin() {
		fp["gen_cpu"] = genCore
	}
	if wire {
		fp["pbxd_gomaxprocs"] = sutGOMAXPROCS
		fp["pbxd_flags"] = pbxdFlags
		if canPin() {
			fp["pbxd_cpu"] = sutCore
		}
	}
	return fp
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// readFile returns a file's text, or "" when it cannot be read: the
// fingerprint is informative, not a check.
func readFile(path string) string {
	b, _ := os.ReadFile(path)
	return string(b)
}
