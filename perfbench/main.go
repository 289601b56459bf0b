// Command perfbench is the repository's benchmark. It drives three
// workloads through the simulator's public entry points, checks every
// output for correctness, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run) as its last output line:
//
//	perfbench --workload flagship_uniform --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	flagship_uniform  the paper's 2048-port machine at load 0.6, driven
//	                  in fixed Session.Advance chunks, with a
//	                  Save/ResumeSession round trip at the end of warm-up
//	service_mix       an in-process osmosisd on loopback HTTP with two
//	                  closed-loop clients running small jobs and restores
//	quick_suite       experiments.RunMany over the -quick suite at Par 2,
//	                  back to back
//
// The process exits 1, after printing the result line, if any
// correctness check fails, and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart approximates process start: package variables are
// initialized before main runs, after the runtime has started.
var processStart = time.Now()

// defaultSeed is the seed whose outputs are pinned in pins.go.
const defaultSeed = 1

// workload runs one benchmark workload into env. With env.traced it is
// the traced run, which reports per-layer metrics instead of end-to-end
// ones.
type workload func(env *env) error

var workloads = map[string]workload{
	"flagship_uniform": runFlagship,
	"service_mix":      runServiceMix,
	"quick_suite":      runQuickSuite,
}

// env carries a run's arguments and collects its report.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
	name    string

	attempted, failed int
	checks            []string // failed correctness checks
	metrics           map[string]metric
	notes             []string
	spans             *spanLog
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// set records a metric for the result line.
func (e *env) set(name string, value float64, unit string) {
	e.metrics[name] = metric{Value: value, Unit: unit}
}

// check records a correctness check; a false ok fails the run.
func (e *env) check(ok bool, format string, args ...any) {
	if !ok {
		e.checks = append(e.checks, fmt.Sprintf(format, args...))
	}
}

// note prints an informational line (guards, fingerprints) with the
// human-readable report.
func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
		seed    = flag.Uint64("seed", defaultSeed, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds per pass")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = flag.String("out", ".bench_build/perfbench", "directory for span traces")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), " | "))
		os.Exit(2)
	}
	e := &env{
		seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *outDir, name: *name,
		metrics: map[string]metric{}, spans: newSpanLog(),
	}
	e.note("host: %s", hostFingerprint())
	total0, steal0 := cpuTicks()
	if err := run(e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	e.note("host CPU steal during the run: %.1f%%", 100*stealShare(total0, steal0))
	if e.traced {
		path, err := e.spans.write(e.outDir, fmt.Sprintf("%s-seed%d", e.name, e.seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		e.note("spans: %d written to %s", e.spans.len(), path)
	}
	e.complete()
	os.Exit(report(e))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the human-readable lines, then the result object as
// the last line, and returns the exit code.
func report(e *env) int {
	for _, n := range e.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(e.metrics))
	for n := range e.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := e.metrics[n]
		fmt.Printf("%-40s %.6g %s\n", n, m.Value, m.Unit)
	}
	for _, c := range e.checks {
		fmt.Println("CHECK FAILED:", c)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(e.checks) == 0, e.attempted, e.failed, e.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(out))
	if len(e.checks) > 0 {
		return 1
	}
	return 0
}

// hostFingerprint names the machine the numbers come from; results are
// only comparable on the same host.
func hostFingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
