package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// minUnit is the shortest timed unit whose median is trusted: below it
// a single OS time slice on a shared core moves the figure.
const minUnit = 20 * time.Millisecond

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// msSince is the time since start in milliseconds.
func msSince(start time.Time) float64 { return float64(time.Since(start)) / float64(time.Millisecond) }

// percentile reports the q-quantile of a latency sample set, refusing
// (as a failed check) when fewer than minBeyond samples lie above it,
// and flags a timed unit whose median is under minUnit.
func (e *env) percentile(name string, ms []float64, q float64) float64 {
	v := quantile(ms, q)
	beyond := 0
	for _, x := range ms {
		if x > v {
			beyond++
		}
	}
	e.check(beyond >= minBeyond, "%s: only %d of %d samples beyond the percentile (need %d); run longer",
		name, beyond, len(ms), minBeyond)
	e.note("%s: %.4g ms over %d samples, %d beyond", name, v, len(ms), beyond)
	return v
}

// guardUnit flags a timed unit too short to be steady on a shared host.
func (e *env) guardUnit(what string, ms []float64) {
	if m := median(ms); m < float64(minUnit)/float64(time.Millisecond) {
		e.note("guard: %s median %.3g ms is under %v; the figure is at the mercy of the OS scheduler", what, m, minUnit)
	}
}

// setup times repeated set-ups. The first repetition is measured from
// process start, so it includes program initialization; the median of
// all repetitions is the reported setup_s, which keeps one slow
// repetition from moving the figure. reset, when set, runs untimed
// before every repetition after the first.
type setupTimer struct {
	secs  []float64
	reset func()
}

func (t *setupTimer) run(reps int, fn func(rep int) error) error {
	for rep := 0; rep < reps; rep++ {
		if rep > 0 && t.reset != nil {
			t.reset()
		}
		start := time.Now()
		if rep == 0 {
			start = processStart
		}
		if err := fn(rep); err != nil {
			return err
		}
		t.secs = append(t.secs, time.Since(start).Seconds())
	}
	return nil
}

func (t *setupTimer) median() float64 { return median(t.secs) }

// setupReps is how many times each workload sets up per run.
const setupReps = 5

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuNow reads the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is a snapshot of the Go runtime counters the runtime.*
// metrics difference.
type rtSample struct {
	allocBytes, gcCycles  uint64
	gcCPU, totalCPU, heap float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: u(0), gcCycles: u(1), gcCPU: f(2), totalCPU: f(3), heap: float64(u(4))}
}

// rtWatch accumulates runtime counters over the timed operations of a
// run and tracks the peak live heap seen at operation boundaries.
type rtWatch struct {
	start, end rtSample
	peakHeap   float64
}

func newRTWatch() *rtWatch {
	s := readRuntime()
	return &rtWatch{start: s, peakHeap: s.heap}
}

// tick samples the live heap; call it at operation boundaries.
func (w *rtWatch) tick() {
	if h := readRuntime().heap; h > w.peakHeap {
		w.peakHeap = h
	}
}

// stop ends the watched interval.
func (w *rtWatch) stop() {
	w.tick()
	w.end = readRuntime()
}

// report sets the runtime.* per-layer metrics of the stopped interval
// over ops operations.
func (w *rtWatch) report(e *env, ops int) {
	end := w.end
	gcShare := 0.0
	if d := end.totalCPU - w.start.totalCPU; d > 0 {
		gcShare = (end.gcCPU - w.start.gcCPU) / d
	}
	e.set("runtime.alloc_bytes_per_op", float64(end.allocBytes-w.start.allocBytes)/float64(max(ops, 1)), "B")
	e.set("runtime.gc_cycles", float64(end.gcCycles-w.start.gcCycles), "count")
	e.set("runtime.gc_cpu_share", gcShare, "ratio")
	e.set("runtime.heap_peak_mib", w.peakHeap/(1<<20), "MiB")
}

// cpuTicks reads the host's aggregate CPU tick counters (the "cpu" line
// of /proc/stat): total and steal (time the hypervisor gave away).
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealShare reports the share of host CPU time stolen by the
// hypervisor since the given counters: figures from a run with high
// steal measure the neighbours as much as the program.
func stealShare(total0, steal0 uint64) float64 {
	total, steal := cpuTicks()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}
