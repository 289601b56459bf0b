package main

import "repro/internal/experiments"

// The metric names and units this benchmark reports; BENCHMARK.json
// lists the same names (TestMetricsMatchBenchmarkJSON in wrap_test.go
// keeps the two in step).

// endToEnd are the untraced run's metrics, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"checkpoint_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a
// layer it does not trace (the service's engines, for instance, are
// built inside osmosisd where the benchmark cannot wrap them).
var perLayer = append([]metricDef{
	{"fabric.new_ms", "ms"},
	{"fabric.advance_ns_per_slot", "ns"},
	{"fabric.self_cpu_ns_per_slot", "ns"},
	{"fabric.cpu_util", "ratio"},
	{"fabric.cells_per_slot", "cells"},
	{"fabric.fc_blocked", "count"},
	{"fabric.max_voq_depth", "cells"},
	{"fabric.drift", "ratio"},
	{"sched.tick_calls", "count"},
	{"sched.tick_ns", "ns"},
	{"sched.tick_cpu_share", "ratio"},
	{"sched.skip_slot_share", "ratio"},
	{"sched.matched_per_tick", "count"},
	{"traffic.next_calls", "count"},
	{"traffic.arrivals", "count"},
	{"traffic.next_ns", "ns"},
	{"ckpt.save_ms", "ms"},
	{"ckpt.resume_ms", "ms"},
	{"ckpt.bytes", "B"},
	{"service.restore_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.engine_ms", "ms"},
	{"service.wait_ms", "ms"},
	{"service.engine_ns_per_slot", "ns"},
	{"service.jobs_total", "count"},
	{"service.jobs_failed", "count"},
	{"experiments.crossbar_ms", "ms"},
	{"experiments.fabric_ms", "ms"},
	{"experiments.analytic_ms", "ms"},
	{"experiments.critical_path_share", "ratio"},
	{"parallel.cpu_util", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.heap_peak_mib", "MiB"},
	{"trace.overhead_per_s", "1/s"},
	{"trace.overhead_share", "ratio"},
}, experimentMetrics()...)

type metricDef struct{ name, unit string }

// experimentGroup classifies each experiment of the quick suite by the
// layer that does its work: the single-switch crossbar kernel (directly
// or through core), the multistage fabric, or closed-form models.
var experimentGroup = map[string]string{
	"table1": "crossbar", "fig1": "analytic", "fig2": "fabric", "fig4": "fabric",
	"fig6": "crossbar", "fig7": "crossbar", "fig10": "analytic", "stages": "analytic",
	"stages-sim": "fabric", "power": "analytic", "scaling": "analytic", "snf": "analytic",
	"guard": "analytic", "tech": "analytic", "fec": "analytic", "bvn": "crossbar",
	"container": "crossbar", "deflect": "crossbar", "control-rtt": "crossbar",
	"faults": "crossbar", "workloads": "crossbar",
	"ablation-flppr-k": "crossbar", "ablation-islip-iters": "crossbar",
	"ablation-receivers": "crossbar", "ablation-credits": "fabric",
	"ablation-interleave": "analytic",
}

func experimentMetric(id string) string { return "experiments." + id + "_ms" }

func experimentMetrics() []metricDef {
	ids := experiments.IDs()
	out := make([]metricDef, len(ids))
	for i, id := range ids {
		out[i] = metricDef{experimentMetric(id), "ms"}
	}
	return out
}

// complete checks that an untraced run set every end-to-end metric to
// a positive value, fills the per-layer metrics a traced run did not
// trace with 0, and rejects any name outside the declared set.
func (e *env) complete() {
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		m, ok := e.metrics[d.name]
		switch {
		case e.traced && !ok:
			e.set(d.name, 0, d.unit)
		case !e.traced:
			e.check(ok && m.Value > 0, "end-to-end metric %s is missing or not positive", d.name)
		}
	}
	for n := range e.metrics {
		e.check(known[n], "metric %s is not declared for this run kind", n)
	}
}

// setOverhead reports the tracing overhead: traced minus untraced
// throughput, and the share of untraced throughput lost.
func (e *env) setOverhead(plain, traced float64) {
	e.set("trace.overhead_per_s", traced-plain, "1/s")
	e.set("trace.overhead_share", (plain-traced)/plain, "ratio")
}
