package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// smallRun drives a 32-host, 3-stage fabric for warm+meas slots, with
// the benchmark's wrappers when traced. With ckptAt > 0 it saves there
// and finishes on a session resumed into a fresh fabric.
func smallRun(t *testing.T, kind traffic.Kind, load float64, traced bool, ckptAt uint64) (string, *schedTracer, []*genStats) {
	t.Helper()
	const warm, meas = 60, 300
	var tracer *schedTracer
	var gstats []*genStats
	build := func() (*fabric.Fabric, []traffic.Generator) {
		x, err := fabric.NewXGFT(32, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		newSched := func() sched.Scheduler { return sched.NewFLPPR(8, 0) }
		gens, err := traffic.Build(traffic.Config{Kind: kind, N: 32, Load: load, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			newSched = tracer.factory(newSched)
			var st []*genStats
			gens, st = wrapGens(gens)
			gstats = append(gstats, st...)
		}
		f, err := fabric.New(fabric.Config{Network: x, Receivers: 2, NewScheduler: newSched, LinkDelaySlots: 2, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return f, gens
	}
	if traced {
		tracer = &schedTracer{}
	}
	f, gens := build()
	sess, err := fabric.StartSession(f, gens, warm, meas)
	if err != nil {
		t.Fatal(err)
	}
	if ckptAt > 0 {
		if _, err := sess.Advance(ckptAt); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sess.Save(&buf); err != nil {
			t.Fatal(err)
		}
		f, gens = build()
		if sess, err = fabric.ResumeSession(f, gens, &buf); err != nil {
			t.Fatal(err)
		}
	}
	for !sess.Done() {
		if _, err := sess.Advance(12); err != nil {
			t.Fatal(err)
		}
	}
	return sess.Metrics().Fingerprint(), tracer, gstats
}

func TestWrappedRunMatchesUnwrapped(t *testing.T) {
	plain, _, _ := smallRun(t, traffic.KindUniform, 0.6, false, 0)
	wrapped, tracer, gstats := smallRun(t, traffic.KindUniform, 0.6, true, 0)
	if wrapped != plain {
		t.Fatalf("wrapped fingerprint differs:\n  wrapped %s\n  plain   %s", wrapped, plain)
	}
	st := tracer.total()
	if st.ticks == 0 || st.matched == 0 || st.tickNs <= 0 {
		t.Fatalf("scheduler counters not accumulated: %+v", st)
	}
	g := sumGens(gstats)
	if want := uint64(32 * 360); g.calls != want || g.arrivals == 0 {
		t.Fatalf("generator counters: %d calls (want %d), %d arrivals", g.calls, want, g.arrivals)
	}
}

func TestCheckpointRoundTripsThroughWrappers(t *testing.T) {
	plain, _, _ := smallRun(t, traffic.KindUniform, 0.6, false, 0)
	resumed, _, _ := smallRun(t, traffic.KindUniform, 0.6, true, 120)
	if resumed != plain {
		t.Fatalf("wrapped save/resume fingerprint differs:\n  resumed %s\n  plain   %s", resumed, plain)
	}
}

func TestSkipIdleForwarded(t *testing.T) {
	plain, _, _ := smallRun(t, traffic.KindBursty, 0.05, false, 0)
	wrapped, tracer, _ := smallRun(t, traffic.KindBursty, 0.05, true, 0)
	if wrapped != plain {
		t.Fatalf("wrapped fingerprint differs on the light bursty shape")
	}
	st := tracer.total()
	share := float64(st.skipSlots) / float64(360*len(tracer.nodes))
	if st.skipCalls == 0 || share <= 0 {
		t.Fatalf("SkipIdle never reached the wrapper: %+v", st)
	}
}

// bareSched implements only sched.Scheduler.
type bareSched struct{ sched.Scheduler }

// bareGen implements only traffic.Generator.
type bareGen struct{ traffic.Generator }

func TestWrappersForwardExactlyTheOptionalInterfaces(t *testing.T) {
	cases := []sched.Scheduler{
		sched.NewFLPPR(8, 0), sched.NewISLIP(8, 0), sched.NewPIM(8, 0, 1),
		sched.NewLQF(8), sched.NewPipelinedISLIP(8, 0), bareSched{sched.NewISLIP(8, 0)},
	}
	for _, s := range cases {
		w := wrapSched(s, &schedStats{})
		_, skip := s.(sched.IdleSkipper)
		_, wskip := w.(sched.IdleSkipper)
		_, codec := s.(sched.StateCodec)
		_, wcodec := w.(sched.StateCodec)
		if skip != wskip || codec != wcodec {
			t.Errorf("%T: IdleSkipper %v->%v, StateCodec %v->%v", s, skip, wskip, codec, wcodec)
		}
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: 4, Load: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gens = append(gens, bareGen{gens[0]})
	wrapped, _ := wrapGens(gens)
	for i, g := range gens {
		_, codec := g.(traffic.StateCodec)
		_, wcodec := wrapped[i].(traffic.StateCodec)
		if codec != wcodec {
			t.Errorf("%T: StateCodec %v->%v", g, codec, wcodec)
		}
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	l := newSpanLog()
	p := l.add("parent", "op", 0, 0, 100)
	l.add("a", "op", p, 10, 40)
	l.add("b", "op", p, 30, 60)  // overlaps a
	l.add("c", "op", p, 90, 120) // runs past the parent
	if got := l.selfTime(p); got != 100-50-10 {
		t.Fatalf("self time %d, want 40", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Fatalf("median %v, want 2.5", q)
	}
	if q := quantile(xs, 0.9); q < 3.69 || q > 3.71 {
		t.Fatalf("p90 %v, want 3.7", q)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported names and units in
// step with the benchmark's declaration.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
}
