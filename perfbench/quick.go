package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The quick suite runs every registered experiment with Quick set at
// Par 2, as `experiments -quick -par 2` does, at the registry's default
// seed (the configuration EXPERIMENTS.md records). --seed drives the
// checkpoint probe's traffic.
const (
	quickPar      = 2
	quickMinIters = 4
	probeHosts    = 128
	probeRadix    = 16
	probeSlots    = 400
	probeLabel    = 0xC4EC
	// probeReps is how many checkpoint round trips follow each suite
	// iteration; checkpoint_ms is the median of all of them.
	probeReps = 5
)

var quickConfig = experiments.RunConfig{Quick: true, Par: quickPar}

// suiteRun is one RunMany over the whole suite.
type suiteRun struct {
	wall   time.Duration
	doneMs []float64 // per experiment: suite start to its result
	out    []byte    // rendered output, canonical order
	errs   []string
	miss   int // experiments with a MISMATCH finding
}

// runSuite runs the suite once; spans, when non-nil, records a suite
// span with one child span per experiment.
func runSuite(es []experiments.Experiment, spans *spanLog, op string) *suiteRun {
	r := &suiteRun{doneMs: make([]float64, len(es))}
	wrapped := make([]experiments.Experiment, len(es))
	suite, endSuite := spans.begin("experiments.suite", op, 0)
	start := time.Now()
	startNs := clock()
	for i, ex := range es {
		i, run := i, ex.Run
		wrapped[i] = ex
		wrapped[i].Run = func(cfg experiments.RunConfig) (*experiments.Result, error) {
			t0 := clock()
			res, err := run(cfg)
			t1 := clock()
			r.doneMs[i] = float64(t1-startNs) / float64(time.Millisecond)
			spans.add("experiment."+es[i].ID, op, suite, t0, t1)
			return res, err
		}
	}
	outs := experiments.RunMany(wrapped, quickConfig, quickPar)
	r.wall = time.Since(start)
	endSuite()
	var buf bytes.Buffer
	for _, o := range outs {
		if o.Err != nil {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", o.Experiment.ID, o.Err))
			continue
		}
		o.Result.Write(&buf)
		if !o.Result.AllMatch() {
			r.miss++
		}
	}
	r.out = buf.Bytes()
	return r
}

// probe is a small fabric session paused mid-run whose checkpoint round
// trip (Save, fabric.New, ResumeSession) each suite iteration times.
type probe struct {
	sess  *fabric.Session
	seed  uint64
	saved []byte
}

func probeEngine(seed uint64) (*fabric.Fabric, []traffic.Generator, error) {
	x, err := fabric.NewXGFT(probeHosts, probeRadix, 2)
	if err != nil {
		return nil, nil, err
	}
	f, err := fabric.New(fabric.Config{
		Network: x, Receivers: 2, LinkDelaySlots: 2, Shards: 1,
		NewScheduler: func() sched.Scheduler { return sched.NewFLPPR(probeRadix, 0) },
	})
	if err != nil {
		return nil, nil, err
	}
	gens, err := traffic.Build(traffic.Config{
		Kind: traffic.KindUniform, N: probeHosts, Load: 0.6, Seed: sim.DeriveSeed(seed, probeLabel),
	})
	return f, gens, err
}

func newProbe(seed uint64) (*probe, error) {
	f, gens, err := probeEngine(seed)
	if err != nil {
		return nil, err
	}
	sess, err := fabric.StartSession(f, gens, probeSlots/4, probeSlots*3/4)
	if err != nil {
		return nil, err
	}
	if _, err := sess.Advance(probeSlots / 2); err != nil {
		return nil, err
	}
	return &probe{sess: sess, seed: seed}, nil
}

// roundTrip saves the paused session, resumes it on a fresh fabric and
// re-saves the resumed one; both snapshots must be byte-identical.
func (p *probe) roundTrip() (time.Duration, bool, error) {
	var buf bytes.Buffer
	start := time.Now()
	if err := p.sess.Save(&buf); err != nil {
		return 0, false, err
	}
	saved := append([]byte(nil), buf.Bytes()...)
	f, gens, err := probeEngine(p.seed)
	if err != nil {
		return 0, false, err
	}
	resumed, err := fabric.ResumeSession(f, gens, &buf)
	d := time.Since(start)
	if err != nil {
		return 0, false, err
	}
	var again bytes.Buffer
	if err := resumed.Save(&again); err != nil {
		return 0, false, err
	}
	same := bytes.Equal(saved, again.Bytes()) && (p.saved == nil || bytes.Equal(saved, p.saved))
	p.saved = saved
	return d, same, nil
}

// quickPass is one timed sequence of suite iterations.
type quickPass struct {
	runs   []*suiteRun
	ckptMs []float64
	wall   time.Duration
	cpu    time.Duration
	rt     *rtWatch
	ckptOK bool
}

func (p *quickPass) throughput() float64 {
	n := 0
	for _, r := range p.runs {
		n += len(r.doneMs)
	}
	return float64(n) / p.wall.Seconds()
}

func runQuickPass(e *env, spans *spanLog, setup *setupTimer) (*quickPass, []experiments.Experiment, error) {
	var es []experiments.Experiment
	var pr *probe
	setUp := func(int) error {
		es = experiments.All()
		var err error
		pr, err = newProbe(e.seed)
		return err
	}
	if setup != nil {
		if err := setup.run(setupReps, setUp); err != nil {
			return nil, nil, err
		}
	} else if err := setUp(0); err != nil {
		return nil, nil, err
	}
	p := &quickPass{rt: newRTWatch(), ckptOK: true}
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for i := 0; i < quickMinIters || time.Now().Before(deadline); i++ {
		cpu0 := cpuNow()
		r := runSuite(es, spans, opID("suite", i))
		p.cpu += cpuNow() - cpu0
		p.wall += r.wall
		p.runs = append(p.runs, r)
		p.rt.tick()
		for rep := 0; rep < probeReps; rep++ {
			_, end := spans.begin("ckpt.probe", opID("probe", i), 0)
			d, same, err := pr.roundTrip()
			end()
			if err != nil {
				return nil, nil, err
			}
			p.ckptOK = p.ckptOK && same
			p.ckptMs = append(p.ckptMs, float64(d)/float64(time.Millisecond))
		}
	}
	p.rt.stop()
	return p, es, nil
}

// checkQuick applies the correctness gate: no errors, no MISMATCH, and
// identical output bytes on every iteration, matching the pinned hash.
func checkQuick(e *env, p *quickPass, es []experiments.Experiment, what string) (failed int) {
	for _, ex := range es {
		e.check(experimentGroup[ex.ID] != "", "%s: experiment %s has no layer group", what, ex.ID)
	}
	first := p.runs[0].out
	for i, r := range p.runs {
		for _, msg := range r.errs {
			e.check(false, "%s: iteration %d: %s", what, i, msg)
		}
		failed += len(r.errs)
		e.check(r.miss == 0, "%s: iteration %d: %d experiments with MISMATCH findings", what, i, r.miss)
		e.check(bytes.Equal(r.out, first), "%s: iteration %d output differs from iteration 0", what, i)
	}
	hash := fingerprintHash(string(first))
	e.check(hash == quickPin, "%s: output hash %s, pinned %s", what, hash, quickPin)
	e.check(p.ckptOK, "%s: checkpoint probe snapshot did not round-trip byte-identically", what)
	e.note("%s: %d iterations, output hash %s", what, len(p.runs), hash)
	return failed
}

func runQuickSuite(e *env) error {
	var setup setupTimer
	plain, es, err := runQuickPass(e, nil, &setup)
	if err != nil {
		return err
	}
	e.failed = checkQuick(e, plain, es, "quick_suite")
	e.attempted = len(plain.runs) * len(es)
	var done []float64
	for _, r := range plain.runs {
		done = append(done, r.doneMs...)
	}
	e.guardUnit("quick_suite experiment result latency", done)
	e.guardUnit("quick_suite checkpoint probe", plain.ckptMs)
	if !e.traced {
		rss, err := peakRSSMiB()
		if err != nil {
			return err
		}
		e.set("setup_s", setup.median(), "s")
		e.set("throughput_per_s", plain.throughput(), "1/s")
		e.set("latency_p50_ms", e.percentile("latency_p50_ms", done, 0.5), "ms")
		e.set("latency_p90_ms", e.percentile("latency_p90_ms", done, 0.9), "ms")
		e.set("checkpoint_ms", median(plain.ckptMs), "ms")
		e.set("peak_rss_mib", rss, "MiB")
		return nil
	}

	traced, _, err := runQuickPass(e, e.spans, nil)
	if err != nil {
		return err
	}
	e.failed += checkQuick(e, traced, es, "quick_suite traced")
	e.check(bytes.Equal(traced.runs[0].out, plain.runs[0].out), "quick_suite: traced output differs from untraced")
	e.attempted += len(traced.runs) * len(es)

	// Each experiment alone, for its own time and the group sums.
	groups := map[string]float64{}
	var longest float64
	for _, ex := range es {
		_, end := e.spans.begin("experiment.alone", ex.ID, 0)
		start := time.Now()
		out := experiments.RunMany([]experiments.Experiment{ex}, quickConfig, 1)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		end()
		e.check(out[0].Err == nil, "quick_suite: %s alone: %v", ex.ID, out[0].Err)
		e.set(experimentMetric(ex.ID), ms, "ms")
		groups[experimentGroup[ex.ID]] += ms
		longest = max(longest, ms)
	}
	var walls []float64
	for _, r := range traced.runs {
		walls = append(walls, float64(r.wall)/float64(time.Millisecond))
	}
	e.set("experiments.crossbar_ms", groups["crossbar"], "ms")
	e.set("experiments.fabric_ms", groups["fabric"], "ms")
	e.set("experiments.analytic_ms", groups["analytic"], "ms")
	e.set("experiments.critical_path_share", longest/median(walls), "ratio")
	e.set("parallel.cpu_util", float64(traced.cpu)/(float64(traced.wall)*quickPar), "ratio")
	plain.rt.report(e, len(plain.runs)*len(es))
	e.setOverhead(plain.throughput(), traced.throughput())
	return nil
}
