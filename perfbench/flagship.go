package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The flagship machine: the paper's 2048-port fabric of radix-64
// switches in a 3-stage fat tree, FLPPR arbitration, dual receivers,
// 5-slot cables, two shards. Uniform Bernoulli traffic at load 0.6 is
// below saturation, so VOQs stay shallow and host time per slot does
// not depend on how long the run is.
const (
	flagHosts     = 2048
	flagRadix     = 64
	flagLinkDelay = 5
	flagShards    = 2
	flagLoad      = 0.6
	flagWarmup    = 120
	// flagCkptSlot is the barrier of the checkpoint round trip: the end
	// of warm-up. The snapshot grows with the flows the run has touched
	// (about 70 bytes each), so a fixed barrier keeps its cost, and the
	// process's peak memory, independent of --seconds.
	flagCkptSlot = flagWarmup
	// flagCkptReps repeats Save and ResumeSession; checkpoint_ms sums
	// their medians.
	flagCkptReps = 3
	// flagChunk is the Session.Advance budget of one timed unit: four
	// lookahead windows, about 100 ms of host time, so one unit spans
	// many OS time slices and usually part of a GC cycle.
	flagChunk = 24
	// flagSlotsPerSecond sizes the timeline from --seconds. It is a
	// constant, not a measured rate, so the same arguments always
	// simulate the same slots and the fingerprint can be pinned.
	flagSlotsPerSecond = 216
	flagSeedLabel      = 0xF1A6
)

// flagshipSlots is the session timeline for a run of the given length,
// a whole number of chunks and at least twice the warm-up.
func flagshipSlots(seconds float64) uint64 {
	chunks := uint64(seconds*flagSlotsPerSecond/flagChunk + 0.5)
	return max(chunks, 2*flagWarmup/flagChunk) * flagChunk
}

func flagshipConfig(newSched func() sched.Scheduler) fabric.Config {
	return fabric.Config{
		Hosts: flagHosts, Radix: flagRadix, Receivers: 2,
		NewScheduler:   newSched,
		LinkDelaySlots: flagLinkDelay,
		Shards:         flagShards,
	}
}

func flagshipGens(seed uint64) ([]traffic.Generator, error) {
	return traffic.Build(traffic.Config{
		Kind: traffic.KindUniform, N: flagHosts, Load: flagLoad,
		Seed: sim.DeriveSeed(seed, flagSeedLabel),
	})
}

// flagPass is one drive of the flagship timeline.
type flagPass struct {
	slots     uint64    // timed slots (the whole timeline)
	chunkMs   []float64 // wall time of each timed Advance chunk
	advance   time.Duration
	cpu       time.Duration // process CPU inside Advance (traced only)
	saveMs    []float64     // each Save repetition
	newMs     []float64     // every fabric.New of the pass
	resumeMs  []float64     // each ResumeSession repetition
	ckptBytes int
	// saveDiffers reports Save repetitions that wrote different bytes.
	saveDiffers bool
	metrics     *fabric.Metrics
	twin        string // uninterrupted twin's fingerprint, if run
	rt          *rtWatch
	sched       schedStats
	gens        genStats
	nodes       int
}

func (p *flagPass) throughput() float64 { return float64(p.slots) / p.advance.Seconds() }

// checkpointMs is the checkpoint round trip, Save plus fabric.New plus
// ResumeSession, each the median of its repetitions.
func (p *flagPass) checkpointMs() float64 {
	return median(p.saveMs) + median(p.newMs[len(p.newMs)-flagCkptReps:]) + median(p.resumeMs)
}

// flagRig builds flagship fabrics and generator sets, wrapped for
// tracing when the pass is traced.
type flagRig struct {
	seed   uint64
	spans  *spanLog
	tracer *schedTracer
	gens   []*genStats
	pass   *flagPass
	root   int // the pass span, parent of every other span of the pass
}

func (r *flagRig) build() (*fabric.Fabric, []traffic.Generator, error) {
	gens, err := flagshipGens(r.seed)
	if err != nil {
		return nil, nil, err
	}
	newSched := func() sched.Scheduler { return sched.NewFLPPR(flagRadix, 0) }
	if r.tracer != nil {
		newSched = r.tracer.factory(newSched)
		var st []*genStats
		gens, st = wrapGens(gens)
		r.gens = append(r.gens, st...)
	}
	_, end := r.spans.begin("fabric.new", "flagship", r.root)
	start := time.Now()
	f, err := fabric.New(flagshipConfig(newSched))
	r.pass.newMs = append(r.pass.newMs, msSince(start))
	end()
	if err != nil {
		return nil, nil, err
	}
	r.pass.nodes = len(f.Network().NodeIDs())
	return f, gens, nil
}

// runFlagshipPass drives the timeline: timed chunks to the checkpoint
// barrier, Save, fabric.New and ResumeSession on a fresh fabric, timed
// chunks to the end on the resumed session. With twin set, the saved
// session first finishes untimed, giving the uninterrupted twin's
// fingerprint. setup, when non-nil, times the set-up repetitions.
func runFlagshipPass(e *env, traced, twin bool, setup *setupTimer) (*flagPass, error) {
	slots := flagshipSlots(e.seconds)
	p := &flagPass{slots: slots}
	rig := &flagRig{seed: e.seed, pass: p}
	if traced {
		rig.spans = e.spans
		rig.tracer = &schedTracer{}
		var endPass func()
		rig.root, endPass = rig.spans.begin("flagship.pass", "flagship", 0)
		defer endPass()
	}
	var sess *fabric.Session
	setUp := func(int) error {
		f, gens, err := rig.build()
		if err != nil {
			return err
		}
		sess, err = fabric.StartSession(f, gens, flagWarmup, slots-flagWarmup)
		return err
	}
	if setup != nil {
		// Drop the previous repetition's fabric before the next is built,
		// so two 2048-port fabrics never coexist and peak RSS counts one.
		setup.reset = func() {
			sess = nil
			runtime.GC()
		}
		if err := setup.run(setupReps, setUp); err != nil {
			return nil, err
		}
	} else if err := setUp(0); err != nil {
		return nil, err
	}
	runtime.GC()
	p.rt = newRTWatch()

	advance := func(s *fabric.Session, to uint64, timed bool) error {
		for s.Slot() < to {
			op := opID("chunk", len(p.chunkMs))
			_, end := rig.spans.begin("fabric.advance", op, rig.root)
			cpu0 := time.Duration(0)
			if traced {
				cpu0 = cpuNow()
			}
			start := time.Now()
			_, err := s.Advance(flagChunk)
			d := time.Since(start)
			if traced {
				p.cpu += cpuNow() - cpu0
			}
			end()
			if err != nil {
				return err
			}
			if timed {
				p.chunkMs = append(p.chunkMs, float64(d)/float64(time.Millisecond))
				p.advance += d
				p.rt.tick()
			}
		}
		return nil
	}
	if err := advance(sess, flagCkptSlot, true); err != nil {
		return nil, err
	}

	// Save is a pure read of the paused state, so every repetition must
	// write the same bytes.
	var saved []byte
	for rep := 0; rep < flagCkptReps; rep++ {
		var buf bytes.Buffer
		_, end := rig.spans.begin("ckpt.save", opID("checkpoint", rep), rig.root)
		start := time.Now()
		err := sess.Save(&buf)
		p.saveMs = append(p.saveMs, msSince(start))
		end()
		if err != nil {
			return nil, err
		}
		if saved == nil {
			saved = buf.Bytes()
		} else if !bytes.Equal(saved, buf.Bytes()) {
			p.saveDiffers = true
		}
	}
	p.ckptBytes = len(saved)
	if twin {
		if err := advance(sess, slots, false); err != nil {
			return nil, err
		}
		p.twin = sess.Metrics().Fingerprint()
	}

	for rep := 0; rep < flagCkptReps; rep++ {
		sess = nil
		runtime.GC()
		f, gens, err := rig.build()
		if err != nil {
			return nil, err
		}
		_, end := rig.spans.begin("ckpt.resume", opID("checkpoint", rep), rig.root)
		start := time.Now()
		sess, err = fabric.ResumeSession(f, gens, bytes.NewReader(saved))
		p.resumeMs = append(p.resumeMs, msSince(start))
		end()
		if err != nil {
			return nil, err
		}
	}
	if err := advance(sess, slots, true); err != nil {
		return nil, err
	}
	if !sess.Done() {
		return nil, fmt.Errorf("flagship: session not done at slot %d", sess.Slot())
	}
	p.rt.stop()
	p.metrics = sess.Metrics()
	if rig.tracer != nil {
		p.sched = rig.tracer.total()
		p.gens = sumGens(rig.gens)
	}
	return p, nil
}

// fingerprintHash condenses a fingerprint for pinning.
func fingerprintHash(fp string) string {
	h := fnv.New64a()
	h.Write([]byte(fp))
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkFlagship applies the correctness gate to a finished pass.
func checkFlagship(e *env, p *flagPass, what string) {
	m := p.metrics
	fp := m.Fingerprint()
	e.check(m.Dropped == 0, "%s: %d cells dropped", what, m.Dropped)
	e.check(m.OrderViolations == 0, "%s: %d order violations", what, m.OrderViolations)
	e.check(m.Delivered > 0, "%s: no cells delivered", what)
	e.check(!p.saveDiffers, "%s: repeated Save of one paused session wrote different bytes", what)
	if p.twin != "" {
		e.check(fp == p.twin, "%s: resumed fingerprint differs from the uninterrupted twin:\n  resumed %s\n  twin    %s", what, fp, p.twin)
	}
	if want, ok := flagshipPins[p.slots]; ok && e.seed == defaultSeed {
		e.check(fingerprintHash(fp) == want, "%s: fingerprint hash %s, pinned %s (%d slots, seed %d)",
			what, fingerprintHash(fp), want, p.slots, e.seed)
	}
	e.note("%s fingerprint %s (%d slots): %s", what, fingerprintHash(fp), p.slots, fp)
}

// drift is the chunk p50 of the last quarter of the run over that of
// the first quarter: 1 when the operating point is stationary.
func drift(chunkMs []float64) float64 {
	q := len(chunkMs) / 4
	if q == 0 {
		return 1
	}
	return median(chunkMs[len(chunkMs)-q:]) / median(chunkMs[:q])
}

func runFlagship(e *env) error {
	var setup setupTimer
	plain, err := runFlagshipPass(e, false, !e.traced, &setup)
	if err != nil {
		return err
	}
	checkFlagship(e, plain, "flagship")
	e.attempted = len(plain.chunkMs) + 2*flagCkptReps
	e.guardUnit("flagship Advance chunk", plain.chunkMs)
	e.note("flagship checkpoint at slot %d: save %.4g ms, resume %.4g ms (medians of %d), %d bytes",
		flagCkptSlot, median(plain.saveMs), median(plain.resumeMs), flagCkptReps, plain.ckptBytes)
	e.note("fabric.drift %.4f (chunk p50, last quarter over first)", drift(plain.chunkMs))
	if !e.traced {
		rss, err := peakRSSMiB()
		if err != nil {
			return err
		}
		e.set("setup_s", setup.median(), "s")
		e.set("throughput_per_s", plain.throughput(), "1/s")
		e.set("latency_p50_ms", e.percentile("latency_p50_ms", plain.chunkMs, 0.5), "ms")
		e.set("latency_p90_ms", e.percentile("latency_p90_ms", plain.chunkMs, 0.9), "ms")
		e.set("checkpoint_ms", plain.checkpointMs(), "ms")
		e.set("peak_rss_mib", rss, "MiB")
		return nil
	}

	traced, err := runFlagshipPass(e, true, false, nil)
	if err != nil {
		return err
	}
	checkFlagship(e, traced, "flagship traced")
	e.check(traced.metrics.Fingerprint() == plain.metrics.Fingerprint(), "flagship: traced fingerprint differs from untraced")
	e.attempted += len(traced.chunkMs) + 2*flagCkptReps

	slots := float64(traced.slots)
	m := traced.metrics
	childNs := float64(traced.sched.tickNs + traced.sched.skipNs + traced.gens.ns)
	e.set("fabric.new_ms", median(traced.newMs), "ms")
	e.set("fabric.advance_ns_per_slot", float64(traced.advance)/slots, "ns")
	e.set("fabric.self_cpu_ns_per_slot", (float64(traced.cpu)-childNs)/slots, "ns")
	e.set("fabric.cpu_util", float64(traced.cpu)/(float64(traced.advance)*flagShards), "ratio")
	e.set("fabric.cells_per_slot", float64(m.Delivered)/float64(m.MeasureSlots), "cells")
	e.set("fabric.fc_blocked", float64(m.FCBlocked), "count")
	e.set("fabric.max_voq_depth", float64(m.MaxVOQDepth), "cells")
	e.set("fabric.drift", drift(plain.chunkMs), "ratio")
	e.set("sched.tick_calls", float64(traced.sched.ticks), "count")
	e.set("sched.tick_ns", float64(traced.sched.tickNs)/float64(max(traced.sched.ticks, 1)), "ns")
	e.set("sched.tick_cpu_share", float64(traced.sched.tickNs)/float64(traced.cpu), "ratio")
	e.set("sched.skip_slot_share", float64(traced.sched.skipSlots)/(slots*float64(traced.nodes)), "ratio")
	e.set("sched.matched_per_tick", float64(traced.sched.matched)/float64(max(traced.sched.ticks, 1)), "count")
	e.set("traffic.next_calls", float64(traced.gens.calls), "count")
	e.set("traffic.arrivals", float64(traced.gens.arrivals), "count")
	e.set("traffic.next_ns", float64(traced.gens.ns)/float64(max(traced.gens.calls, 1)), "ns")
	e.set("ckpt.save_ms", median(traced.saveMs), "ms")
	e.set("ckpt.resume_ms", median(traced.resumeMs), "ms")
	e.set("ckpt.bytes", float64(traced.ckptBytes), "B")
	plain.rt.report(e, len(plain.chunkMs))
	e.setOverhead(plain.throughput(), traced.throughput())
	return nil
}
