package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// jobDef is one entry of the service workload's job catalogue. The
// catalogue is fixed, so every job's result can be pinned; the seed
// only orders the jobs each client submits.
type jobDef struct {
	name string
	spec service.JobSpec
}

func job(name string, hosts, radix, levels int, scheduler, kind string, load float64, warmup, measure uint64) jobDef {
	return jobDef{name: name, spec: service.JobSpec{
		Name:         name,
		Fabric:       service.FabricSpec{Hosts: hosts, Radix: radix, Levels: levels, Scheduler: scheduler, LinkDelaySlots: 2, Shards: 1},
		Traffic:      service.TrafficSpec{Kind: kind, Load: load, Seed: 7},
		WarmupSlots:  warmup,
		MeasureSlots: measure,
	}}
}

// jobCatalogue spans 32–128 hosts, radix 8 and 16, 3- and 5-stage
// trees (2 and 3 levels), four traffic kinds and two schedulers.
var jobCatalogue = []jobDef{
	job("u32-3s-flppr", 32, 8, 2, "flppr", "uniform", 0.7, 200, 1400),
	job("b32-5s-islip", 32, 8, 3, "islip", "bursty", 0.5, 200, 1000),
	job("m64-3s-flppr", 64, 16, 2, "flppr", "mmpp", 0.6, 200, 900),
	job("i64-5s-islip", 64, 8, 3, "islip", "incast", 0.4, 200, 600),
	job("u128-3s-islip", 128, 16, 2, "islip", "uniform", 0.6, 200, 400),
	job("b128-5s-flppr", 128, 8, 3, "flppr", "bursty", 0.4, 100, 300),
	job("m128-3s-flppr", 128, 16, 2, "flppr", "mmpp", 0.5, 200, 400),
	job("i128-3s-flppr", 128, 16, 2, "flppr", "incast", 0.4, 200, 400),
}

// ckptJob is the catalogue entry whose checkpoint the restores upload.
const ckptJob = 4

// Service workload shape.
const (
	svcClients = 2
	// svcRestoreEvery makes every k-th operation of a client a restore.
	svcRestoreEvery = 5
	// Checkpoint capture: a separate daemon pauses stepDelay after each
	// ckptChunk-slot chunk, so the checkpoint request lands in the pause
	// after the first chunk and is taken at slot ckptChunk.
	ckptChunk     = 64
	ckptStepDelay = 150 * time.Millisecond
	// svcSetupReps is larger than setupReps: a set-up (spec encoding,
	// NewServer, a loopback listener) takes well under a millisecond,
	// so its median needs many repetitions to hold still.
	svcSetupReps = 51
	svcSeedLabel = 0x5E41
)

// svcOp is one client operation: a job submission or a restore, then
// its stream and result.
type svcOp struct {
	def        int // catalogue index; ckptJob for restores
	restore    bool
	id         string
	turnaround time.Duration
	end        int64 // clock() when the stream ended
	spanID     int   // the stream span, parent of the engine span
	body       []byte
	err        error
}

// httpClient is one closed-loop client with its own connection.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *httpClient) close() { c.c.CloseIdleConnections() }

// do performs one request and returns the full body, failing on any
// status other than want.
func (c *httpClient) do(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
	Slot  uint64 `json:"slot"`
}

// stream follows a job's NDJSON progress stream to its terminal line.
func (c *httpClient) stream(id string) (jobStatus, error) {
	var last jobStatus
	resp, err := c.c.Get(c.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return last, err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return last, firstErr(err, resp.Body.Close())
		}
	}
	if err := firstErr(sc.Err(), resp.Body.Close()); err != nil {
		return last, err
	}
	if last.State != "done" {
		return last, fmt.Errorf("job %s ended %q: %s", id, last.State, last.Error)
	}
	return last, nil
}

// runOp performs one operation end to end. Its HTTP calls are spans
// under one job span; the stream span later gets the engine span.
func (c *httpClient) runOp(op *svcOp, specs [][]byte, ckpt []byte, spans *spanLog, opName string) {
	start := clock()
	job, endJob := spans.begin("service.job", opName, 0)
	defer endJob()
	var status []byte
	if op.restore {
		_, end := spans.begin("http.restore", opName, job)
		status, op.err = c.do("POST", "/v1/restore", ckpt, http.StatusAccepted)
		end()
	} else {
		_, end := spans.begin("http.submit", opName, job)
		status, op.err = c.do("POST", "/v1/jobs", specs[op.def], http.StatusAccepted)
		end()
	}
	if op.err != nil {
		return
	}
	var st jobStatus
	if op.err = json.Unmarshal(status, &st); op.err != nil {
		return
	}
	op.id = st.ID
	var end func()
	op.spanID, end = spans.begin("http.stream", opName, job)
	_, op.err = c.stream(op.id)
	end()
	op.end = clock()
	if op.err != nil {
		return
	}
	_, end = spans.begin("http.result", opName, job)
	op.body, op.err = c.do("GET", "/v1/jobs/"+op.id+"/result", nil, http.StatusOK)
	end()
	op.turnaround = time.Duration(clock() - start)
}

// svcRig is one in-process osmosisd on loopback HTTP plus the encoded
// catalogue specs.
type svcRig struct {
	srv   *service.Server
	ts    *httptest.Server
	specs [][]byte
}

func (r *svcRig) close() {
	r.ts.Close()
	r.srv.Close()
}

// newSvcRig encodes the catalogue and starts the daemon.
func newSvcRig() (*svcRig, error) {
	specs, err := encodeSpecs()
	if err != nil {
		return nil, err
	}
	r := &svcRig{specs: specs}
	r.srv = service.NewServer(service.Options{Workers: svcClients})
	r.ts = httptest.NewServer(r.srv.Handler())
	return r, nil
}

func encodeSpecs() ([][]byte, error) {
	var specs [][]byte
	for _, d := range jobCatalogue {
		b, err := json.Marshal(d.spec)
		if err != nil {
			return nil, err
		}
		specs = append(specs, b)
	}
	return specs, nil
}

var errMissedPause = errors.New("checkpoint capture missed the pause after the first chunk")

// captureWithRetry captures the checkpoint the restores upload: the
// catalogue's ckptJob at slot ckptChunk, on a separate, paced daemon.
// Its content depends only on the spec and the slot, so one capture
// serves every pass of the run. It is not part of set-up: most of its
// time is the pacing delay. A capture that misses the pause (the host
// stalled for longer than ckptStepDelay) lands at a later slot; it is
// retried, not used.
func captureWithRetry() (ckpt []byte, err error) {
	specs, err := encodeSpecs()
	if err != nil {
		return nil, err
	}
	for try := 0; try < 3; try++ {
		if ckpt, err = captureCheckpoint(specs[ckptJob]); !errors.Is(err, errMissedPause) {
			break
		}
	}
	return ckpt, err
}

func captureCheckpoint(spec []byte) ([]byte, error) {
	srv := service.NewServer(service.Options{Workers: 1, ChunkSlots: ckptChunk, StepDelay: ckptStepDelay})
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()
	c := newHTTPClient(ts.URL)
	defer c.close()
	status, err := c.do("POST", "/v1/jobs", spec, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	var st jobStatus
	if err := json.Unmarshal(status, &st); err != nil {
		return nil, err
	}
	for st.Slot < ckptChunk {
		time.Sleep(time.Millisecond)
		status, err := c.do("GET", "/v1/jobs/"+st.ID, nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(status, &st); err != nil {
			return nil, err
		}
		if st.State != "running" && st.State != "queued" {
			return nil, fmt.Errorf("checkpoint capture: job %s is %s", st.ID, st.State)
		}
	}
	if st.Slot != ckptChunk {
		return nil, fmt.Errorf("%w: job at slot %d", errMissedPause, st.Slot)
	}
	ckpt, err := c.do("POST", "/v1/jobs/"+st.ID+"/checkpoint", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	_, err = c.do("POST", "/v1/jobs/"+st.ID+"/cancel", nil, http.StatusOK)
	return ckpt, err
}

// svcPass is one timed drive of the daemon.
type svcPass struct {
	ops     []*svcOp
	elapsed time.Duration
	engine  map[string]float64 // job ID -> engine seconds, from /metrics
	rt      *rtWatch
	ckpt    []byte
}

// clientPlan is client c's seeded operation sequence: whole shuffled
// passes over the catalogue, with every svcRestoreEvery-th operation a
// restore.
func clientPlan(seed uint64, c, n int) []svcOp {
	rng := sim.NewRNG(sim.DeriveSeed(seed, svcSeedLabel+uint64(c)))
	var plan []svcOp
	var deck []int
	for len(plan) < n {
		if (len(plan)+1)%svcRestoreEvery == 0 {
			plan = append(plan, svcOp{def: ckptJob, restore: true})
			continue
		}
		if len(deck) == 0 {
			deck = rng.Perm(len(jobCatalogue))
		}
		plan = append(plan, svcOp{def: deck[0]})
		deck = deck[1:]
	}
	return plan
}

// runSvcPass drives the daemon with the closed-loop clients for the
// run's seconds; restores upload ckpt, captured after set-up when nil.
// setup, when non-nil, times the set-up repetitions.
func runSvcPass(e *env, ckpt []byte, spans *spanLog, setup *setupTimer) (*svcPass, error) {
	// Earlier repetitions' daemons are closed after the timed set-ups,
	// so their shutdown is not timed as set-up.
	var rigs []*svcRig
	defer func() {
		for _, r := range rigs {
			r.close()
		}
	}()
	setUp := func(int) error {
		r, err := newSvcRig()
		if err == nil {
			rigs = append(rigs, r)
		}
		return err
	}
	if setup != nil {
		if err := setup.run(svcSetupReps, setUp); err != nil {
			return nil, err
		}
	} else if err := setUp(0); err != nil {
		return nil, err
	}
	for _, r := range rigs[:len(rigs)-1] {
		r.close()
	}
	rig := rigs[len(rigs)-1]
	rigs = rigs[len(rigs)-1:]
	if ckpt == nil {
		var err error
		if ckpt, err = captureWithRetry(); err != nil {
			return nil, err
		}
	}

	p := &svcPass{rt: newRTWatch(), ckpt: ckpt}
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newHTTPClient(rig.ts.URL)
			defer hc.close()
			plan := clientPlan(e.seed, c, 4096)
			for i := 0; time.Now().Before(deadline) && i < len(plan); i++ {
				op := &plan[i]
				hc.runOp(op, rig.specs, ckpt, spans, fmt.Sprintf("c%d-%d", c, i))
				mu.Lock()
				p.ops = append(p.ops, op)
				p.rt.tick()
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.rt.stop()

	hc := newHTTPClient(rig.ts.URL)
	defer hc.close()
	page, err := hc.do("GET", "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	p.engine, err = engineSeconds(page, p.ops)
	return p, err
}

// engineSeconds derives each job's engine time from the /metrics page:
// runSeconds = slots advanced by this engine / its slots per second.
func engineSeconds(page []byte, ops []*svcOp) (map[string]float64, error) {
	sps := map[string]float64{}
	for _, line := range strings.Split(string(page), "\n") {
		rest, ok := strings.CutPrefix(line, `osmosisd_job_slots_per_second{job="`)
		if !ok {
			continue
		}
		id, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, err
		}
		sps[id] = v
	}
	out := map[string]float64{}
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		r, ok := sps[op.id]
		if !ok || r <= 0 {
			return nil, fmt.Errorf("metrics: no slots_per_second for job %s", op.id)
		}
		out[op.id] = float64(opSlots(op)) / r
	}
	return out, nil
}

// opSlots is the number of timeline slots the op's engine advanced.
func opSlots(op *svcOp) uint64 {
	s := jobCatalogue[op.def].spec
	n := s.WarmupSlots + s.MeasureSlots
	if op.restore {
		n -= ckptChunk
	}
	return n
}

type jobResult struct {
	Fingerprint     string `json:"fingerprint"`
	OrderViolations uint64 `json:"order_violations"`
	Dropped         uint64 `json:"dropped"`
}

// checkSvc applies the correctness gate: every job done, every result
// matching its spec's pinned fingerprint, and every restored result
// byte-identical to an uninterrupted run of the same spec.
func checkSvc(e *env, p *svcPass, what string) (done, failed int) {
	var twin []byte
	for _, op := range p.ops {
		if op.err == nil && !op.restore && op.def == ckptJob {
			twin = op.body
			break
		}
	}
	e.check(twin != nil, "%s: no uninterrupted run of %s to compare restores against", what, jobCatalogue[ckptJob].name)
	for _, op := range p.ops {
		if op.err != nil {
			failed++
			e.check(false, "%s: %s: %v", what, jobCatalogue[op.def].name, op.err)
			continue
		}
		done++
		var r jobResult
		if err := json.Unmarshal(op.body, &r); err != nil {
			e.check(false, "%s: job %s result: %v", what, op.id, err)
			continue
		}
		name := jobCatalogue[op.def].name
		e.check(r.Dropped == 0 && r.OrderViolations == 0, "%s: job %s (%s) dropped %d, %d order violations",
			what, op.id, name, r.Dropped, r.OrderViolations)
		want := servicePins[name]
		e.check(fingerprintHash(r.Fingerprint) == want, "%s: job %s (%s) fingerprint hash %s, pinned %s",
			what, op.id, name, fingerprintHash(r.Fingerprint), want)
		if op.restore && twin != nil {
			e.check(bytes.Equal(op.body, twin), "%s: restored job %s result differs from its uninterrupted twin", what, op.id)
		}
	}
	return done, failed
}

func (p *svcPass) turnaroundMs() []float64 {
	var ms []float64
	for _, op := range p.ops {
		if op.err == nil {
			ms = append(ms, float64(op.turnaround)/float64(time.Millisecond))
		}
	}
	return ms
}

// restoreMs is the turnaround of each restore: checkpoint upload to the
// restored job's result.
func (p *svcPass) restoreMs() []float64 {
	var ms []float64
	for _, op := range p.ops {
		if op.err == nil && op.restore {
			ms = append(ms, float64(op.turnaround)/float64(time.Millisecond))
		}
	}
	return ms
}

func (p *svcPass) throughput(done int) float64 { return float64(done) / p.elapsed.Seconds() }

func runServiceMix(e *env) error {
	var setup setupTimer
	plain, err := runSvcPass(e, nil, nil, &setup)
	if err != nil {
		return err
	}
	done, failed := checkSvc(e, plain, "service")
	e.attempted, e.failed = len(plain.ops), failed
	turn := plain.turnaroundMs()
	restores := plain.restoreMs()
	e.guardUnit("service job turnaround", turn)
	e.guardUnit("service restore turnaround", restores)
	e.note("service: %d jobs (%d restores) in %.2f s", done, len(restores), plain.elapsed.Seconds())
	if !e.traced {
		rss, err := peakRSSMiB()
		if err != nil {
			return err
		}
		e.set("setup_s", setup.median(), "s")
		e.set("throughput_per_s", plain.throughput(done), "1/s")
		e.set("latency_p50_ms", e.percentile("latency_p50_ms", turn, 0.5), "ms")
		e.set("latency_p90_ms", e.percentile("latency_p90_ms", turn, 0.9), "ms")
		e.set("checkpoint_ms", median(restores), "ms")
		e.set("peak_rss_mib", rss, "MiB")
		return nil
	}

	traced, err := runSvcPass(e, plain.ckpt, e.spans, nil)
	if err != nil {
		return err
	}
	tdone, tfailed := checkSvc(e, traced, "service traced")
	e.attempted += len(traced.ops)
	e.failed += tfailed

	var engineMs, waitMs, engineSec float64
	var slots uint64
	for _, op := range traced.ops {
		if op.err != nil {
			continue
		}
		sec := traced.engine[op.id]
		engineSec += sec
		slots += opSlots(op)
		e.spans.add("engine", op.id, op.spanID, op.end-int64(sec*1e9), op.end)
		engineMs += sec * 1e3
		waitMs += float64(op.turnaround)/float64(time.Millisecond) - sec*1e3
	}
	n := float64(max(tdone, 1))
	e.set("service.restore_ms", e.spans.meanMs("http.restore"), "ms")
	e.set("service.submit_ms", e.spans.meanMs("http.submit"), "ms")
	e.set("service.result_ms", e.spans.meanMs("http.result"), "ms")
	e.set("service.engine_ms", engineMs/n, "ms")
	e.set("service.wait_ms", waitMs/n, "ms")
	e.set("service.engine_ns_per_slot", engineSec*1e9/float64(max(slots, 1)), "ns")
	e.set("service.jobs_total", float64(tdone+tfailed), "count")
	e.set("service.jobs_failed", float64(tfailed), "count")
	e.set("ckpt.bytes", float64(len(traced.ckpt)), "B")
	plain.rt.report(e, len(plain.ops))
	e.setOverhead(plain.throughput(done), traced.throughput(tdone))
	return nil
}
