package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// clock reads the monotonic clock in nanoseconds since process start.
// time.Since on a monotonic base is one runtime nanotime call, cheap
// enough to bracket every scheduler tick and generator draw.
func clock() int64 { return int64(time.Since(processStart)) }

// span is one traced interval: a call from the benchmark into a layer.
// Spans of one operation share Op; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory; write flushes them when the run ends.
// It is safe for concurrent use (the service clients share one).
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{} }

// begin opens a span and returns its ID, for children to name as their
// parent, and a function that closes it. A nil log records nothing, so
// untraced runs pay one branch.
func (l *spanLog) begin(name, op string, parent int) (id int, end func()) {
	if l == nil {
		return 0, func() {}
	}
	id = l.add(name, op, parent, clock(), 0)
	return id, func() {
		now := clock()
		l.mu.Lock()
		l.spans[id-1].End = now
		l.mu.Unlock()
	}
}

// add records a span and returns its ID.
func (l *spanLog) add(name, op string, parent int, start, end int64) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// meanMs is the mean duration of the spans called name, in ms.
func (l *spanLog) meanMs(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, s := range l.spans {
		if s.Name == name {
			sum += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(time.Millisecond)
}

// selfTime is a span's duration minus the part of it its children
// cover (overlapping children count once).
func (l *spanLog) selfTime(id int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id < 1 || id > len(l.spans) {
		return 0
	}
	p := l.spans[id-1]
	var kids [][2]int64
	for _, s := range l.spans {
		if s.Parent == id {
			kids = append(kids, [2]int64{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	var covered, reach int64
	reach = p.Start
	for _, k := range kids {
		if k[1] <= reach {
			continue
		}
		covered += k[1] - max(k[0], reach)
		reach = k[1]
	}
	return p.dur() - time.Duration(covered)
}

// write stores the spans as JSON lines, followed by one summary line
// per span name (count, total and mean self time), under dir.
func (l *spanLog) write(dir, stem string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+stem+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type summary struct {
		Name       string  `json:"summary"`
		Count      int     `json:"count"`
		TotalMs    float64 `json:"total_ms"`
		MeanSelfMs float64 `json:"mean_self_ms"`
	}
	sums := map[string]*summary{}
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return "", firstErr(err, f.Close())
		}
		sm := sums[s.Name]
		if sm == nil {
			sm = &summary{Name: s.Name}
			sums[s.Name] = sm
		}
		sm.Count++
		sm.TotalMs += float64(s.dur()) / float64(time.Millisecond)
		sm.MeanSelfMs += float64(l.selfTime(s.ID)) / float64(time.Millisecond)
	}
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sm := sums[n]
		sm.MeanSelfMs /= float64(sm.Count)
		if err := enc.Encode(sm); err != nil {
			return "", firstErr(err, f.Close())
		}
	}
	if err := w.Flush(); err != nil {
		return "", firstErr(err, f.Close())
	}
	return path, f.Close()
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- scheduler wrappers ----

// schedStats accumulates one node's scheduler calls. Each node belongs
// to exactly one shard, so its wrapper is only ever called from one
// goroutine at a time and needs no lock; the totals are read after
// Session.Advance returns, past the shards' final barrier.
type schedStats struct {
	ticks, matched, skipCalls, skipSlots uint64
	tickNs, skipNs                       int64
}

// tracedSched forwards sched.Scheduler and times TickInto. Variants
// below add SkipIdle and SaveState/LoadState forwarding exactly when the
// wrapped scheduler implements sched.IdleSkipper or sched.StateCodec,
// so the fabric sees the same optional interfaces it would unwrapped.
type tracedSched struct {
	sched.Scheduler
	st *schedStats
}

func (t *tracedSched) TickInto(slot uint64, b sched.Board, m *sched.Matching) {
	start := clock()
	t.Scheduler.TickInto(slot, b, m)
	t.st.tickNs += clock() - start
	t.st.ticks++
	for _, o := range m.Out {
		if o >= 0 {
			t.st.matched++
		}
	}
}

func (t *tracedSched) skipIdle(n uint64) {
	start := clock()
	t.Scheduler.(sched.IdleSkipper).SkipIdle(n)
	t.st.skipNs += clock() - start
	t.st.skipCalls++
	t.st.skipSlots += n
}

func (t *tracedSched) saveState(e *ckpt.Encoder) { t.Scheduler.(sched.StateCodec).SaveState(e) }
func (t *tracedSched) loadState(d *ckpt.Decoder) error {
	return t.Scheduler.(sched.StateCodec).LoadState(d)
}

type tracedSkipper struct{ *tracedSched }

func (t tracedSkipper) SkipIdle(n uint64) { t.skipIdle(n) }

type tracedSchedCodec struct{ *tracedSched }

func (t tracedSchedCodec) SaveState(e *ckpt.Encoder)       { t.saveState(e) }
func (t tracedSchedCodec) LoadState(d *ckpt.Decoder) error { return t.loadState(d) }

type tracedSkipperCodec struct{ *tracedSched }

func (t tracedSkipperCodec) SkipIdle(n uint64)               { t.skipIdle(n) }
func (t tracedSkipperCodec) SaveState(e *ckpt.Encoder)       { t.saveState(e) }
func (t tracedSkipperCodec) LoadState(d *ckpt.Decoder) error { return t.loadState(d) }

// wrapSched returns s wrapped with per-node counters st.
func wrapSched(s sched.Scheduler, st *schedStats) sched.Scheduler {
	base := &tracedSched{Scheduler: s, st: st}
	_, skip := s.(sched.IdleSkipper)
	_, codec := s.(sched.StateCodec)
	switch {
	case skip && codec:
		return tracedSkipperCodec{base}
	case skip:
		return tracedSkipper{base}
	case codec:
		return tracedSchedCodec{base}
	}
	return base
}

// schedTracer builds wrapped schedulers through fabric.Config's
// NewScheduler hook, one counter block per node.
type schedTracer struct {
	nodes []*schedStats
}

func (t *schedTracer) factory(newSched func() sched.Scheduler) func() sched.Scheduler {
	return func() sched.Scheduler {
		st := &schedStats{}
		t.nodes = append(t.nodes, st)
		return wrapSched(newSched(), st)
	}
}

// total sums the per-node counters; call it between Advance calls.
func (t *schedTracer) total() schedStats {
	var sum schedStats
	for _, n := range t.nodes {
		sum.ticks += n.ticks
		sum.matched += n.matched
		sum.skipCalls += n.skipCalls
		sum.skipSlots += n.skipSlots
		sum.tickNs += n.tickNs
		sum.skipNs += n.skipNs
	}
	return sum
}

// ---- traffic wrappers ----

// genStats accumulates one host's generator calls; a host injects from
// exactly one shard, so the same no-lock argument as schedStats holds.
type genStats struct {
	calls, arrivals uint64
	ns              int64
}

type tracedGen struct {
	traffic.Generator
	st *genStats
}

func (t *tracedGen) Next(slot uint64) (traffic.Arrival, bool) {
	start := clock()
	a, ok := t.Generator.Next(slot)
	t.st.ns += clock() - start
	t.st.calls++
	if ok {
		t.st.arrivals++
	}
	return a, ok
}

type tracedGenCodec struct{ *tracedGen }

func (t tracedGenCodec) SaveState(e *ckpt.Encoder) { t.Generator.(traffic.StateCodec).SaveState(e) }
func (t tracedGenCodec) LoadState(d *ckpt.Decoder) error {
	return t.Generator.(traffic.StateCodec).LoadState(d)
}

// wrapGens wraps every generator, forwarding traffic.StateCodec exactly
// when the wrapped generator implements it.
func wrapGens(gens []traffic.Generator) ([]traffic.Generator, []*genStats) {
	out := make([]traffic.Generator, len(gens))
	stats := make([]*genStats, len(gens))
	for i, g := range gens {
		stats[i] = &genStats{}
		base := &tracedGen{Generator: g, st: stats[i]}
		if _, ok := g.(traffic.StateCodec); ok {
			out[i] = tracedGenCodec{base}
		} else {
			out[i] = base
		}
	}
	return out, stats
}

func sumGens(stats []*genStats) genStats {
	var sum genStats
	for _, s := range stats {
		sum.calls += s.calls
		sum.arrivals += s.arrivals
		sum.ns += s.ns
	}
	return sum
}

// opID names an operation for span grouping.
func opID(kind string, n int) string { return fmt.Sprintf("%s-%d", kind, n) }
