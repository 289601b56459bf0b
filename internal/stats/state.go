// Checkpoint codecs for the collectors. The Welford moments are restored
// word for word (hex floats), so a resumed collector continues the exact
// floating-point recurrence of its uninterrupted twin; latency samples
// are restored in insertion order, which Quantile never perturbs.
package stats

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/units"
)

// SaveState serializes the running moments.
func (r *Running) SaveState(e *ckpt.Encoder) {
	e.Line("running").Uint(r.n).Float(r.mean).Float(r.m2).Float(r.min).Float(r.max).Done()
}

// LoadState restores moments saved by SaveState, replacing r.
func (r *Running) LoadState(d *ckpt.Decoder) error {
	rec := d.Record("running")
	n, mean, m2, min, max := rec.Uint(), rec.Float(), rec.Float(), rec.Float(), rec.Float()
	if err := rec.Done(); err != nil {
		return err
	}
	r.n, r.mean, r.m2, r.min, r.max = n, mean, m2, min, max
	return nil
}

// samplesPerLine batches latency samples into one record to keep
// checkpoints compact without a per-sample line.
const samplesPerLine = 8

// maxPresized caps the sample capacity LoadState reserves before the
// records that fill it have been read.
const maxPresized = 1 << 16

// SaveState serializes the collector: moments plus every sample in
// insertion order.
func (s *LatencySample) SaveState(e *ckpt.Encoder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.Begin("latency")
	s.run.SaveState(e)
	e.Line("samples").Int(int64(len(s.samples))).Done()
	for i := 0; i < len(s.samples); i += samplesPerLine {
		end := i + samplesPerLine
		if end > len(s.samples) {
			end = len(s.samples)
		}
		l := e.Line("s")
		for _, v := range s.samples[i:end] {
			l = l.Int(int64(v))
		}
		l.Done()
	}
	e.End("latency")
}

// LoadState restores a collector saved by SaveState, replacing s.
func (s *LatencySample) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("latency"); err != nil {
		return err
	}
	var run Running
	if err := run.LoadState(d); err != nil {
		return err
	}
	r := d.Record("samples")
	n := r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("stats: checkpoint sample count %d", n)
	}
	// The count comes from the file, so reserve at most a modest batch
	// up front and grow as records arrive: a forged count then fails on
	// the first missing record instead of in one huge allocation.
	samples := make([]units.Time, 0, min(n, maxPresized))
	for len(samples) < n {
		rec := d.Record("s")
		if err := d.Err(); err != nil {
			return fmt.Errorf("stats: checkpoint samples (count %d): record after %d: %w", n, len(samples), err)
		}
		want := n - len(samples)
		if want > samplesPerLine {
			want = samplesPerLine
		}
		if rec.Len() != want {
			return fmt.Errorf("stats: checkpoint samples (count %d): batch after %d holds %d values, want %d", n, len(samples), rec.Len(), want)
		}
		for i := 0; i < want; i++ {
			samples = append(samples, units.Time(rec.Int()))
		}
		if err := rec.Done(); err != nil {
			return err
		}
	}
	if err := d.End("latency"); err != nil {
		return err
	}
	s.mu.Lock()
	s.samples = samples
	s.run = run
	s.gen++
	s.mu.Unlock()
	return nil
}
