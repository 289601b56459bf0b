package stats

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/units"
)

// TestLatencySampleCheckpointRoundTrip: a restored collector reports the
// same quantiles AND keeps accumulating identically (Welford moments and
// insertion order both survive the round trip).
func TestLatencySampleCheckpointRoundTrip(t *testing.T) {
	orig := &LatencySample{}
	for i := 0; i < 500; i++ {
		orig.Add(units.Time((i*7919)%1000 + 1))
	}
	// Force a sorted scratch so we verify the checkpoint captures
	// insertion order, not the read-side sort artifact.
	_ = orig.Median()

	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	orig.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	twin := &LatencySample{}
	twin.Add(3) // pre-existing junk must be replaced, not merged
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.LoadState(d); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	if twin.N() != orig.N() || twin.Mean() != orig.Mean() || twin.StdDev() != orig.StdDev() {
		t.Fatalf("moments diverged: n %d/%d mean %v/%v", twin.N(), orig.N(), twin.Mean(), orig.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if twin.Quantile(q) != orig.Quantile(q) {
			t.Fatalf("q%v diverged: %v vs %v", q, twin.Quantile(q), orig.Quantile(q))
		}
	}
	a := orig.SamplesAppend(nil)
	b := twin.SamplesAppend(nil)
	if len(a) != len(b) {
		t.Fatalf("sample count diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("insertion order diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Continued accumulation stays identical.
	for i := 0; i < 100; i++ {
		orig.Add(units.Time(i + 5))
		twin.Add(units.Time(i + 5))
	}
	if twin.P99() != orig.P99() || twin.StdDev() != orig.StdDev() {
		t.Fatalf("post-restore accumulation diverged: p99 %v/%v", twin.P99(), orig.P99())
	}
}

func TestRunningCheckpointRoundTrip(t *testing.T) {
	var orig Running
	for i := 0; i < 64; i++ {
		orig.Add(float64(i) * 1.5)
	}
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	orig.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	var twin Running
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.LoadState(d); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if twin != orig {
		t.Fatalf("running moments diverged: %+v vs %+v", twin, orig)
	}
}

// TestLatencySampleRejectsForgedCount: a snapshot whose sample count
// claims 2^32 samples but holds three fails on the first missing batch,
// naming the field, without first reserving room for the claimed count
// (32 GiB, a fatal out-of-memory). The checksum is re-sealed, so the
// forged count is what the codec sees.
func TestLatencySampleRejectsForgedCount(t *testing.T) {
	orig := &LatencySample{}
	for _, v := range []units.Time{5, 9, 2} {
		orig.Add(v)
	}
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	orig.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	forged := strings.Replace(buf.String(), "\nsamples 3\n", "\nsamples 4294967296\n", 1)
	if forged == buf.String() {
		t.Fatal("test setup: no samples record to forge")
	}
	forged = reseal(forged)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := ckpt.NewDecoder(strings.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	err = (&LatencySample{}).LoadState(d)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "samples") {
		t.Fatalf("forged sample count: error %v, want one naming the samples field", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("forged sample count allocated %d bytes before failing", grew)
	}
}

// reseal replaces the checksum trailer of an edited checkpoint with the
// FNV-1a hash of everything before it.
func reseal(text string) string {
	body := text[:strings.LastIndex(strings.TrimSuffix(text, "\n"), "\n")+1]
	h := fnv.New64a()
	h.Write([]byte(body))
	return body + fmt.Sprintf("checksum %016x\n", h.Sum64())
}
