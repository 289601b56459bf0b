package packet

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/units"
)

// TestAllocatorCheckpointIdentityContinues: a restored allocator hands
// out exactly the IDs and per-flow sequence numbers the uninterrupted
// one would, regardless of its free list (which is deliberately not
// serialized).
func TestAllocatorCheckpointIdentityContinues(t *testing.T) {
	orig := NewAllocators(5, 1)[0]
	var retired []*Cell
	for i := 0; i < 50; i++ {
		c := orig.New(i%4, (i+1)%4, Class(i%2), units.Time(i))
		if i%3 == 0 {
			retired = append(retired, c)
		}
	}
	for _, c := range retired {
		orig.Free(c)
	}

	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	SaveAllocators(e, []*Allocator{orig})
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	twin := NewAllocators(5, 1)[0]
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadAllocators(d, []*Allocator{twin}); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if twin.Issued() != orig.Issued() {
		t.Fatalf("issued %d, want %d", twin.Issued(), orig.Issued())
	}
	for i := 0; i < 40; i++ {
		a := orig.New(i%5, (i+2)%5, Class(i%2), units.Time(i))
		b := twin.New(i%5, (i+2)%5, Class(i%2), units.Time(i))
		if a.ID != b.ID || a.Seq != b.Seq {
			t.Fatalf("identity diverged at %d: id %d/%d seq %d/%d", i, a.ID, b.ID, a.Seq, b.Seq)
		}
	}
}

func TestOrderCheckerCheckpointRoundTrip(t *testing.T) {
	alloc := NewAllocator(3)
	orig := NewOrderChecker(3)
	var cells []*Cell
	for i := 0; i < 60; i++ {
		cells = append(cells, alloc.New(i%3, (i+1)%3, Class(i%2), units.Time(i)))
	}
	// Deliver most in order, two out of order (violations), leave a gap.
	for i, c := range cells {
		if i == 10 || i == 25 {
			continue
		}
		orig.Deliver(c)
	}
	orig.Deliver(cells[10]) // late: violation
	if orig.Violations() == 0 {
		t.Fatal("test setup: expected at least one violation")
	}

	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	orig.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	twin := NewOrderChecker(3)
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
	if twin.Delivered() != orig.Delivered() || twin.Violations() != orig.Violations() {
		t.Fatalf("counters diverged: %d/%d vs %d/%d",
			twin.Delivered(), twin.Violations(), orig.Delivered(), orig.Violations())
	}
	// The other late cell must be judged identically by both.
	a, b := orig.Deliver(cells[25]), twin.Deliver(cells[25])
	if a != b || orig.Violations() != twin.Violations() {
		t.Fatalf("post-restore judgement diverged: %v/%v violations %d/%d",
			a, b, orig.Violations(), twin.Violations())
	}
}

func TestCellCodecRoundTripAndPayloadRejection(t *testing.T) {
	c := &Cell{ID: 7, Src: 1, Dst: 2, Class: Control, Seq: 9,
		Created: 100, Injected: 110, Delivered: 0, Hops: 3, Retransmits: 1}
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	e.Begin("cells")
	SaveCell(e, c)
	e.End("cells")
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Begin("cells"); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCell(d)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("cell diverged: %+v vs %+v", got, c)
	}

	// Payload-carrying cells poison the encode.
	var buf2 strings.Builder
	e2 := ckpt.NewEncoder(&buf2)
	SaveCell(e2, &Cell{ID: 1, Payload: []byte{1}})
	if e2.Close() == nil {
		t.Fatal("payload cell accepted by checkpoint codec")
	}
}
