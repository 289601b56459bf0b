package packet

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestAllocatorIDsAndSeqs(t *testing.T) {
	a := NewAllocator(6)
	c1 := a.New(0, 5, Data, 0)
	c2 := a.New(0, 5, Data, 10)
	c3 := a.New(0, 5, Control, 20)
	c4 := a.New(1, 5, Data, 30)
	if c1.ID == c2.ID || c2.ID == c3.ID {
		t.Error("IDs not unique")
	}
	if c1.Seq != 0 || c2.Seq != 1 {
		t.Errorf("same-flow seqs %d,%d", c1.Seq, c2.Seq)
	}
	if c3.Seq != 0 {
		t.Errorf("control class must have its own seq space, got %d", c3.Seq)
	}
	if c4.Seq != 0 {
		t.Errorf("different source must have its own seq space, got %d", c4.Seq)
	}
	if a.Issued() != 4 {
		t.Errorf("issued %d", a.Issued())
	}
}

func TestCellLatency(t *testing.T) {
	c := &Cell{Created: 100, Delivered: 350}
	if c.Latency() != 250 {
		t.Errorf("latency %v", c.Latency())
	}
}

func TestOrderCheckerInOrder(t *testing.T) {
	a := NewAllocator(6)
	o := NewOrderChecker(6)
	for i := 0; i < 100; i++ {
		if !o.Deliver(a.New(1, 2, Data, 0)) {
			t.Fatalf("in-order delivery %d flagged", i)
		}
	}
	if o.Violations() != 0 || o.Delivered() != 100 {
		t.Errorf("violations %d delivered %d", o.Violations(), o.Delivered())
	}
}

func TestOrderCheckerCatchesSwap(t *testing.T) {
	o := NewOrderChecker(6)
	c0 := &Cell{Src: 1, Dst: 2, Seq: 0}
	c1 := &Cell{Src: 1, Dst: 2, Seq: 1}
	o.Deliver(c1)
	if o.Deliver(c0) {
		t.Error("late cell not flagged")
	}
	if o.Violations() != 1 {
		t.Errorf("violations %d", o.Violations())
	}
}

func TestOrderCheckerFlowsIndependent(t *testing.T) {
	o := NewOrderChecker(6)
	// Interleaved flows, each in order.
	for i := 0; i < 10; i++ {
		if !o.Deliver(&Cell{Src: 1, Dst: 2, Seq: uint64(i)}) {
			t.Fatal("flow A flagged")
		}
		if !o.Deliver(&Cell{Src: 2, Dst: 1, Seq: uint64(i)}) {
			t.Fatal("flow B flagged")
		}
		if !o.Deliver(&Cell{Src: 1, Dst: 2, Class: Control, Seq: uint64(i)}) {
			t.Fatal("control flow flagged")
		}
	}
	if o.Violations() != 0 {
		t.Errorf("violations %d", o.Violations())
	}
}

func TestOrderCheckerGapTolerated(t *testing.T) {
	o := NewOrderChecker(6)
	o.Deliver(&Cell{Src: 1, Dst: 2, Seq: 0})
	if !o.Deliver(&Cell{Src: 1, Dst: 2, Seq: 5}) {
		t.Error("forward gap should not be a violation")
	}
	if o.Deliver(&Cell{Src: 1, Dst: 2, Seq: 3}) {
		t.Error("cell behind the high-water mark must be flagged")
	}
}

func TestOrderCheckerMonotoneProperty(t *testing.T) {
	f := func(seqsRaw []uint8) bool {
		o := NewOrderChecker(6)
		high := int64(-1)
		for _, s := range seqsRaw {
			c := &Cell{Src: 3, Dst: 4, Seq: uint64(s)}
			ok := o.Deliver(c)
			if int64(s) <= high && ok {
				return false // should have been flagged
			}
			if int64(s) > high {
				if !ok {
					return false // wrongly flagged
				}
				high = int64(s)
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOSMOSISFormatTiming(t *testing.T) {
	f := OSMOSISFormat()
	if got := f.CycleTime(); got != 51200*units.Picosecond {
		t.Errorf("cycle time %v, want 51.2ns", got)
	}
}

func TestEffectiveUserBandwidthNear75(t *testing.T) {
	// Table 1 requires >= 75%; §VI.C reports OSMOSIS "close to 75%".
	f := OSMOSISFormat()
	got := f.EffectiveUserBandwidthFraction()
	if got < 0.72 || got > 0.85 {
		t.Errorf("effective user bandwidth %.3f, want near 0.75", got)
	}
	abs := f.EffectiveUserBandwidth()
	if math.Abs(float64(abs)-got*float64(f.LineRate)) > 1 {
		t.Errorf("absolute effective bandwidth inconsistent: %v", abs)
	}
}

func TestUserBytesMonotoneInGuardTime(t *testing.T) {
	f := OSMOSISFormat()
	prev := math.Inf(1)
	for g := units.Time(0); g <= 20*units.Nanosecond; g += units.Nanosecond {
		f.GuardTime = g
		ub := f.UserBytes()
		if ub > prev {
			t.Fatalf("user bytes grew with guard time at %v", g)
		}
		prev = ub
	}
}

func TestUserBytesDegenerate(t *testing.T) {
	f := OSMOSISFormat()
	f.GuardTime = f.CycleTime() * 2 // guard exceeds the slot
	if got := f.UserBytes(); got != 0 {
		t.Errorf("degenerate format should carry 0 user bytes, got %v", got)
	}
	var zero Format
	if got := zero.UserBytes(); got != 0 {
		t.Errorf("zero format should carry 0, got %v", got)
	}
}

func TestClassString(t *testing.T) {
	if Data.String() != "data" || Control.String() != "control" {
		t.Error("class names wrong")
	}
}
