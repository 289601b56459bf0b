package link

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestMarshalCellRoundTripProperty(t *testing.T) {
	f := func(id, seq uint64, src, dst uint16, cls bool, payloadLen uint16, created int64) bool {
		c := &packet.Cell{
			ID:      id,
			Src:     int(src),
			Dst:     int(dst),
			Seq:     seq,
			Created: units.Time(created) & (1<<62 - 1),
		}
		if cls {
			c.Class = packet.Control
		}
		n := int(payloadLen) % (cellPayloadBytes + 1)
		if n > 0 {
			c.Payload = make([]byte, n)
			for i := range c.Payload {
				c.Payload[i] = byte(i * 3)
			}
		}
		buf, err := MarshalCell(c)
		if err != nil {
			return false
		}
		back, err := UnmarshalCell(buf)
		if err != nil {
			return false
		}
		return back.ID == c.ID && back.Src == c.Src && back.Dst == c.Dst &&
			back.Class == c.Class && back.Seq == c.Seq && back.Created == c.Created &&
			bytes.Equal(back.Payload, c.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMarshalCellRejectsOversize(t *testing.T) {
	c := &packet.Cell{Payload: make([]byte, cellPayloadBytes+1)}
	if _, err := MarshalCell(c); err == nil {
		t.Error("oversize payload accepted")
	}
	if _, err := UnmarshalCell(make([]byte, 10)); err == nil {
		t.Error("short frame accepted")
	}
}

// TestCellTransportOverNoisyHop carries a stream of sequenced cells
// across a high-BER hop and verifies lossless in-order delivery with
// intact payloads — the §IV.C inter-stage link contract.
func TestCellTransportOverNoisyHop(t *testing.T) {
	k := sim.New()
	fwd := NewChannel(250*units.Nanosecond, units.OSMOSISPortRate, 2e-4, 1)
	rev := NewChannel(250*units.Nanosecond, units.OSMOSISPortRate, 2e-4, 2)
	tr := NewCellTransport(k, fwd, rev, Codec{Interleave: 5}, 16, 3*units.Microsecond)

	order := packet.NewOrderChecker(16)
	var got []*packet.Cell
	tr.Deliver = func(c *packet.Cell) {
		got = append(got, c)
		order.Deliver(c)
	}

	alloc := packet.NewAllocator(16)
	rng := sim.NewRNG(7)
	const cells = 400
	want := make([]*packet.Cell, 0, cells)
	for i := 0; i < cells; i++ {
		c := alloc.New(3, 9, packet.Data, units.Time(i)*51200)
		c.Payload = make([]byte, cellPayloadBytes)
		for j := range c.Payload {
			c.Payload[j] = byte(rng.Uint64())
		}
		want = append(want, c)
		if err := tr.Send(c); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(units.Second)
	if !tr.Done() {
		t.Fatal("transport did not drain")
	}
	if len(got) != cells {
		t.Fatalf("delivered %d of %d cells", len(got), cells)
	}
	if order.Violations() != 0 {
		t.Errorf("order violations: %d", order.Violations())
	}
	for i, c := range got {
		if c.ID != want[i].ID || !bytes.Equal(c.Payload, want[i].Payload) {
			t.Fatalf("cell %d corrupted in transport", i)
		}
	}
	_, retx, dropped := tr.Stats()
	if retx == 0 && dropped == 0 {
		t.Error("BER too low to exercise the repair path")
	}
	t.Logf("cells %d, retransmitted frames %d, FEC-dropped %d", cells, retx, dropped)
}
