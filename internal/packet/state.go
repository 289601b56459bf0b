// Checkpoint codecs for the packet layer: cells in flight, the shared
// allocator's identity counters, and the order checker's per-flow
// bookkeeping. Everything a restored run needs to keep handing out the
// same IDs and sequence numbers — and to keep judging delivery order the
// same way — as its uninterrupted twin.
package packet

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/units"
)

// SaveCell writes one cell as a "cell" record. Cells carrying payload
// bytes are not checkpointable (performance simulations leave Payload
// nil); encountering one poisons the encode.
func SaveCell(e *ckpt.Encoder, c *Cell) {
	if c.Payload != nil {
		e.Fail(fmt.Errorf("packet: cell %d carries %d payload bytes; payload cells are not checkpointable", c.ID, len(c.Payload)))
		return
	}
	e.Line("cell").Uint(c.ID).Int(int64(c.Src)).Int(int64(c.Dst)).
		Uint(uint64(c.Class)).Uint(c.Seq).
		Int(int64(c.Created)).Int(int64(c.Injected)).Int(int64(c.Delivered)).
		Int(int64(c.Hops)).Int(int64(c.Retransmits)).Done()
}

// LoadCell reads one "cell" record written by SaveCell into a fresh cell.
func LoadCell(d *ckpt.Decoder) (*Cell, error) {
	r := d.Record("cell")
	c := &Cell{
		ID:  r.Uint(),
		Src: r.IntAsInt(), Dst: r.IntAsInt(),
		Class:   Class(r.Uint()),
		Seq:     r.Uint(),
		Created: units.Time(r.Int()), Injected: units.Time(r.Int()), Delivered: units.Time(r.Int()),
		Hops: r.IntAsInt(), Retransmits: r.IntAsInt(),
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if c.Class > Control {
		return nil, fmt.Errorf("packet: cell %d class %d out of range", c.ID, c.Class)
	}
	return c, nil
}

// saveFlows writes every nonzero flow of a table as one record per
// flow, in (src, dst, class) order — flowTable.each iterates in exactly
// that order, so the encoding is byte-deterministic with no sort. sub
// is subtracted from each value before writing (the order checker keeps
// lastSeq+1 in memory but lastSeq on disk).
func saveFlows(e *ckpt.Encoder, name string, t *flowTable, sub uint64) {
	t.each(func(src, dst int, class Class, v uint64) {
		e.Line(name).Int(int64(src)).Int(int64(dst)).Uint(uint64(class)).Uint(v - sub).Done()
	})
}

// readFlow reads one per-flow record written by saveFlows, returning a
// validated pointer into t's value cell for that flow plus the stored
// value. The caller checks *p for duplicates (live flows are nonzero).
func readFlow(d *ckpt.Decoder, name string, t *flowTable) (p *uint64, v uint64, err error) {
	fr := d.Record(name)
	src, dst, class := fr.IntAsInt(), fr.IntAsInt(), Class(fr.Uint())
	v = fr.Uint()
	if err := fr.Done(); err != nil {
		return nil, 0, err
	}
	if class > Control {
		return nil, 0, fmt.Errorf("packet: %s flow class %d out of range", name, class)
	}
	// A row is allocated at full width on first touch, so bound both
	// indices by the table's port count before trusting them.
	if ports := t.width / 2; src < 0 || dst < 0 || src >= ports || dst >= ports {
		return nil, 0, fmt.Errorf("packet: %s flow %d->%d outside the %d host ports", name, src, dst, ports)
	}
	return t.slot(src, dst, class), v, nil
}

// SaveAllocators serializes the identity state of the allocators one
// NewAllocators call built — the fabric engine's coordinator and shard
// allocators — as one logical allocator: the largest ID counter among
// them and every flow's next sequence number from their shared table.
// Each flow's row is advanced only by the allocator serving its source,
// so the same traffic leaves the same table at any shard count. The
// free lists are deliberately not serialized — recycling affects only
// which memory backs a cell, never its identity, so a restored
// allocator that heap-allocates produces the same run.
func SaveAllocators(e *ckpt.Encoder, allocs []*Allocator) {
	var nextID uint64
	for _, a := range allocs {
		nextID = max(nextID, a.nextID)
	}
	e.Line("alloc").Uint(nextID).Uint(allocs[0].seq.count()).Done()
	saveFlows(e, "flow", allocs[0].seq, 0)
}

// LoadAllocators restores a SaveAllocators snapshot, replacing the
// state of the allocators one NewAllocators call built. The flows are
// decoded straight into their shared table, and every allocator gets
// the saved ID counter, so its freshly issued IDs never collide with
// IDs handed to cells still in flight. IDs themselves are diagnostic —
// per-flow sequence numbers, which the order checker consumes, are the
// identity that must continue bit-exactly.
func LoadAllocators(d *ckpt.Decoder, allocs []*Allocator) error {
	r := d.Record("alloc")
	nextID, n := r.Uint(), r.Uint()
	if err := r.Done(); err != nil {
		return err
	}
	seq := allocs[0].seq
	*seq = newFlowTable(seq.width / 2)
	for i := uint64(0); i < n; i++ {
		p, v, err := readFlow(d, "flow", seq)
		if err != nil {
			return err
		}
		if *p != 0 {
			return fmt.Errorf("packet: alloc flow record %d duplicated", i)
		}
		if v == 0 {
			return fmt.Errorf("packet: alloc flow record %d has zero sequence count", i)
		}
		*p = v
	}
	for _, a := range allocs {
		a.nextID = nextID
		a.free = a.free[:0]
	}
	return nil
}

// SaveState serializes the order checker: totals plus the last sequence
// number seen per flow. The record carries the actual last sequence
// number (the in-memory lastSeq+1 encoding is undone), so the byte
// format is independent of the checker's internal representation.
func (o *OrderChecker) SaveState(e *ckpt.Encoder) {
	e.Line("order").Uint(o.delivered).Uint(o.violations).Uint(o.last.count()).Done()
	saveFlows(e, "oflow", &o.last, 1)
}

// LoadState restores the order checker, replacing current state. The
// checker must have been built for the saved run's port count.
func (o *OrderChecker) LoadState(d *ckpt.Decoder) error {
	r := d.Record("order")
	delivered, violations, n := r.Uint(), r.Uint(), r.Uint()
	if err := r.Done(); err != nil {
		return err
	}
	last := newFlowTable(o.last.width / 2)
	for i := uint64(0); i < n; i++ {
		p, v, err := readFlow(d, "oflow", &last)
		if err != nil {
			return err
		}
		if *p != 0 {
			return fmt.Errorf("packet: order flow record %d duplicated", i)
		}
		*p = v + 1
	}
	o.delivered = delivered
	o.violations = violations
	o.last = last
	return nil
}
