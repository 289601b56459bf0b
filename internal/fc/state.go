// Checkpoint codec for the credit counter. The in-flight return ring is
// the part that must survive exactly: each queued return lands a
// specific number of Ticks in the future, and collapsing the ring to a
// single in-flight sum (the obvious shortcut) would land every credit at
// once on restore — the PR 7 "state on the wire that accounting forgets"
// bug class, now in serialized form. Returns are therefore written as
// (offset, count) pairs relative to the ring cursor, so the restored
// counter replays every landing on the original slot.
package fc

import (
	"fmt"

	"repro/internal/ckpt"
)

// SaveState serializes the counter: availability, fault counters, and
// the in-flight return ring as landing-offset/count pairs. Offset k
// means the credits land k+1 Tick calls from now, matching the ring's
// indexing contract.
func (c *Credits) SaveState(e *ckpt.Encoder) {
	n := len(c.returning)
	entries := 0
	for _, v := range c.returning {
		if v != 0 {
			entries++
		}
	}
	e.Line("credits").Int(int64(c.avail)).Uint(c.Shortfalls).Uint(c.Lost).
		Int(int64(n)).Int(int64(entries)).Done()
	for k := 0; k < n; k++ {
		if v := c.returning[(c.pos+k)%n]; v != 0 {
			e.Line("ret").Int(int64(k)).Int(int64(v)).Done()
		}
	}
}

// LoadState restores state saved by SaveState into c, which must have
// been constructed with the same return RTT (the ring lengths must
// match — a mismatch means the checkpoint belongs to a differently
// configured loop).
func (c *Credits) LoadState(d *ckpt.Decoder) error {
	r := d.Record("credits")
	avail, shortfalls, lost := r.Int(), r.Uint(), r.Uint()
	n, entries := r.IntAsInt(), r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if n != len(c.returning) {
		return fmt.Errorf("fc: checkpoint ring length %d, counter has %d (different loop RTT)", n, len(c.returning))
	}
	if avail < 0 {
		return fmt.Errorf("fc: checkpoint with negative avail %d", avail)
	}
	c.avail = int(avail)
	c.Shortfalls = shortfalls
	c.Lost = lost
	c.pos = 0
	for i := range c.returning {
		c.returning[i] = 0
	}
	prev := -1
	for i := 0; i < entries; i++ {
		rr := d.Record("ret")
		off, v := rr.IntAsInt(), rr.IntAsInt()
		if err := rr.Done(); err != nil {
			return err
		}
		if off <= prev || off >= n {
			return fmt.Errorf("fc: checkpoint return offset %d out of order or beyond ring %d", off, n)
		}
		if v <= 0 {
			return fmt.Errorf("fc: checkpoint return count %d at offset %d", v, off)
		}
		prev = off
		c.returning[off] = v
	}
	return nil
}
