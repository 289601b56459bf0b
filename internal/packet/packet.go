// Package packet models the fixed-size cells the OSMOSIS fabric
// switches. The demonstrator uses 256-byte cells (including guard time)
// on a 51.2 ns cycle at 40 Gb/s; the paper's requirements also cover
// 64-byte minimum packets at 12 GByte/s ports.
//
// Cells carry the bimodal traffic the paper assumes: short control
// packets needing minimum latency and long data packets needing
// sustained utilization. Priority selection throughout the fabric is
// strict: control before data.
package packet

import (
	"fmt"

	"repro/internal/units"
)

// Class distinguishes the two modes of the paper's bimodal traffic.
type Class uint8

const (
	// Data packets require high utilization.
	Data Class = iota
	// Control packets require minimum latency and strict priority.
	Control
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Data:
		return "data"
	case Control:
		return "control"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Cell is one fixed-size fabric packet.
//
// Cells are passed by pointer through the simulation; each cell is
// allocated once at its source adapter and annotated as it traverses
// stages so end-to-end latency and hop counts can be recovered exactly.
type Cell struct {
	// ID is unique per simulation run (assigned by the allocator).
	ID uint64
	// Src and Dst are fabric-level (machine) port indices.
	Src, Dst int
	// Class is the traffic mode; Control has strict priority.
	Class Class
	// Seq is the per (Src, Dst, Class) flow sequence number, used to
	// verify the Table-1 in-order delivery requirement.
	Seq uint64
	// Created is the arrival time at the source ingress adapter.
	Created units.Time
	// Injected is when the first bit entered the first crossbar's VOQ.
	Injected units.Time
	// Delivered is set by the egress adapter at final delivery.
	Delivered units.Time
	// Hops counts crossbar traversals (stages crossed).
	Hops int
	// Retransmits counts link-level retransmissions the cell suffered.
	Retransmits int
	// Payload is optional user data, used by the FEC/link-layer paths;
	// performance simulations leave it nil.
	Payload []byte
}

// Latency reports the end-to-end delay, valid once Delivered is set.
func (c *Cell) Latency() units.Time { return c.Delivered - c.Created }

// String formats the cell identity for diagnostics.
func (c *Cell) String() string {
	return fmt.Sprintf("cell{id=%d %d->%d %v seq=%d}", c.ID, c.Src, c.Dst, c.Class, c.Seq)
}

// Allocator hands out cells with unique IDs and per-flow sequence
// numbers.
//
// Retired cells can be handed back with Free; New then recycles them
// instead of heap-allocating, so a steady-state simulation loop whose
// cells all retire (the crossbar engine frees at delivery and at drop)
// allocates no cells after warm-up. Identity assignment (ID, Seq) is
// identical whether a cell is fresh or recycled.
type Allocator struct {
	nextID uint64
	// seq may be shared with other allocators (NewAllocators); each
	// source's row is then advanced only by the allocator serving that
	// source.
	seq  *flowTable
	free []*Cell
}

// flowTable stores one uint64 per (src, dst, class) flow in dense
// per-source rows indexed dst*2+class. At the loads where flow state is
// hot, most (src, dst) pairs are live, so a dense table beats a hash
// map: one predictable indexed load per access — no key mixing, no
// probe chain, and no incremental-rehash pauses once millions of flows
// exist. A value of 0 means the flow has never been touched; both users
// encode live flows as values >= 1.
//
// The table is built for a known port count: its outer slice has one
// entry per source port, and each row is allocated once, at full width,
// on first touch. Nothing grows during a run, so distinct rows can be
// written concurrently.
//
// Rows index by dst*2+class, so class must be Data or Control — which
// Class is by construction everywhere cells are made.
type flowTable struct {
	rows  [][]uint64
	width int // row length: 2 per port
}

// newFlowTable returns an empty table for ports host ports.
func newFlowTable(ports int) flowTable {
	return flowTable{rows: make([][]uint64, ports), width: 2 * ports}
}

// slot returns the value cell for a flow, allocating its source's row
// on first touch.
//
//osmosis:shardsafe
func (t *flowTable) slot(src, dst int, class Class) *uint64 {
	row := t.rows[src]
	if row == nil {
		//lint:ignore hotpath a row is allocated once per source port, at full width, on first touch
		row = make([]uint64, t.width)
		t.rows[src] = row
	}
	return &row[dst*2+int(class)]
}

// each calls fn for every flow with a nonzero value, in (src, dst,
// class) order — the iteration the checkpoint codecs rely on for
// byte-deterministic serialization.
func (t *flowTable) each(fn func(src, dst int, class Class, v uint64)) {
	for src, row := range t.rows {
		for i, v := range row {
			if v != 0 {
				fn(src, i/2, Class(i%2), v)
			}
		}
	}
}

// count reports the number of nonzero flows.
func (t *flowTable) count() uint64 {
	var n uint64
	for _, row := range t.rows {
		for _, v := range row {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

// NewAllocator returns an empty allocator for a run over ports host
// ports, with a sequence table of its own.
func NewAllocator(ports int) *Allocator {
	return NewAllocators(ports, 1)[0]
}

// NewAllocators returns n allocators for a run over ports host ports.
// Each keeps its own ID counter and free list, and all of them share
// one sequence table. The caller must serve every source from a single
// allocator at a time: the table's rows for different sources can then
// be advanced concurrently.
func NewAllocators(ports, n int) []*Allocator {
	seq := newFlowTable(ports)
	allocs := make([]*Allocator, n)
	for i := range allocs {
		allocs[i] = &Allocator{seq: &seq}
	}
	return allocs
}

// New creates a cell for the given flow, stamping ID, Seq and Created.
// It reuses a freed cell when one is available.
//
//osmosis:shardsafe
func (a *Allocator) New(src, dst int, class Class, now units.Time) *Cell {
	p := a.seq.slot(src, dst, class)
	seq := *p
	*p = seq + 1
	a.nextID++
	var c *Cell
	if n := len(a.free); n > 0 {
		c = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		*c = Cell{}
	} else {
		c = &Cell{}
	}
	c.ID = a.nextID
	c.Src = src
	c.Dst = dst
	c.Class = class
	c.Seq = seq
	c.Created = now
	return c
}

// Free returns a retired cell to the allocator for reuse. The caller
// must not keep any reference to it: the next New may hand the same
// memory out as a different cell. Freeing nil is a no-op.
//
//osmosis:shardsafe
func (a *Allocator) Free(c *Cell) {
	if c == nil {
		return
	}
	//lint:ignore hotpath append into the retained free list; bounded by peak cells in flight, cap-stable after warm-up
	a.free = append(a.free, c)
}

// Issued reports how many cells have been allocated.
func (a *Allocator) Issued() uint64 { return a.nextID }

// OrderChecker verifies the Table-1 requirement that packet order is
// maintained between every input/output pair (per class). It records
// the last sequence number delivered per flow and counts violations.
type OrderChecker struct {
	// last holds lastSeq+1 per flow (0 means the flow has never
	// delivered), folding the seen-flag into the same cell so the hot
	// Deliver path does one table access per cell.
	last       flowTable
	violations uint64
	delivered  uint64
}

// NewOrderChecker returns an empty checker for a run over ports host
// ports.
func NewOrderChecker(ports int) *OrderChecker {
	return &OrderChecker{last: newFlowTable(ports)}
}

// Deliver records a delivery; it returns false if the cell arrived out
// of order with respect to its flow. A sequence gap is not a violation
// by itself (the missing cell may still be in flight and would then
// arrive late, which is caught as a non-increasing sequence); delivery
// must only be strictly increasing per flow.
func (o *OrderChecker) Deliver(c *Cell) bool {
	p := o.last.slot(c.Src, c.Dst, c.Class)
	o.delivered++
	if v := *p; v != 0 && c.Seq < v {
		o.violations++
		return false
	}
	*p = c.Seq + 1
	return true
}

// Violations reports how many deliveries broke per-flow order.
func (o *OrderChecker) Violations() uint64 { return o.violations }

// Delivered reports the total deliveries checked.
func (o *OrderChecker) Delivered() uint64 { return o.delivered }

// Format describes the fixed cell format of a fabric configuration and
// the resulting timing, following §V of the paper: the 256-byte OSMOSIS
// cell includes the guard time, giving a 51.2 ns packet cycle at 40 Gb/s.
type Format struct {
	// CellBytes is the on-the-wire cell size including guard equivalent.
	CellBytes int
	// HeaderBytes is consumed by addressing/sequence/CRC fields.
	HeaderBytes int
	// GuardTime is the per-cell dead time (SOA switching + burst-mode
	// receiver phase acquisition + arrival jitter).
	GuardTime units.Time
	// LineRate is the raw serial rate of one port.
	LineRate units.Bandwidth
	// FECOverhead is the fraction of coded bits that are redundancy
	// (6.25% for the paper's (272,256) code).
	FECOverhead float64
}

// OSMOSISFormat is the demonstrator cell format from §V.
func OSMOSISFormat() Format {
	return Format{
		CellBytes:   256,
		HeaderBytes: 8,
		// 5 ns SOA switching (§II) plus burst-mode receiver phase
		// re-acquisition and packet-arrival jitter (§IV.C); the total
		// guard budget yields the paper's "close to 75%" effective
		// user bandwidth.
		GuardTime:   8 * units.Nanosecond,
		LineRate:    units.OSMOSISPortRate,
		FECOverhead: 16.0 / 256.0, // (272,256): 16 check bits per 256
	}
}

// CycleTime reports the full per-cell slot duration (transmission of
// CellBytes at LineRate; the guard time is carved out of the slot, as in
// the demonstrator where 256 B at 40 Gb/s defines the 51.2 ns cycle).
func (f Format) CycleTime() units.Time {
	return units.TransmissionTime(f.CellBytes, f.LineRate)
}

// UserBytes reports the bytes per cell left for user payload after the
// guard time, header, and FEC overhead are paid.
func (f Format) UserBytes() float64 {
	cycle := f.CycleTime()
	if cycle <= 0 {
		return 0
	}
	usable := float64(cycle-f.GuardTime) / float64(cycle) * float64(f.CellBytes)
	usable -= float64(f.HeaderBytes)
	usable *= 1 - f.FECOverhead
	if usable < 0 {
		return 0
	}
	return usable
}

// EffectiveUserBandwidthFraction reports the Table-1 "effective user
// bandwidth" metric: user payload bits divided by raw line-rate bits.
func (f Format) EffectiveUserBandwidthFraction() float64 {
	return f.UserBytes() / float64(f.CellBytes)
}

// EffectiveUserBandwidth reports the absolute user bandwidth of a port.
func (f Format) EffectiveUserBandwidth() units.Bandwidth {
	return units.Bandwidth(float64(f.LineRate) * f.EffectiveUserBandwidthFraction())
}
