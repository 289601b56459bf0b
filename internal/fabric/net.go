package fabric

import "fmt"

// Net is the engine's view of a fabric's wiring. XGFT is its one
// implementation; node, shard and verification code see only this
// interface, so the wiring algorithm stays in one place. The wiring must
// be symmetric (if a port claims a peer, the peer claims it back) and
// per-flow routing deterministic (order preservation depends on it).
type Net interface {
	// SwitchRadix is the switch port count (identical switches per
	// stage, matching the paper's cost assumption).
	SwitchRadix() int
	// HostCount is the number of end ports.
	HostCount() int
	// StageCount is the switch traversals on the longest path.
	StageCount() int
	// NodeIDs lists every switch, in a fixed deterministic order.
	NodeIDs() []NodeID
	// PortMap describes the wiring of one switch's ports.
	PortMap(NodeID) ([]PortInfo, error)
	// Route reports the output port at node n for a cell src -> dst.
	Route(n NodeID, src, dst int) (int, error)
	// HostLeaf reports the switch and port a host attaches to.
	HostLeaf(host int) (NodeID, int)
}

// NodeID identifies a switch in the fabric.
type NodeID struct {
	// Level 0 = leaf, 1 = spine, higher levels up to the tree's top.
	Level int
	// Index within the level.
	Index int
}

// String formats the node for diagnostics: leafN and spineN for the two
// lowest levels, levelL.N above them so deep trees stay unambiguous.
func (n NodeID) String() string {
	switch n.Level {
	case 0:
		return fmt.Sprintf("leaf%d", n.Index)
	case 1:
		return fmt.Sprintf("spine%d", n.Index)
	}
	return fmt.Sprintf("level%d.%d", n.Level, n.Index)
}

// PortKind classifies a switch port.
type PortKind uint8

// Port kinds.
const (
	// HostPort connects an end host (leaf down-ports).
	HostPort PortKind = iota
	// UpPort connects a switch to one a level above.
	UpPort
	// DownPort connects a switch to one a level below.
	DownPort
	// Unused marks ports with no populated host or subtree behind them.
	Unused
)

// String names the kind for diagnostics.
func (k PortKind) String() string {
	switch k {
	case HostPort:
		return "HostPort"
	case UpPort:
		return "UpPort"
	case DownPort:
		return "DownPort"
	case Unused:
		return "Unused"
	}
	return fmt.Sprintf("PortKind(%d)", uint8(k))
}

// PortInfo describes one switch port's wiring.
type PortInfo struct {
	Kind PortKind
	// Peer is the switch on the far end (UpPort/DownPort only).
	Peer NodeID
	// PeerPort is the port index at the peer.
	PeerPort int
	// Host is the attached host (HostPort only).
	Host int
}
