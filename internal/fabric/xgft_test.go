package fabric

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/traffic"
)

func TestXGFTValidation(t *testing.T) {
	if _, err := NewXGFT(10, 7, 0); err == nil {
		t.Error("odd radix accepted")
	}
	if _, err := NewXGFT(0, 8, 0); err == nil {
		t.Error("zero hosts accepted")
	}
	if _, err := NewXGFT(1000, 8, 2); err == nil {
		t.Error("over-capacity explicit levels accepted")
	}
	if _, err := NewXGFT(1<<40, 4, 0); err == nil {
		t.Error("absurd host count accepted")
	}
}

// TestRouteValidation: out-of-range destinations, levels the tree does
// not have, and switches trimmed away or never built are errors.
func TestRouteValidation(t *testing.T) {
	x, _ := NewXGFT(2048, 64, 0)
	if _, err := x.Route(NodeID{Level: 0, Index: 0}, 0, 4000); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := x.Route(NodeID{Level: 7, Index: 0}, 0, 5); err == nil {
		t.Error("bogus node accepted")
	}
	if _, err := x.PortMap(NodeID{Level: 1, Index: 99}); err == nil {
		t.Error("bogus spine accepted")
	}
	partial, _ := NewXGFT(24, 8, 0)
	if _, err := partial.PortMap(NodeID{Level: 0, Index: 6}); err == nil {
		t.Error("trimmed leaf accepted")
	}
}

// TestXGFTTrimming pins the switch count of every level: full trees keep
// every switch, partly populated ones keep only the pods holding a host
// (ceil(hosts/a^(l+1)) * a^l switches below the whole top level).
func TestXGFTTrimming(t *testing.T) {
	for _, c := range []struct {
		hosts, radix int
		perLevel     []int
	}{
		{24, 8, []int{6, 4}},
		{100, 16, []int{13, 8}},
		{64, 16, []int{8, 8}},
		{40, 8, []int{10, 12, 16}},
		{300, 8, []int{75, 76, 80, 64}},
	} {
		x, err := NewXGFT(c.hosts, c.radix, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, x.Levels)
		for _, id := range x.NodeIDs() {
			if id.Index != got[id.Level] {
				t.Fatalf("%d/%d: node %v out of order", c.hosts, c.radix, id)
			}
			got[id.Level]++
		}
		if fmt.Sprint(got) != fmt.Sprint(c.perLevel) {
			t.Errorf("%d/%d: switches per level %v, want %v", c.hosts, c.radix, got, c.perLevel)
		}
	}
}

func TestTopologySizing(t *testing.T) {
	// The paper's flagship: 2048 ports from 64-port switches in a
	// two-level (three-stage) fat tree.
	x, err := NewXGFT(2048, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x.Levels != 2 || x.StageCount() != 3 {
		t.Errorf("levels %d stages %d", x.Levels, x.StageCount())
	}
	if x.switchesAt(0) != 64 || x.switchesAt(1) != 32 {
		t.Errorf("leaves %d spines %d", x.switchesAt(0), x.switchesAt(1))
	}
	if n := len(x.NodeIDs()); n != 96 {
		t.Errorf("switches %d", n)
	}
}

func TestTopologySingleSwitch(t *testing.T) {
	x, err := NewXGFT(48, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x.Levels != 1 || x.StageCount() != 1 || len(x.NodeIDs()) != 1 {
		t.Errorf("%+v", x)
	}
	if leaf, port := x.HostLeaf(17); leaf != (NodeID{}) || port != 17 {
		t.Errorf("HostLeaf(17) = %v:%d", leaf, port)
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewXGFT(100, 7, 0); err == nil {
		t.Error("odd radix accepted")
	}
	if _, err := NewXGFT(0, 8, 0); err == nil {
		t.Error("zero hosts accepted")
	}
	if _, err := NewXGFT(64*33, 64, 2); err == nil {
		t.Error("over-capacity two-level fabric accepted")
	}
}

// TestHostAddressingRoundTripProperty: HostLeaf names a leaf port that
// PortMap wires to that same host.
func TestHostAddressingRoundTripProperty(t *testing.T) {
	x, _ := NewXGFT(2048, 64, 0)
	f := func(hRaw uint16) bool {
		h := int(hRaw) % 2048
		leaf, port := x.HostLeaf(h)
		ports, err := x.PortMap(leaf)
		if err != nil || port >= x.arity() || leaf.Level != 0 || leaf.Index >= x.switchesAt(0) {
			return false
		}
		return ports[port].Kind == HostPort && ports[port].Host == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPortMapWiringIsConsistent(t *testing.T) {
	// Every inter-switch connection must be symmetric: if leaf l port p
	// claims spine s port q, then spine s port q must claim leaf l port p.
	x, _ := NewXGFT(128, 16, 0)
	for l := 0; l < x.switchesAt(0); l++ {
		id := NodeID{Level: 0, Index: l}
		ports, err := x.PortMap(id)
		if err != nil {
			t.Fatal(err)
		}
		for p, pi := range ports {
			if pi.Kind != UpPort {
				continue
			}
			peerPorts, err := x.PortMap(pi.Peer)
			if err != nil {
				t.Fatal(err)
			}
			back := peerPorts[pi.PeerPort]
			if back.Kind != DownPort || back.Peer != id || back.PeerPort != p {
				t.Fatalf("asymmetric wiring: leaf%d:%d -> %v:%d -> %v:%d",
					l, p, pi.Peer, pi.PeerPort, back.Peer, back.PeerPort)
			}
		}
	}
}

func TestPortMapHostsCoverAllHosts(t *testing.T) {
	x, err := NewXGFT(100, 16, 0) // partial last leaf
	if err != nil {
		t.Fatal(err)
	}
	checkHostsCovered(t, x)
}

func TestRouteReachesDestinationProperty(t *testing.T) {
	x, _ := NewXGFT(2048, 64, 0)
	f := func(sRaw, dRaw uint16) bool {
		src := int(sRaw) % 2048
		dst := int(dRaw) % 2048
		if src == dst {
			return true
		}
		_, ok := walkRoute(x, src, dst) // at most StageCount() = 3 hops
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestXGFTAutoLevels(t *testing.T) {
	cases := []struct {
		hosts, radix, wantLevels, wantStages int
	}{
		{48, 64, 1, 1},
		{2048, 64, 2, 3}, // OSMOSIS
		{2048, 32, 3, 5}, // high-end electronic
		{2048, 8, 5, 9},  // commodity
		{2048, 12, 4, 7}, // 12-port commodity
	}
	for _, c := range cases {
		x, err := NewXGFT(c.hosts, c.radix, 0)
		if err != nil {
			t.Fatalf("hosts %d radix %d: %v", c.hosts, c.radix, err)
		}
		if x.Levels != c.wantLevels || x.StageCount() != c.wantStages {
			t.Errorf("hosts %d radix %d: levels %d stages %d, want %d/%d",
				c.hosts, c.radix, x.Levels, x.StageCount(), c.wantLevels, c.wantStages)
		}
	}
}

func TestXGFTMatchesPlanFabricStageCounts(t *testing.T) {
	// The simulated wiring and the analytic §VI.C planner must agree.
	for _, radix := range []int{8, 12, 16, 32, 64} {
		x, err := NewXGFT(2048, radix, 0)
		if err != nil {
			t.Fatal(err)
		}
		// power.PlanFabric is not imported to avoid a cycle; its formula
		// is capacity = k*(k/2)^(L-1), identical to capacityXGFT.
		want := 2*x.Levels - 1
		if x.StageCount() != want {
			t.Errorf("radix %d: stages %d", radix, x.StageCount())
		}
	}
}

// TestXGFTWiringSymmetric checks every inter-switch link in both
// directions for several depths, full and partly populated; no port a
// peer claims may be Unused.
func TestXGFTWiringSymmetric(t *testing.T) {
	for _, c := range []struct{ hosts, radix, levels int }{
		{128, 16, 2},
		{512, 16, 3},
		{256, 8, 4},
		{512, 8, 5},
		{24, 8, 0},
		{100, 16, 0},
		{40, 8, 0},
		{300, 8, 0},
		{130, 8, 5},
	} {
		x, err := NewXGFT(c.hosts, c.radix, c.levels)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range x.NodeIDs() {
			ports, err := x.PortMap(id)
			if err != nil {
				t.Fatal(err)
			}
			for p, pi := range ports {
				if pi.Kind != UpPort && pi.Kind != DownPort {
					continue
				}
				peerPorts, err := x.PortMap(pi.Peer)
				if err != nil {
					t.Fatalf("%v port %d -> invalid peer %v: %v", id, p, pi.Peer, err)
				}
				back := peerPorts[pi.PeerPort]
				if back.Kind != UpPort && back.Kind != DownPort {
					t.Fatalf("%d/%d: %v:%d claims %v:%d, which is %v", c.hosts, c.radix, id, p, pi.Peer, pi.PeerPort, back.Kind)
				}
				if back.Peer != id || back.PeerPort != p {
					t.Fatalf("%d-level: asymmetric wiring %v:%d -> %v:%d -> %v:%d",
						c.levels, id, p, pi.Peer, pi.PeerPort, back.Peer, back.PeerPort)
				}
				if (pi.Kind == UpPort) == (back.Kind == UpPort) {
					t.Fatalf("link direction kinds inconsistent at %v:%d", id, p)
				}
			}
		}
	}
}

// TestXGFTHostsCovered: every host is wired exactly once, on the leaf
// port HostLeaf names, in full and partly populated trees.
func TestXGFTHostsCovered(t *testing.T) {
	for _, c := range []struct{ hosts, radix int }{
		{48, 64},
		{24, 8},
		{300, 8}, // four levels, partly populated
	} {
		x, err := NewXGFT(c.hosts, c.radix, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkHostsCovered(t, x)
	}
}

func checkHostsCovered(t *testing.T, x XGFT) {
	t.Helper()
	seen := make([]bool, x.Hosts)
	for _, id := range x.NodeIDs() {
		if id.Level != 0 {
			continue
		}
		ports, err := x.PortMap(id)
		if err != nil {
			t.Fatal(err)
		}
		for p, pi := range ports {
			if pi.Kind != HostPort {
				continue
			}
			if pi.Host < 0 || pi.Host >= x.Hosts || seen[pi.Host] {
				t.Fatalf("host %d invalid or duplicated", pi.Host)
			}
			seen[pi.Host] = true
			leaf, port := x.HostLeaf(pi.Host)
			if leaf != id || port != p {
				t.Fatalf("HostLeaf(%d) = %v:%d, wired at %v:%d", pi.Host, leaf, port, id, p)
			}
		}
	}
	for h, ok := range seen {
		if !ok {
			t.Fatalf("host %d not wired", h)
		}
	}
}

// TestXGFTRouteReachesDestination walks routes hop by hop through the
// wiring for deep trees and checks termination at the right host within
// the stage bound.
func TestXGFTRouteReachesDestination(t *testing.T) {
	for _, c := range []struct{ hosts, radix, levels int }{
		{512, 16, 3},
		{512, 8, 5},
		{100, 16, 0},
		{300, 8, 0},
	} {
		x, err := NewXGFT(c.hosts, c.radix, c.levels)
		if err != nil {
			t.Fatal(err)
		}
		f := func(sRaw, dRaw uint16) bool {
			src := int(sRaw) % c.hosts
			dst := int(dRaw) % c.hosts
			if src == dst {
				return true
			}
			_, ok := walkRoute(x, src, dst)
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Errorf("%d/%d: %v", c.hosts, c.radix, err)
		}
	}
}

// TestXGFTFiveStageFabricRuns simulates a full 5-stage (3-level) fabric
// — the §VI.C high-end-electronic shape — end to end: lossless, ordered,
// with 1/3/5-hop path populations.
func TestXGFTFiveStageFabricRuns(t *testing.T) {
	x, err := NewXGFT(128, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Network:        x,
		Receivers:      2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: 128, Load: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Run(gens, 0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if m.OrderViolations != 0 || m.Dropped != 0 {
		t.Errorf("5-stage: violations=%d drops=%d", m.OrderViolations, m.Dropped)
	}
	drained, err := f.Drain(200000)
	if err != nil || !drained {
		t.Fatalf("5-stage fabric failed to drain: %v", err)
	}
	if m.Delivered != m.Offered {
		t.Errorf("offered %d delivered %d", m.Offered, m.Delivered)
	}
	for h := range m.HopHistogram {
		if h != 1 && h != 3 && h != 5 {
			t.Errorf("invalid hop count %d in a 3-level fat tree", h)
		}
	}
	if m.HopHistogram[5] == 0 {
		t.Error("no 5-hop paths exercised")
	}
}

// TestXGFTDeepFabricLatencyOrdering verifies the §VI.C consequence the
// paper draws: more stages = more latency, at matched load and cables.
func TestXGFTDeepFabricLatencyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	latency := map[int]float64{}
	for _, levels := range []int{2, 3} {
		x, err := NewXGFT(128, 8, levels)
		if err != nil {
			// 128 hosts on radix-8 need >= 3 levels; skip infeasible.
			if levels == 2 {
				x, err = NewXGFT(32, 8, 2)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				t.Fatal(err)
			}
		}
		f, err := New(Config{
			Network:        x,
			Receivers:      2,
			NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
			LinkDelaySlots: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: x.Hosts, Load: 0.4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Run(gens, 500, 3000)
		if err != nil {
			t.Fatal(err)
		}
		latency[levels] = float64(m.LatencySlots.Mean())
	}
	if latency[3] <= latency[2] {
		t.Errorf("5-stage fabric (%.1f slots) should exceed 3-stage (%.1f slots)",
			latency[3], latency[2])
	}
}

// TestUpPathSpreadsFlows: a leaf spreads the flows leaving it evenly over
// its up-ports (the spines of the flagship tree).
func TestUpPathSpreadsFlows(t *testing.T) {
	x, _ := NewXGFT(2048, 64, 0)
	a := x.arity()
	counts := make([]int, a)
	for src := 0; src < 256; src++ {
		leaf, _ := x.HostLeaf(src)
		for dst := 1024; dst < 1064; dst++ {
			out, err := x.Route(leaf, src, dst)
			if err != nil || out < a {
				t.Fatalf("flow %d->%d leaves leaf %v on port %d (%v)", src, dst, leaf, out, err)
			}
			counts[out-a]++
		}
	}
	total := 256 * 40
	want := float64(total) / float64(len(counts))
	for s, c := range counts {
		if float64(c) < want*0.7 || float64(c) > want*1.3 {
			t.Errorf("spine %d carries %d flows, want ~%.0f", s, c, want)
		}
	}
}

// TestRouteStablePerFlow: order preservation needs one path per
// (src, dst); walking a flow twice, or through a second instance of the
// same tree, must give the same hops.
func TestRouteStablePerFlow(t *testing.T) {
	for _, c := range []struct{ hosts, radix int }{{2048, 64}, {300, 8}} {
		x, _ := NewXGFT(c.hosts, c.radix, 0)
		y, _ := NewXGFT(c.hosts, c.radix, 0)
		for src := 0; src < c.hosts; src += 7 {
			dst := (src*31 + 17) % c.hosts
			p, okP := walkRoute(x, src, dst)
			q, okQ := walkRoute(y, src, dst)
			if !okP || !okQ || p != q {
				t.Fatalf("%d/%d: flow %d->%d took %s, then %s", c.hosts, c.radix, src, dst, p, q)
			}
		}
	}
}

// walkRoute follows a cell src -> dst hop by hop through the wiring and
// renders the (switch, out-port) hops; ok reports that it reached dst
// within the stage bound.
func walkRoute(x XGFT, src, dst int) (path string, ok bool) {
	var hops bytes.Buffer
	node, _ := x.HostLeaf(src)
	for hop := 0; hop < x.StageCount(); hop++ {
		out, err := x.Route(node, src, dst)
		if err != nil {
			return hops.String(), false
		}
		fmt.Fprintf(&hops, "%v:%d ", node, out)
		ports, err := x.PortMap(node)
		if err != nil {
			return hops.String(), false
		}
		switch pi := ports[out]; pi.Kind {
		case HostPort:
			return hops.String(), pi.Host == dst
		case UpPort, DownPort:
			node = pi.Peer
		default:
			return hops.String(), false
		}
	}
	return hops.String(), false
}

// TestDefaultNetworkIsXGFT: Config{Hosts, Radix} builds exactly the tree
// NewXGFT(Hosts, Radix, 0) does — same fingerprint, same snapshot bytes —
// for a full and a partly populated tree.
func TestDefaultNetworkIsXGFT(t *testing.T) {
	for _, c := range []struct{ hosts, radix int }{{32, 8}, {24, 8}} {
		x, err := NewXGFT(c.hosts, c.radix, 0)
		if err != nil {
			t.Fatal(err)
		}
		tcfg := traffic.Config{Kind: traffic.KindUniform, N: c.hosts, Load: 0.7, Seed: 11}
		byDefault := Config{Hosts: c.hosts, Radix: c.radix, LinkDelaySlots: 2}
		explicit := Config{Network: x, LinkDelaySlots: 2}
		fpA, snapA := checkpointedRun(t, byDefault, tcfg, 100, 400, 150, 1)
		fpB, snapB := checkpointedRun(t, explicit, tcfg, 100, 400, 150, 1)
		if fpA != fpB {
			t.Errorf("%d/%d: fingerprints differ:\n  default:  %s\n  explicit: %s", c.hosts, c.radix, fpA, fpB)
		}
		if !bytes.Equal(snapA, snapB) {
			t.Errorf("%d/%d: snapshots differ (%d vs %d bytes)", c.hosts, c.radix, len(snapA), len(snapB))
		}
	}
}

// TestDefaultNetworkGrowsPastTwoLevels: a host count past the two-level
// capacity (32 for radix 8) builds the shallowest deeper tree.
func TestDefaultNetworkGrowsPastTwoLevels(t *testing.T) {
	f, err := New(Config{Hosts: 40, Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Network().StageCount(); got != 5 {
		t.Errorf("40 hosts on radix 8: %d stages, want 5", got)
	}
	if got := len(f.Network().NodeIDs()); got != 38 {
		t.Errorf("40 hosts on radix 8: %d switches, want 38", got)
	}
}

func TestNodeIDString(t *testing.T) {
	for _, c := range []struct {
		id   NodeID
		want string
	}{
		{NodeID{Level: 0, Index: 3}, "leaf3"},
		{NodeID{Level: 1, Index: 7}, "spine7"},
		{NodeID{Level: 2, Index: 7}, "level2.7"},
		{NodeID{Level: 4, Index: 0}, "level4.0"},
	} {
		if got := c.id.String(); got != c.want {
			t.Errorf("%#v prints %q, want %q", c.id, got, c.want)
		}
	}
	for k, want := range map[PortKind]string{HostPort: "HostPort", UpPort: "UpPort", DownPort: "DownPort", Unused: "Unused", 9: "PortKind(9)"} {
		if got := fmt.Sprint(k); got != want {
			t.Errorf("PortKind %d prints %q, want %q", uint8(k), got, want)
		}
	}
}
