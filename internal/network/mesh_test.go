package network

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"lard/internal/energy"
	"lard/internal/mem"
)

func newTestMesh(meter *energy.Meter) *Mesh { return New(4, 4, 2, meter, 5, 3) }

func TestHopsManhattan(t *testing.T) {
	m := newTestMesh(nil)
	cases := []struct {
		src, dst mem.CoreID
		want     int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 4, 1},
		{0, 5, 2},
		{0, 15, 6},
		{5, 10, 2},
		{3, 12, 6},
	}
	for _, c := range cases {
		if got := m.Hops(c.src, c.dst); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestHopsSymmetric(t *testing.T) {
	m := newTestMesh(nil)
	f := func(a, b uint8) bool {
		s, d := mem.CoreID(a%16), mem.CoreID(b%16)
		return m.Hops(s, d) == m.Hops(d, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLoadLatency(t *testing.T) {
	m := newTestMesh(nil)
	// 1 hop, 1 flit: 2 cycles; tail = head.
	if got := m.Send(0, 1, 1, 100); got != 102 {
		t.Errorf("1-hop 1-flit: arrive %d, want 102", got)
	}
	// Fresh mesh: 3 hops, 9 flits: 3*2 + 8 = 14.
	m2 := newTestMesh(nil)
	if got := m2.Send(0, 3, 9, 0); got != 14 {
		t.Errorf("3-hop 9-flit: arrive %d, want 14", got)
	}
	if got := m2.LatencyNoContention(0, 3, 9); got != 14 {
		t.Errorf("LatencyNoContention = %d, want 14", got)
	}
}

func TestLocalSendFree(t *testing.T) {
	m := newTestMesh(nil)
	if got := m.Send(5, 5, 9, 77); got != 77 {
		t.Errorf("local send must be free, got %d", got)
	}
}

func TestSendZeroFlitsPanics(t *testing.T) {
	m := newTestMesh(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Send with 0 flits must panic")
		}
	}()
	m.Send(0, 1, 0, 0)
}

// TestLinkContention: two 8-flit messages on the same link at the same time
// must serialize: the second head waits for the first message's 8 cycles.
func TestLinkContention(t *testing.T) {
	m := newTestMesh(nil)
	first := m.Send(0, 1, 8, 0)  // head at 0, link busy [0,8), arrive 2+7=9
	second := m.Send(0, 1, 8, 0) // head must wait until 8
	if first != 9 {
		t.Fatalf("first arrival = %d, want 9", first)
	}
	if second != 17 {
		t.Fatalf("second arrival = %d, want 17 (8 wait + 2 hop + 7 tail)", second)
	}
	if m.LinkWait() != 8 {
		t.Fatalf("LinkWait = %d, want 8", m.LinkWait())
	}
}

// TestDisjointPathsNoContention: messages on disjoint links do not interact.
func TestDisjointPathsNoContention(t *testing.T) {
	m := newTestMesh(nil)
	m.Send(0, 1, 8, 0)
	got := m.Send(10, 11, 8, 0)
	if got != 9 {
		t.Fatalf("disjoint send delayed: %d, want 9", got)
	}
	if m.LinkWait() != 0 {
		t.Fatalf("LinkWait = %d, want 0", m.LinkWait())
	}
}

// TestXYSeparatesDimensions: with XY routing, 0->5 goes east then south,
// using different links than 1->4's west-then-... — specifically, messages
// crossing in opposite directions never share a directed link.
func TestOppositeDirectionsIndependent(t *testing.T) {
	m := newTestMesh(nil)
	a := m.Send(0, 3, 8, 0) // east along row 0
	b := m.Send(3, 0, 8, 0) // west along row 0
	if a != b {
		t.Fatalf("opposite directions must not contend: %d vs %d", a, b)
	}
}

func TestEnergyPerFlitHop(t *testing.T) {
	var meter energy.Meter
	m := newTestMesh(&meter)
	m.Send(0, 3, 4, 0) // 3 hops x 4 flits = 12 flit-hops
	if got := meter.Count(energy.Router); got != 12 {
		t.Errorf("router events = %d, want 12", got)
	}
	if got := meter.PJ(energy.Router); got != 60 {
		t.Errorf("router pJ = %v, want 60", got)
	}
	if got := meter.PJ(energy.Link); got != 36 {
		t.Errorf("link pJ = %v, want 36", got)
	}
	if m.FlitHops() != 12 {
		t.Errorf("FlitHops = %d, want 12", m.FlitHops())
	}
}

// TestSendMonotonic: arrival is never before departure plus zero-load
// latency, and contention only adds delay.
func TestSendMonotonic(t *testing.T) {
	f := func(msgs []uint32) bool {
		m := newTestMesh(nil)
		for _, raw := range msgs {
			src := mem.CoreID(raw % 16)
			dst := mem.CoreID((raw >> 4) % 16)
			flits := int(raw>>8)%9 + 1
			depart := mem.Cycles(raw >> 16)
			got := m.Send(src, dst, flits, depart)
			if got < depart+m.LatencyNoContention(src, dst, flits) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNewPanicsOnBadDims: a mesh with no tiles, or one whose links
// overflow uint16 link ids, is refused.
func TestNewPanicsOnBadDims(t *testing.T) {
	for _, d := range [][2]int{{0, 4}, {129, 128}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d,%d) must panic", d[0], d[1])
				}
			}()
			New(d[0], d[1], 2, nil, 1, 1)
		}()
	}
}

// xyRoute is the reference X-Y walk, computed from coordinates alone: it
// crosses east or west along the source row to the destination column,
// then south or north down that column. Link ids are tile*4 + direction.
func xyRoute(w int, src, dst mem.CoreID) []uint16 {
	x, y := int(src)%w, int(src)/w
	dx, dy := int(dst)%w, int(dst)/w
	var route []uint16
	for x != dx {
		if dx > x {
			route = append(route, uint16((y*w+x)*4+dirEast))
			x++
		} else {
			route = append(route, uint16((y*w+x)*4+dirWest))
			x--
		}
	}
	for y != dy {
		if dy > y {
			route = append(route, uint16((y*w+x)*4+dirSouth))
			y++
		} else {
			route = append(route, uint16((y*w+x)*4+dirNorth))
			y--
		}
	}
	return route
}

// testGeometries are the square preset meshes plus non-square ones, whose
// row and column arithmetic the presets never reach.
var testGeometries = [][2]int{{2, 2}, {4, 4}, {8, 8}, {3, 5}, {1, 6}}

// TestRoutesMatchXY: for every ordered pair, the precomputed route is the
// reference X-Y walk, and its length is the closed-form Hops. The table
// holds exactly those routes and nothing else.
func TestRoutesMatchXY(t *testing.T) {
	for _, g := range testGeometries {
		w, h := g[0], g[1]
		t.Run(fmt.Sprintf("%dx%d", w, h), func(t *testing.T) {
			m := New(w, h, 2, nil, 1, 1)
			n := mem.CoreID(w * h)
			sum := 0
			for src := range n {
				for dst := range n {
					got, want := m.route(src, dst), xyRoute(w, src, dst)
					if !slices.Equal(got, want) {
						t.Fatalf("route %d->%d = %v, want %v", src, dst, got, want)
					}
					if len(got) != m.Hops(src, dst) {
						t.Fatalf("route %d->%d has %d links, Hops = %d", src, dst, len(got), m.Hops(src, dst))
					}
					sum += len(got)
				}
			}
			if len(m.routes) != sum || cap(m.routes) != sum {
				t.Fatalf("route table len %d cap %d, want both %d", len(m.routes), cap(m.routes), sum)
			}
		})
	}
}

// TestZeroLoadOracle: a message alone on a fresh mesh arrives exactly at
// depart + LatencyNoContention and never waits for a link, for every pair
// and for a 1-flit control and a 9-flit data message.
func TestZeroLoadOracle(t *testing.T) {
	for _, g := range testGeometries {
		w, h := g[0], g[1]
		n := mem.CoreID(w * h)
		for src := range n {
			for dst := range n {
				for _, flits := range []int{1, 9} {
					m := New(w, h, 2, nil, 1, 1)
					const depart = 1000
					got := m.Send(src, dst, flits, depart)
					if want := depart + m.LatencyNoContention(src, dst, flits); got != want || m.LinkWait() != 0 {
						t.Fatalf("%dx%d %d->%d %d flits: arrive %d (LinkWait %d), want %d (LinkWait 0)",
							w, h, src, dst, flits, got, m.LinkWait(), want)
					}
				}
			}
		}
	}
}

// TestOneSourceNeverWaits: one source sends to random destinations, each
// message departing at or after the previous tail's arrival. Every link the
// previous message held is free by then, so no message ever waits.
func TestOneSourceNeverWaits(t *testing.T) {
	for _, g := range testGeometries {
		w, h := g[0], g[1]
		m := New(w, h, 2, nil, 1, 1)
		rng := rand.New(rand.NewPCG(uint64(w), uint64(h)))
		n := w * h
		src := mem.CoreID(rng.IntN(n))
		var t0 mem.Cycles
		for i := range 2000 {
			dst := mem.CoreID(rng.IntN(n))
			flits := []int{1, 9}[rng.IntN(2)]
			depart := t0 + mem.Cycles(rng.IntN(3))
			t0 = m.Send(src, dst, flits, depart)
			if want := depart + m.LatencyNoContention(src, dst, flits); t0 != want || m.LinkWait() != 0 {
				t.Fatalf("%dx%d message %d %d->%d: arrive %d (LinkWait %d), want %d (LinkWait 0)",
					w, h, i, src, dst, t0, m.LinkWait(), want)
			}
		}
	}
}
