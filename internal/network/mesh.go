// Package network models the on-chip interconnect of Table 1: an electrical
// 2-D mesh with X-Y dimension-ordered routing, a fixed 2-cycle per-hop
// latency (1 router + 1 link), 64-bit flits, and per-link serialization that
// produces contention delays when messages overlap on a link. Energy is
// accounted per flit per traversed router and link.
//
// A route depends only on its (src, dst) pair, so New lays out the X-Y
// route of every ordered pair once, as a run of directed link ids in one
// flat table, and Send walks that run. Contention is applied in traverse,
// the one per-link reservation step, which Send calls once per link in
// route order.
package network

import (
	"fmt"
	"math"

	"lard/internal/energy"
	"lard/internal/mem"
)

// Mesh is the 2-D mesh interconnect. It is not safe for concurrent use; the
// simulator is single-threaded by design (deterministic event order).
type Mesh struct {
	w, n       int // mesh width and tile count
	hopLatency mem.Cycles

	// routes holds the X-Y route of every ordered (src, dst) pair as the
	// directed link ids it crosses, in crossing order; the route of pair
	// p = src*n+dst is routes[routeOff[p]:routeOff[p+1]].
	routes   []uint16
	routeOff []int32

	// linkFree[l] is the first cycle at which directed link l is idle.
	linkFree []mem.Cycles

	meter  *energy.Meter
	router float64 // pJ per flit per router
	link   float64 // pJ per flit per link

	flits    uint64     // total flit-hops, for stats
	linkWait mem.Cycles // cumulative head-flit wait due to link contention
}

// LinkWait returns the cumulative cycles head flits spent waiting for busy
// links (a contention diagnostic).
func (m *Mesh) LinkWait() mem.Cycles { return m.linkWait }

// New returns a mesh of w x h tiles. meter may be nil to disable energy
// accounting.
func New(w, h int, hopLatency mem.Cycles, meter *energy.Meter, routerPJ, linkPJ float64) *Mesh {
	if w <= 0 || h <= 0 {
		panic("network: mesh dimensions must be positive")
	}
	// The route table holds sum(Manhattan distance) link ids over all
	// ordered pairs: each ordered pair of columns, |x1-x2| summed to
	// (w³-w)/3, recurs for each of the h² (y1, y2) choices, and likewise
	// for rows.
	total := h*h*(w*w*w-w)/3 + w*w*(h*h*h-h)/3
	if w*h*4 > math.MaxUint16+1 || total > math.MaxInt32 {
		panic(fmt.Sprintf("network: a %dx%d mesh is too large for uint16 link ids and int32 route offsets", w, h))
	}
	m := &Mesh{
		w: w, n: w * h,
		hopLatency: hopLatency,
		routes:     make([]uint16, 0, total),
		routeOff:   make([]int32, w*h*w*h+1),
		// Four directed links per tile is an over-allocation (edge tiles
		// have fewer) but keeps link indexing trivial.
		linkFree: make([]mem.Cycles, w*h*4),
		meter:    meter,
		router:   routerPJ,
		link:     linkPJ,
	}
	for src := range m.n {
		for dst := range m.n {
			m.routeOff[src*m.n+dst] = int32(len(m.routes))
			m.routes = m.appendXY(m.routes, mem.CoreID(src), mem.CoreID(dst))
		}
	}
	m.routeOff[m.n*m.n] = int32(len(m.routes))
	return m
}

// Directions for link indexing.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

func (m *Mesh) coord(c mem.CoreID) (x, y int) { return int(c) % m.w, int(c) / m.w }

func (m *Mesh) linkID(x, y, dir int) uint16 { return uint16((y*m.w+x)*4 + dir) }

// appendXY appends the directed links of the X-Y route from src to dst:
// fully resolve X, then Y.
func (m *Mesh) appendXY(route []uint16, src, dst mem.CoreID) []uint16 {
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	for x != dx {
		dir, nx := dirEast, x+1
		if dx < x {
			dir, nx = dirWest, x-1
		}
		route = append(route, m.linkID(x, y, dir))
		x = nx
	}
	for y != dy {
		dir, ny := dirSouth, y+1
		if dy < y {
			dir, ny = dirNorth, y-1
		}
		route = append(route, m.linkID(x, y, dir))
		y = ny
	}
	return route
}

// route returns the directed links from src to dst in crossing order.
func (m *Mesh) route(src, dst mem.CoreID) []uint16 {
	p := int(src)*m.n + int(dst)
	return m.routes[m.routeOff[p]:m.routeOff[p+1]]
}

// Hops returns the Manhattan distance between src and dst.
func (m *Mesh) Hops(src, dst mem.CoreID) int {
	sx, sy := m.coord(src)
	dx, dy := m.coord(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// LatencyNoContention returns the zero-load latency of a message of the given
// flit count from src to dst: hops*hopLatency plus (flits-1) serialization
// cycles. src == dst costs nothing (the local slice is accessed directly).
func (m *Mesh) LatencyNoContention(src, dst mem.CoreID, flits int) mem.Cycles {
	if src == dst {
		return 0
	}
	return mem.Cycles(m.Hops(src, dst))*m.hopLatency + mem.Cycles(flits-1)
}

// Send routes a message of the given flit count from src to dst departing at
// depart, reserving every traversed link for flits cycles (wormhole
// serialization) and accumulating router/link energy. It returns the arrival
// cycle of the tail flit at dst. src == dst returns depart unchanged.
func (m *Mesh) Send(src, dst mem.CoreID, flits int, depart mem.Cycles) mem.Cycles {
	if src == dst {
		return depart
	}
	if flits <= 0 {
		panic("network: message must have at least one flit")
	}
	route := m.route(src, dst)
	t := depart
	for _, l := range route {
		t = m.traverse(int(l), t, flits)
	}
	hops := len(route)
	// Wormhole pipelining: the head flit advances hop by hop (accumulated in
	// t); the tail flit arrives flits-1 cycles after the head.
	t += mem.Cycles(flits - 1)
	if m.meter != nil {
		// Each hop traverses one router and one link; the ejection port at
		// the destination router is folded into the last hop.
		m.meter.AddN(energy.Router, m.router, flits*hops)
		m.meter.AddN(energy.Link, m.link, flits*hops)
	}
	m.flits += uint64(flits * hops)
	return t
}

// traverse reserves link l for the whole message (flits cycles of
// occupancy, which is what creates contention for later messages) starting
// no earlier than the head-flit arrival t, and returns the head-flit arrival
// at the next router.
func (m *Mesh) traverse(l int, t mem.Cycles, flits int) mem.Cycles {
	free := &m.linkFree[l]
	start := max(t, *free)
	m.linkWait += start - t
	*free = start + mem.Cycles(flits)
	return start + m.hopLatency
}

// FlitHops returns the cumulative flit-hop count routed so far.
func (m *Mesh) FlitHops() uint64 { return m.flits }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
