package topology

import (
	"fmt"
)

// Plane selects one of the graph's two overlay networks.
type Plane uint8

// The two planes of every topology.
const (
	// PlaneData is the primary packet interconnect (the fabric's
	// structure).
	PlaneData Plane = iota
	// PlaneSpare carries the recovery channels coverage rides on (the
	// EIB's structure).
	PlaneSpare
	// NumPlanes is the plane count.
	NumPlanes
)

// String implements fmt.Stringer.
func (p Plane) String() string {
	if p == PlaneData {
		return "data"
	}
	return "spare"
}

// planeShape selects the reachability machinery a plane uses.
type planeShape uint8

const (
	// shapeHub is a perfect chassis-wide hub: every endpoint reaches
	// every other, with no interior failure modes. Bus planes, the
	// crossbar/fat-tree spare plane.
	shapeHub planeShape = iota
	// shapeDirect is a set of independent endpoint-pair links (the
	// crossbar data plane): connectivity is single-hop by construction.
	shapeDirect
	// shapeGraph is a general interior graph (mesh, fat-tree data):
	// connectivity is component membership under the failure set.
	shapeGraph
)

// link is one interior (shapeGraph) or endpoint-pair (shapeDirect) link.
type link struct{ a, b int32 }

// plane holds one overlay's structure, failure state and reachability
// memo. All slices are sized at construction; queries and rebuilds
// allocate nothing.
type plane struct {
	shape planeShape
	// attach maps endpoint → interior node (shapeGraph only).
	attach []int32
	// nodes is the interior node count (shapeGraph only).
	nodes    int
	nodeDown []bool
	links    []link
	linkDown []bool
	// adjOff/adjLink is the CSR adjacency over interior nodes: links
	// incident to node v are adjLink[adjOff[v]:adjOff[v+1]].
	adjOff  []int32
	adjLink []int32
	// pairIdx maps endpoint pair i·n+j → link id (shapeDirect only).
	pairIdx []int32
	// comp labels interior nodes with their component (-1 when down);
	// compEnds counts attached endpoints per component; upDeg counts
	// healthy links per endpoint (shapeDirect). All rebuilt lazily per
	// graph version.
	comp     []int32
	compEnds []int32
	upDeg    []int32
}

// unitRef addresses one failable interior element.
type unitRef struct {
	plane  Plane
	isLink bool
	idx    int32
}

// Graph is an interconnect topology instance: immutable structure, a
// mutable interior failure set, and version-keyed reachability memos.
//
// Interior elements (switch nodes and links) are addressed as units,
// 0..Units()-1 — the handle fault injection and chaos campaigns use.
// The bus topology has zero units: its only interconnect faults are the
// fabric's and the EIB's, owned by those engines as in the seed world.
//
// A Graph is not safe for concurrent mutation; like the router that
// owns it, each Monte-Carlo replication builds its own.
type Graph struct {
	kind   Kind
	spec   Spec
	n      int
	planes [NumPlanes]plane
	units  []unitRef
	names  []string

	// ver counts interior health mutations; memoVer tracks the version
	// the reachability memos were rebuilt at.
	ver     uint64
	memoVer uint64
	queue   []int32
	failed  int
}

// New validates, normalizes and builds the topology described by spec
// for n endpoints.
func New(spec Spec, n int) (*Graph, error) {
	if err := spec.Validate(n); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	spec = spec.Normalize(n)
	kind, _ := ParseKind(spec.Kind)
	g := &Graph{kind: kind, spec: spec, n: n}
	switch kind {
	case Bus:
		g.planes[PlaneData] = plane{shape: shapeHub}
		g.planes[PlaneSpare] = plane{shape: shapeHub}
	case Crossbar:
		g.planes[PlaneData] = buildCrossbar(n)
		g.planes[PlaneSpare] = plane{shape: shapeHub}
	case Mesh:
		g.planes[PlaneData] = buildMesh(n, spec.Rows, spec.Cols)
		g.planes[PlaneSpare] = buildMesh(n, spec.Rows, spec.Cols)
	case FatTree:
		g.planes[PlaneData] = buildFatTree(n, spec.K)
		g.planes[PlaneSpare] = plane{shape: shapeHub}
	}
	g.finish()
	return g, nil
}

// buildCrossbar wires one independent data link per endpoint pair.
func buildCrossbar(n int) plane {
	p := plane{shape: shapeDirect}
	p.pairIdx = make([]int32, n*n)
	for i := range p.pairIdx {
		p.pairIdx[i] = -1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			id := int32(len(p.links))
			p.links = append(p.links, link{int32(i), int32(j)})
			p.pairIdx[i*n+j] = id
			p.pairIdx[j*n+i] = id
		}
	}
	p.linkDown = make([]bool, len(p.links))
	p.upDeg = make([]int32, n)
	return p
}

// buildMesh wires a rows×cols grid of interconnect routers, endpoints
// attached row-major one per cell.
func buildMesh(n, rows, cols int) plane {
	p := plane{shape: shapeGraph, nodes: rows * cols}
	p.attach = make([]int32, n)
	for i := 0; i < n; i++ {
		p.attach[i] = int32(i)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := int32(r*cols + c)
			if c+1 < cols {
				p.links = append(p.links, link{v, v + 1})
			}
			if r+1 < rows {
				p.links = append(p.links, link{v, v + int32(cols)})
			}
		}
	}
	p.seal()
	return p
}

// buildFatTree wires the k-ary fat-tree data plane: k pods of k/2 edge
// and k/2 aggregation switches, (k/2)² core switches, endpoints packed
// onto edge switches k/2 per switch.
func buildFatTree(n, k int) plane {
	h := k / 2
	edges, aggs, cores := k*h, k*h, h*h
	p := plane{shape: shapeGraph, nodes: edges + aggs + cores}
	p.attach = make([]int32, n)
	for i := 0; i < n; i++ {
		p.attach[i] = int32(i / h) // edge switch, k/2 endpoints each
	}
	for pod := 0; pod < k; pod++ {
		for a := 0; a < h; a++ {
			agg := int32(edges + pod*h + a)
			// Every edge switch in the pod.
			for e := 0; e < h; e++ {
				p.links = append(p.links, link{int32(pod*h + e), agg})
			}
			// Core group a.
			for c := 0; c < h; c++ {
				p.links = append(p.links, link{agg, int32(edges + aggs + a*h + c)})
			}
		}
	}
	p.seal()
	return p
}

// seal finalizes a shapeGraph plane: failure flags, CSR adjacency, memo
// buffers.
func (p *plane) seal() {
	p.nodeDown = make([]bool, p.nodes)
	p.linkDown = make([]bool, len(p.links))
	p.comp = make([]int32, p.nodes)
	p.compEnds = make([]int32, p.nodes+1)
	deg := make([]int32, p.nodes+1)
	for _, l := range p.links {
		deg[l.a+1]++
		deg[l.b+1]++
	}
	p.adjOff = make([]int32, p.nodes+1)
	for v := 0; v < p.nodes; v++ {
		p.adjOff[v+1] = p.adjOff[v] + deg[v+1]
	}
	fill := make([]int32, p.nodes)
	p.adjLink = make([]int32, 2*len(p.links))
	for id, l := range p.links {
		p.adjLink[p.adjOff[l.a]+fill[l.a]] = int32(id)
		fill[l.a]++
		p.adjLink[p.adjOff[l.b]+fill[l.b]] = int32(id)
		fill[l.b]++
	}
}

// finish enumerates the failable units and builds their display names.
func (g *Graph) finish() {
	maxNodes := 0
	for pi := range g.planes {
		p := &g.planes[pi]
		for idx := range p.nodeDown {
			g.units = append(g.units, unitRef{plane: Plane(pi), isLink: false, idx: int32(idx)})
			g.names = append(g.names, fmt.Sprintf("%s/node/%s", Plane(pi), g.nodeName(Plane(pi), int32(idx))))
		}
		for idx := range p.linkDown {
			l := p.links[idx]
			var nm string
			if p.shape == shapeDirect {
				nm = fmt.Sprintf("%s/link/lc%d-lc%d", Plane(pi), l.a, l.b)
			} else {
				nm = fmt.Sprintf("%s/link/%s-%s", Plane(pi), g.nodeName(Plane(pi), l.a), g.nodeName(Plane(pi), l.b))
			}
			g.units = append(g.units, unitRef{plane: Plane(pi), isLink: true, idx: int32(idx)})
			g.names = append(g.names, nm)
		}
		if p.nodes > maxNodes {
			maxNodes = p.nodes
		}
	}
	g.queue = make([]int32, maxNodes)
	g.ver = 1
	g.rebuild()
}

// nodeName renders an interior node's structural name.
func (g *Graph) nodeName(pl Plane, v int32) string {
	switch g.kind {
	case Mesh:
		return fmt.Sprintf("r%dc%d", int(v)/g.spec.Cols, int(v)%g.spec.Cols)
	case FatTree:
		h := g.spec.K / 2
		edges, aggs := g.spec.K*h, g.spec.K*h
		switch {
		case int(v) < edges:
			return fmt.Sprintf("edge%d", v)
		case int(v) < edges+aggs:
			return fmt.Sprintf("agg%d", int(v)-edges)
		default:
			return fmt.Sprintf("core%d", int(v)-edges-aggs)
		}
	default:
		return fmt.Sprintf("sw%d", v)
	}
}

// Version counts interior health mutations — the cache-invalidation key
// derived predicates (router.CanDeliverCached) fold into theirs. The
// bus topology's version never changes.
func (g *Graph) Version() uint64 { return g.ver }

// Units returns the number of failable interior elements.
func (g *Graph) Units() int { return len(g.units) }

// UnitName returns the structural name of unit u, for traces and chaos
// specs.
func (g *Graph) UnitName(u int) string {
	g.checkUnit(u)
	return g.names[u]
}

// UnitFailed reports whether unit u is currently failed.
func (g *Graph) UnitFailed(u int) bool {
	g.checkUnit(u)
	r := g.units[u]
	p := &g.planes[r.plane]
	if r.isLink {
		return p.linkDown[r.idx]
	}
	return p.nodeDown[r.idx]
}

// FailUnit marks unit u failed, reporting whether the state changed.
func (g *Graph) FailUnit(u int) bool { return g.setUnit(u, true) }

// RepairUnit restores unit u, reporting whether the state changed.
func (g *Graph) RepairUnit(u int) bool { return g.setUnit(u, false) }

func (g *Graph) setUnit(u int, down bool) bool {
	g.checkUnit(u)
	r := g.units[u]
	p := &g.planes[r.plane]
	var slot *bool
	if r.isLink {
		slot = &p.linkDown[r.idx]
	} else {
		slot = &p.nodeDown[r.idx]
	}
	if *slot == down {
		return false
	}
	*slot = down
	if down {
		g.failed++
	} else {
		g.failed--
	}
	g.ver++
	return true
}

func (g *Graph) checkUnit(u int) {
	if u < 0 || u >= len(g.units) {
		panic(fmt.Sprintf("topology: unit %d outside [0, %d)", u, len(g.units)))
	}
}

// FailedUnits returns the number of currently failed interior units.
func (g *Graph) FailedUnits() int { return g.failed }

// FailedUnitsAppend appends the failed unit indices to buf — the
// zero-alloc form repair loops use with a scratch buffer.
func (g *Graph) FailedUnitsAppend(buf []int) []int {
	if g.failed == 0 {
		return buf
	}
	for u := range g.units {
		if g.UnitFailed(u) {
			buf = append(buf, u)
		}
	}
	return buf
}

func (g *Graph) checkEndpoint(i int) {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("topology: endpoint %d outside [0, %d)", i, g.n))
	}
}

// ensure rebuilds the reachability memos if the failure set moved.
func (g *Graph) ensure() {
	if g.memoVer != g.ver {
		g.rebuild()
	}
}

// rebuild recomputes every plane's reachability memo into the buffers
// sized at construction. It runs only on fault-state transitions, never
// per simulation event, and allocates nothing.
func (g *Graph) rebuild() {
	for pi := range g.planes {
		p := &g.planes[pi]
		switch p.shape {
		case shapeDirect:
			for i := range p.upDeg {
				p.upDeg[i] = 0
			}
			for id, l := range p.links {
				if !p.linkDown[id] {
					p.upDeg[l.a]++
					p.upDeg[l.b]++
				}
			}
		case shapeGraph:
			g.label(p)
		}
	}
	g.memoVer = g.ver
}

// label BFS-labels p's interior components under the failure set and
// counts attached endpoints per component.
func (g *Graph) label(p *plane) {
	for v := range p.comp {
		p.comp[v] = -1
	}
	for c := range p.compEnds {
		p.compEnds[c] = 0
	}
	next := int32(0)
	for start := 0; start < p.nodes; start++ {
		if p.nodeDown[start] || p.comp[start] >= 0 {
			continue
		}
		label := next
		next++
		head, tail := 0, 0
		g.queue[tail] = int32(start)
		tail++
		p.comp[start] = label
		for head < tail {
			v := g.queue[head]
			head++
			for _, id := range p.adjLink[p.adjOff[v]:p.adjOff[v+1]] {
				if p.linkDown[id] {
					continue
				}
				l := p.links[id]
				w := l.a
				if w == v {
					w = l.b
				}
				if p.nodeDown[w] || p.comp[w] >= 0 {
					continue
				}
				p.comp[w] = label
				g.queue[tail] = w
				tail++
			}
		}
	}
	for _, a := range p.attach {
		if c := p.comp[a]; c >= 0 {
			p.compEnds[c]++
		}
	}
}

// Up reports whether endpoint i's interior attachment on plane pl can
// reach at least one other endpoint — the topology's half of "LC i is
// attached to an operational interconnect". Per-endpoint port health
// and core switching capacity stay with the fabric and EIB engines; on
// the bus topology this is constant true and the seed checks are the
// whole story.
func (g *Graph) Up(pl Plane, i int) bool {
	g.checkEndpoint(i)
	p := &g.planes[pl]
	switch p.shape {
	case shapeHub:
		return true
	case shapeDirect:
		g.ensure()
		return p.upDeg[i] > 0
	default:
		g.ensure()
		a := p.attach[i]
		return !p.nodeDown[a] && p.compEnds[p.comp[a]] >= 2
	}
}

// Connected reports whether endpoints i and j can reach each other over
// plane pl's interior under the active failure set. Constant true on
// hub planes (the bus world).
func (g *Graph) Connected(pl Plane, i, j int) bool {
	g.checkEndpoint(i)
	g.checkEndpoint(j)
	if i == j {
		return g.Up(pl, i)
	}
	p := &g.planes[pl]
	switch p.shape {
	case shapeHub:
		return true
	case shapeDirect:
		id := p.pairIdx[i*g.n+j]
		return id >= 0 && !p.linkDown[id]
	default:
		g.ensure()
		a, b := p.attach[i], p.attach[j]
		return !p.nodeDown[a] && !p.nodeDown[b] && p.comp[a] == p.comp[b]
	}
}
