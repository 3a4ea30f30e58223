package topology

import (
	"strings"
	"testing"
)

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", Bus, false},
		{"bus", Bus, false},
		{"BUS", Bus, false},
		{"crossbar", Crossbar, false},
		{"xbar", Crossbar, false},
		{"mesh", Mesh, false},
		{"fattree", FatTree, false},
		{"fat-tree", FatTree, false},
		{"ring", 0, true},
	}
	for _, c := range cases {
		k, err := ParseKind(c.in)
		if (err != nil) != c.err {
			t.Fatalf("ParseKind(%q): err=%v", c.in, err)
		}
		if err == nil && k != c.want {
			t.Fatalf("ParseKind(%q) = %v, want %v", c.in, k, c.want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		n     int
		field string // "" = valid
	}{
		{"zero is bus", Spec{}, 9, ""},
		{"explicit bus", Spec{Kind: "bus"}, 2, ""},
		{"crossbar", Spec{Kind: "crossbar"}, 5, ""},
		{"mesh default dims", Spec{Kind: "mesh"}, 9, ""},
		{"mesh explicit", Spec{Kind: "mesh", Rows: 2, Cols: 5}, 9, ""},
		{"fattree default k", Spec{Kind: "fattree"}, 9, ""},
		{"fattree explicit", Spec{Kind: "fattree", K: 4}, 16, ""},
		{"unknown kind", Spec{Kind: "ring"}, 4, "kind"},
		{"rows on bus", Spec{Kind: "bus", Rows: 2}, 4, "rows"},
		{"cols on fattree", Spec{Kind: "fattree", Cols: 2}, 4, "cols"},
		{"k on mesh", Spec{Kind: "mesh", K: 4}, 4, "k"},
		{"mesh rows alone", Spec{Kind: "mesh", Rows: 3}, 4, "rows"},
		{"mesh too small", Spec{Kind: "mesh", Rows: 2, Cols: 2}, 9, "rows"},
		{"mesh negative", Spec{Kind: "mesh", Rows: -1, Cols: 2}, 2, "rows"},
		{"fattree odd", Spec{Kind: "fattree", K: 3}, 2, "k"},
		{"fattree too small", Spec{Kind: "fattree", K: 2}, 9, "k"},
		{"fattree negative", Spec{Kind: "fattree", K: -2}, 2, "k"},
		{"one endpoint", Spec{}, 1, "kind"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate(c.n)
			if c.field == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			fe, ok := err.(*FieldError)
			if !ok {
				t.Fatalf("want *FieldError naming %q, got %v", c.field, err)
			}
			if fe.Field != c.field {
				t.Fatalf("error names field %q, want %q: %v", fe.Field, c.field, err)
			}
		})
	}
}

func TestNormalizeCollapsesBus(t *testing.T) {
	for _, s := range []Spec{{}, {Kind: "bus"}, {Kind: "BUS"}} {
		if got := s.Normalize(9); got != (Spec{}) {
			t.Fatalf("Normalize(%+v) = %+v, want zero Spec", s, got)
		}
	}
	m := Spec{Kind: "MESH"}.Normalize(9)
	if m.Kind != "mesh" || m.Rows != 3 || m.Cols != 3 {
		t.Fatalf("mesh normalize: %+v", m)
	}
	f := Spec{Kind: "fattree"}.Normalize(9)
	if f.K != 4 {
		t.Fatalf("fattree normalize: %+v (want k=4: 4³/4 = 16 ≥ 9)", f)
	}
	// Normalizing an already-normal spec is a fixed point.
	if again := m.Normalize(9); again != m {
		t.Fatalf("normalize not idempotent: %+v → %+v", m, again)
	}
}

func TestParseFlag(t *testing.T) {
	ok := []struct {
		in   string
		want Spec
	}{
		{"bus", Spec{Kind: "bus"}},
		{"crossbar", Spec{Kind: "crossbar"}},
		{"mesh", Spec{Kind: "mesh"}},
		{"mesh:3x4", Spec{Kind: "mesh", Rows: 3, Cols: 4}},
		{"fattree:4", Spec{Kind: "fattree", K: 4}},
	}
	for _, c := range ok {
		got, err := ParseFlag(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseFlag(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"ring", "mesh:3", "mesh:0x4", "fattree:x", "bus:1"} {
		if _, err := ParseFlag(bad); err == nil {
			t.Fatalf("ParseFlag(%q) accepted", bad)
		}
	}
}

func TestBusGraphIsPerfect(t *testing.T) {
	g := MustNew(Spec{}, 9)
	if g.Kind() != Bus || g.Units() != 0 {
		t.Fatalf("bus graph: kind=%v units=%d", g.Kind(), g.Units())
	}
	v := g.Version()
	for i := 0; i < 9; i++ {
		if !g.Up(PlaneData, i) || !g.Up(PlaneSpare, i) {
			t.Fatalf("bus endpoint %d not up", i)
		}
		for j := 0; j < 9; j++ {
			if i != j && !g.Connected(PlaneData, i, j) {
				t.Fatalf("bus %d-%d not data-connected", i, j)
			}
			if i != j && !g.Connected(PlaneSpare, i, j) {
				t.Fatalf("bus %d-%d not spare-connected", i, j)
			}
		}
	}
	if g.Version() != v {
		t.Fatalf("bus graph version moved %d → %d under pure queries", v, g.Version())
	}
}

func TestCrossbarPairLinks(t *testing.T) {
	n := 5
	g := MustNew(Spec{Kind: "crossbar"}, n)
	if g.Units() != n*(n-1)/2 {
		t.Fatalf("crossbar units = %d, want %d", g.Units(), n*(n-1)/2)
	}
	// Find and cut the 1-3 link.
	cut := -1
	for u := 0; u < g.Units(); u++ {
		if g.UnitName(u) == "data/link/lc1-lc3" {
			cut = u
		}
	}
	if cut < 0 {
		t.Fatalf("no lc1-lc3 unit; names: %v", allNames(g))
	}
	if !g.FailUnit(cut) {
		t.Fatal("FailUnit reported no change")
	}
	if g.FailUnit(cut) {
		t.Fatal("double FailUnit reported a change")
	}
	if g.Connected(PlaneData, 1, 3) || g.Connected(PlaneData, 3, 1) {
		t.Fatal("1-3 still connected after link cut")
	}
	if !g.Connected(PlaneData, 1, 2) || !g.Connected(PlaneSpare, 1, 3) {
		t.Fatal("unrelated connectivity lost")
	}
	if !g.Up(PlaneData, 1) {
		t.Fatal("endpoint 1 should still be up via other links")
	}
	// Cut everything touching endpoint 1: it goes down, others stay up.
	for u := 0; u < g.Units(); u++ {
		if strings.Contains(g.UnitName(u), "lc1") {
			g.FailUnit(u)
		}
	}
	if g.Up(PlaneData, 1) {
		t.Fatal("endpoint 1 up with every link cut")
	}
	if !g.Up(PlaneData, 2) {
		t.Fatal("endpoint 2 lost attachment")
	}
	g.RepairAllUnits()
	if g.FailedUnits() != 0 || !g.Connected(PlaneData, 1, 3) {
		t.Fatal("RepairAllUnits did not restore")
	}
}

func TestMeshPartition(t *testing.T) {
	// 3×3 mesh, 9 endpoints. Cut the middle column's nodes on the data
	// plane: columns 0 and 2 become separate components.
	g := MustNew(Spec{Kind: "mesh", Rows: 3, Cols: 3}, 9)
	for u := 0; u < g.Units(); u++ {
		n := g.UnitName(u)
		if n == "data/node/r0c1" || n == "data/node/r1c1" || n == "data/node/r2c1" {
			g.FailUnit(u)
		}
	}
	// Endpoints 0,3,6 are column 0; 2,5,8 are column 2; 1,4,7 are the
	// dead middle column.
	if g.Connected(PlaneData, 0, 2) {
		t.Fatal("columns still connected through dead middle")
	}
	if !g.Connected(PlaneData, 0, 6) || !g.Connected(PlaneData, 2, 8) {
		t.Fatal("within-column connectivity lost")
	}
	if g.Up(PlaneData, 4) {
		t.Fatal("endpoint on dead router reports up")
	}
	if !g.Up(PlaneData, 0) {
		t.Fatal("column-0 endpoint should reach its column")
	}
	// The spare plane is an independent grid: untouched.
	if !g.Connected(PlaneSpare, 0, 2) {
		t.Fatal("spare plane affected by data-plane faults")
	}
	g.RepairAllUnits()
	if !g.Connected(PlaneData, 0, 2) {
		t.Fatal("repair did not restore mesh connectivity")
	}
}

func TestMeshSpareLaneIndependence(t *testing.T) {
	g := MustNew(Spec{Kind: "mesh"}, 9) // 3×3 default
	// Cut every spare link; data untouched.
	for u := 0; u < g.Units(); u++ {
		if strings.HasPrefix(g.UnitName(u), "spare/link/") {
			g.FailUnit(u)
		}
	}
	if g.Up(PlaneSpare, 0) || g.Connected(PlaneSpare, 0, 1) {
		t.Fatal("spare plane should be fully cut")
	}
	if !g.Connected(PlaneData, 0, 8) {
		t.Fatal("data plane should be unaffected")
	}
}

func TestFatTreePathDiversity(t *testing.T) {
	// 4-ary fat-tree, 16 endpoints: 8 edge, 8 agg, 4 core switches.
	g := MustNew(Spec{Kind: "fattree", K: 4}, 16)
	if !g.Connected(PlaneData, 0, 15) {
		t.Fatal("healthy fat-tree not connected")
	}
	// Killing one aggregation switch must not partition anything: the
	// other agg in the pod still reaches the other core group.
	failNode(t, g, "data/node/agg0")
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			if !g.Connected(PlaneData, i, j) {
				t.Fatalf("agg0 loss partitioned %d-%d", i, j)
			}
		}
	}
	// Killing both aggs of pod 0 isolates that pod's 4 endpoints.
	failNode(t, g, "data/node/agg1")
	if g.Connected(PlaneData, 0, 15) {
		t.Fatal("pod 0 should be isolated from pod 3")
	}
	// Endpoints sharing an edge switch still talk through it.
	if !g.Connected(PlaneData, 0, 1) {
		t.Fatal("endpoints 0-1 share edge0 and should stay connected")
	}
	// Edge-switch failure takes down its k/2 endpoints.
	failNode(t, g, "data/node/edge0")
	if g.Up(PlaneData, 0) || g.Up(PlaneData, 1) {
		t.Fatal("edge0 endpoints should be detached")
	}
	if !g.Up(PlaneData, 2) {
		t.Fatal("edge1 endpoints should survive")
	}
}

// failNode fails the unit with the given name.
func failNode(t *testing.T, g *Graph, name string) {
	t.Helper()
	for u := 0; u < g.Units(); u++ {
		if g.UnitName(u) == name {
			g.FailUnit(u)
			return
		}
	}
	t.Fatalf("no unit %q; have %v", name, allNames(g))
}

func allNames(g *Graph) []string {
	var out []string
	for u := 0; u < g.Units(); u++ {
		out = append(out, g.UnitName(u))
	}
	return out
}

func TestFatTreeDefaultArityCoversSmallN(t *testing.T) {
	// n=9 defaults to k=4 (16 slots); every endpoint must attach.
	g := MustNew(Spec{Kind: "fattree"}, 9)
	for i := 0; i < 9; i++ {
		if !g.Up(PlaneData, i) {
			t.Fatalf("endpoint %d detached on default fat-tree", i)
		}
	}
}

func TestConnectedSymmetric(t *testing.T) {
	for _, spec := range []Spec{{}, {Kind: "crossbar"}, {Kind: "mesh"}, {Kind: "fattree"}} {
		g := MustNew(spec, 9)
		// Deterministically fail every third unit.
		for u := 0; u < g.Units(); u += 3 {
			g.FailUnit(u)
		}
		for pl := Plane(0); pl < NumPlanes; pl++ {
			for i := 0; i < 9; i++ {
				for j := 0; j < 9; j++ {
					if g.Connected(pl, i, j) != g.Connected(pl, j, i) {
						t.Fatalf("%v/%v: Connected(%d,%d) asymmetric", g.Kind(), pl, i, j)
					}
				}
			}
		}
	}
}

func TestSpareChannelsPolicy(t *testing.T) {
	p := DefaultPolicy()
	if p.Name() != "spare-channels" {
		t.Fatalf("policy name %q", p.Name())
	}
	g := MustNew(Spec{Kind: "mesh", Rows: 3, Cols: 3}, 9)
	if p.Covers(g, 0, 0) {
		t.Fatal("self-coverage allowed")
	}
	if !p.Covers(g, 0, 8) {
		t.Fatal("healthy mesh should cover corner to corner")
	}
	// Isolate cell 0 (r0c0) on the spare plane by killing both its
	// grid neighbors.
	failNode(t, g, "spare/node/r0c1")
	failNode(t, g, "spare/node/r1c0")
	if p.Covers(g, 0, 8) {
		t.Fatal("spare-isolated endpoint still coverable")
	}
	// Endpoint 4 (r1c1) keeps spare reachability to 8 (r2c2).
	if !p.Covers(g, 4, 8) {
		t.Fatal("unrelated pair lost coverage")
	}
	// Bus: policy is constant true off the diagonal.
	b := MustNew(Spec{}, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got := p.Covers(b, i, j); got != (i != j) {
				t.Fatalf("bus Covers(%d,%d)=%v", i, j, got)
			}
		}
	}
}

func TestVersionMovesOnlyOnChange(t *testing.T) {
	g := MustNew(Spec{Kind: "mesh"}, 9)
	v0 := g.Version()
	g.Connected(PlaneData, 0, 8)
	g.Up(PlaneSpare, 3)
	if g.Version() != v0 {
		t.Fatal("queries moved the version")
	}
	g.FailUnit(0)
	v1 := g.Version()
	if v1 == v0 {
		t.Fatal("fault did not move the version")
	}
	g.FailUnit(0) // no-op
	if g.Version() != v1 {
		t.Fatal("no-op fault moved the version")
	}
	g.RepairUnit(0)
	if g.Version() == v1 {
		t.Fatal("repair did not move the version")
	}
}

func TestUnitNamesStableAndDistinct(t *testing.T) {
	g := MustNew(Spec{Kind: "fattree", K: 4}, 16)
	seen := map[string]bool{}
	for u := 0; u < g.Units(); u++ {
		n := g.UnitName(u)
		if seen[n] {
			t.Fatalf("duplicate unit name %q", n)
		}
		seen[n] = true
	}
}

func TestAllocFreeQueries(t *testing.T) {
	g := MustNew(Spec{Kind: "mesh", Rows: 3, Cols: 3}, 9)
	g.FailUnit(1)
	g.Connected(PlaneData, 0, 8) // warm the memo
	allocs := testing.AllocsPerRun(1000, func() {
		g.Connected(PlaneData, 0, 8)
		g.Connected(PlaneSpare, 2, 5)
		g.Up(PlaneData, 4)
	})
	if allocs != 0 {
		t.Fatalf("reachability queries allocate: %v allocs/op", allocs)
	}
	// Rebuild after a mutation is also allocation-free.
	u := 2
	allocs = testing.AllocsPerRun(1000, func() {
		g.FailUnit(u)
		g.Connected(PlaneData, 0, 8)
		g.RepairUnit(u)
		g.Connected(PlaneData, 0, 8)
	})
	if allocs != 0 {
		t.Fatalf("memo rebuild allocates: %v allocs/op", allocs)
	}
}

// MustNew is New for statically valid specs (tests, examples).
func MustNew(spec Spec, n int) *Graph {
	g, err := New(spec, n)
	if err != nil {
		panic(err)
	}
	return g
}

// Endpoints returns the endpoint (linecard) count.
func (g *Graph) Endpoints() int { return g.n }

// RepairAllUnits restores every failed interior unit.
func (g *Graph) RepairAllUnits() {
	for u := range g.units {
		g.RepairUnit(u)
	}
}

// Kind returns the topology kind.
func (g *Graph) Kind() Kind { return g.kind }
