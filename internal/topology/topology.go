// Package topology models the router's interconnect as a pluggable graph
// of nodes, links and spare channels, replacing the assumption — baked
// into the paper and the original reproduction — that N linecards hang
// off one switching fabric and one Error-Identification Bus.
//
// A Graph carries two planes:
//
//   - the data plane: the primary packet interconnect (the switching
//     fabric's structure). Its reachability decides which linecard pairs
//     can exchange cells at all; the fabric engine (internal/fabric)
//     keeps modelling switching capacity and per-port health on top.
//   - the spare plane: the recovery channels coverage rides on (the
//     EIB's structure). Its reachability decides which peers can extend
//     DRA-style coverage to a faulty linecard; the EIB engine
//     (internal/eib) keeps modelling the control protocol and data-line
//     capacity on top.
//
// Four concrete generators are provided: bus (the paper's world — both
// planes are perfect chassis-wide hubs, so every reachability question
// degenerates to the fabric/EIB health checks the seed code hard-coded),
// crossbar (per-pair data crosspoints that fail independently), 2D mesh
// (grid of interconnect routers with FASHION-style parallel spare-lane
// channels), and k-ary fat-tree (edge/aggregation/core switch tiers with
// path diversity). The whole dependability stack — Monte-Carlo
// estimators, rare-event importance sampling, chaos campaigns, the
// invariant wall, telemetry — runs unchanged against every kind.
//
// Reachability under the active failure set is memoized per graph
// version: component labels are rebuilt (allocation-free, into buffers
// sized at construction) only when an interior element fails or is
// repaired, never per simulation event, preserving the zero-alloc
// steady state of the DES core.
package topology

import (
	"fmt"
	"strings"
)

// Kind enumerates the registered interconnect topologies.
type Kind uint8

// The registered topology kinds.
const (
	// Bus is the paper's world: every linecard on one switching fabric
	// and one EIB. Both planes are perfect hubs with no interior failure
	// modes of their own — fabric cards, fabric ports, the EIB lines and
	// the per-LC bus controllers remain the only interconnect faults,
	// exactly the seed behavior.
	Bus Kind = iota
	// Crossbar gives every linecard pair its own data-plane crosspoint
	// link that can fail independently; the spare plane stays a shared
	// chassis-wide bus.
	Crossbar
	// Mesh arranges interconnect routers in a rows×cols grid, linecards
	// attached one per cell, with a parallel spare-lane grid carrying
	// coverage traffic (FASHION-style self-healing NoC).
	Mesh
	// FatTree is the k-ary fat-tree: linecards at edge switches, k/2
	// aggregation switches per pod, (k/2)² core switches; the spare
	// plane stays a shared chassis-wide bus.
	FatTree
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Bus:
		return "bus"
	case Crossbar:
		return "crossbar"
	case Mesh:
		return "mesh"
	case FatTree:
		return "fattree"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Kinds lists every registered topology kind, in display order. The
// conformance wall iterates this list, so a newly registered kind gets
// the whole invariant/chaos suite for free.
func Kinds() []Kind { return []Kind{Bus, Crossbar, Mesh, FatTree} }

// KindNames lists the registered kind names, for validation messages.
func KindNames() []string {
	ks := Kinds()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.String()
	}
	return names
}

// ParseKind maps a kind name (case-insensitive; "" means bus) to its
// constant.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "", "bus":
		return Bus, nil
	case "crossbar", "xbar":
		return Crossbar, nil
	case "mesh":
		return Mesh, nil
	case "fattree", "fat-tree":
		return FatTree, nil
	default:
		return 0, fmt.Errorf("unknown topology kind %q (want %s)", s, strings.Join(KindNames(), ", "))
	}
}

// FieldError is a validation failure naming the offending Spec field, so
// callers embedding a Spec in a larger document (job specs, chaos
// campaigns) can prefix the field with their own path.
type FieldError struct {
	Field string
	Msg   string
}

// Error implements error.
func (e *FieldError) Error() string { return e.Field + ": " + e.Msg }

func fieldErr(field, format string, args ...any) error {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Spec is the JSON-embeddable description of an interconnect topology —
// the `topology` axis of job specs and chaos campaigns. The zero value
// selects the bus (the seed world).
type Spec struct {
	// Kind names the topology: bus (default), crossbar, mesh, fattree.
	Kind string `json:"kind,omitempty"`
	// Rows and Cols size the mesh grid (mesh only). Both default to
	// ⌈√n⌉ for n endpoints; rows·cols must cover every endpoint.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// K is the fat-tree arity (fattree only): even, at least 2, with
	// k³/4 leaf slots covering every endpoint. Defaults to the smallest
	// such k.
	K int `json:"k,omitempty"`
}

// Validate rejects malformed or contradictory specs for a router of n
// endpoints. Errors are *FieldError values naming the offending field
// relative to the spec ("kind", "rows", ...).
func (s Spec) Validate(n int) error {
	if n < 2 {
		return fieldErr("kind", "topology needs at least 2 endpoints, got %d", n)
	}
	kind, err := ParseKind(s.Kind)
	if err != nil {
		return &FieldError{Field: "kind", Msg: err.Error()}
	}
	if kind != Mesh {
		if s.Rows != 0 {
			return fieldErr("rows", "applies only to kind \"mesh\", not %q", kind)
		}
		if s.Cols != 0 {
			return fieldErr("cols", "applies only to kind \"mesh\", not %q", kind)
		}
	}
	if kind != FatTree && s.K != 0 {
		return fieldErr("k", "applies only to kind \"fattree\", not %q", kind)
	}
	switch kind {
	case Mesh:
		if s.Rows < 0 {
			return fieldErr("rows", "must be positive, got %d", s.Rows)
		}
		if s.Cols < 0 {
			return fieldErr("cols", "must be positive, got %d", s.Cols)
		}
		if (s.Rows == 0) != (s.Cols == 0) {
			return fieldErr("rows", "rows and cols must be set together (or both omitted for a ⌈√n⌉ square)")
		}
		if s.Rows > 0 && s.Rows*s.Cols < n {
			return fieldErr("rows", "%d×%d grid has %d cells for %d endpoints", s.Rows, s.Cols, s.Rows*s.Cols, n)
		}
	case FatTree:
		if s.K < 0 {
			return fieldErr("k", "must be positive, got %d", s.K)
		}
		if s.K > 0 {
			if s.K%2 != 0 {
				return fieldErr("k", "fat-tree arity must be even, got %d", s.K)
			}
			if s.K < 2 {
				return fieldErr("k", "fat-tree arity must be at least 2, got %d", s.K)
			}
			if cap := s.K * s.K * s.K / 4; cap < n {
				return fieldErr("k", "%d-ary fat-tree has %d leaf slots for %d endpoints", s.K, cap, n)
			}
		}
	}
	return nil
}

// Normalize returns the spec with every defaulted field made explicit
// for a router of n endpoints — except that any spelling of the bus
// world collapses to the zero Spec, so "topology omitted", `{"kind":
// "bus"}` and `{}` all canonicalize identically (and job specs written
// before the topology axis existed keep their content address).
// It assumes Validate(n) passed.
func (s Spec) Normalize(n int) Spec {
	kind, _ := ParseKind(s.Kind)
	if kind == Bus {
		return Spec{}
	}
	out := Spec{Kind: kind.String()}
	switch kind {
	case Mesh:
		out.Rows, out.Cols = s.Rows, s.Cols
		if out.Rows == 0 {
			out.Rows, out.Cols = defaultMeshDims(n)
		}
	case FatTree:
		out.K = s.K
		if out.K == 0 {
			out.K = defaultFatTreeK(n)
		}
	}
	return out
}

// defaultMeshDims returns the smallest near-square grid covering n
// endpoints: ⌈√n⌉ columns and as many rows as needed.
func defaultMeshDims(n int) (rows, cols int) {
	cols = 1
	for cols*cols < n {
		cols++
	}
	rows = (n + cols - 1) / cols
	return rows, cols
}

// defaultFatTreeK returns the smallest even arity whose k³/4 leaf slots
// cover n endpoints.
func defaultFatTreeK(n int) int {
	for k := 2; ; k += 2 {
		if k*k*k/4 >= n {
			return k
		}
	}
}

// ParseFlag parses the CLI shorthand for a topology: "bus", "crossbar",
// "mesh", "mesh:RxC", "fattree", "fattree:K".
func ParseFlag(s string) (Spec, error) {
	name, arg, hasArg := strings.Cut(s, ":")
	kind, err := ParseKind(name)
	if err != nil {
		return Spec{}, err
	}
	spec := Spec{Kind: kind.String()}
	if !hasArg {
		return spec, nil
	}
	switch kind {
	case Mesh:
		var r, c int
		if _, err := fmt.Sscanf(strings.ToLower(arg), "%dx%d", &r, &c); err != nil || r <= 0 || c <= 0 {
			return Spec{}, fmt.Errorf("mesh dimensions %q (want ROWSxCOLS, e.g. mesh:3x3)", arg)
		}
		spec.Rows, spec.Cols = r, c
	case FatTree:
		var k int
		if _, err := fmt.Sscanf(arg, "%d", &k); err != nil || k <= 0 {
			return Spec{}, fmt.Errorf("fat-tree arity %q (want an even integer, e.g. fattree:4)", arg)
		}
		spec.K = k
	default:
		return Spec{}, fmt.Errorf("topology %q takes no argument, got %q", name, arg)
	}
	return spec, nil
}

// String renders the spec in ParseFlag shorthand.
func (s Spec) String() string {
	kind, err := ParseKind(s.Kind)
	if err != nil {
		return s.Kind
	}
	switch kind {
	case Mesh:
		if s.Rows > 0 {
			return fmt.Sprintf("mesh:%dx%d", s.Rows, s.Cols)
		}
		return "mesh"
	case FatTree:
		if s.K > 0 {
			return fmt.Sprintf("fattree:%d", s.K)
		}
		return "fattree"
	default:
		return kind.String()
	}
}
