// Package forwarding implements the router's L3 lookup path: IPv4 prefixes,
// a longest-prefix-match binary trie, immutable routing-table snapshots,
// and the route processor (RP) that distributes table copies to the local
// forwarding engines (LFEs) on each linecard, as in the paper's Figure 1.
package forwarding

import (
	"fmt"
	"sort"
)

// Prefix is an IPv4 route prefix.
type Prefix struct {
	Addr uint32 // host-order address; bits past Len are ignored
	Len  int    // 0..32
}

// MakePrefix masks addr down to length bits and returns the prefix. It
// panics for lengths outside [0, 32].
func MakePrefix(addr uint32, length int) Prefix {
	if length < 0 || length > 32 {
		panic(fmt.Sprintf("forwarding: invalid prefix length %d", length))
	}
	return Prefix{Addr: addr & Mask(length), Len: length}
}

// Mask returns the network mask for a prefix length.
func Mask(length int) uint32 {
	if length <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(length))
}

// String renders the prefix in dotted-quad/len form.
func (p Prefix) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d", byte(p.Addr>>24), byte(p.Addr>>16), byte(p.Addr>>8), byte(p.Addr), p.Len)
}

// Route binds a prefix to a next hop, which in this router model is the
// egress linecard index.
type Route struct {
	Prefix Prefix
	NextLC int
}

// trieNode is one node of the binary LPM trie.
type trieNode struct {
	child [2]*trieNode
	// route is non-nil if a prefix terminates here.
	route *Route
}

// Trie is a binary longest-prefix-match trie. The zero value is an empty
// trie ready for use. Trie is not safe for concurrent mutation; the router
// model distributes immutable snapshots instead (see Table).
type Trie struct {
	root trieNode
	n    int
}

// Len returns the number of routes stored.
func (t *Trie) Len() int { return t.n }

// Insert adds or replaces the route for the given prefix.
func (t *Trie) Insert(r Route) {
	node := &t.root
	for depth := 0; depth < r.Prefix.Len; depth++ {
		bit := (r.Prefix.Addr >> (31 - uint(depth))) & 1
		if node.child[bit] == nil {
			node.child[bit] = &trieNode{}
		}
		node = node.child[bit]
	}
	if node.route == nil {
		t.n++
	}
	rc := r
	rc.Prefix = MakePrefix(r.Prefix.Addr, r.Prefix.Len)
	node.route = &rc
}

// Lookup returns the longest-prefix-match route for addr.
func (t *Trie) Lookup(addr uint32) (Route, bool) {
	var best *Route
	node := &t.root
	if node.route != nil {
		best = node.route
	}
	for depth := 0; depth < 32 && node != nil; depth++ {
		bit := (addr >> (31 - uint(depth))) & 1
		node = node.child[bit]
		if node != nil && node.route != nil {
			best = node.route
		}
	}
	if best == nil {
		return Route{}, false
	}
	return *best, true
}

// Routes returns all stored routes sorted by (prefix length, address) —
// deterministic for tests and table dumps.
func (t *Trie) Routes() []Route {
	var out []Route
	var walk func(n *trieNode)
	walk = func(n *trieNode) {
		if n == nil {
			return
		}
		if n.route != nil {
			out = append(out, *n.route)
		}
		walk(n.child[0])
		walk(n.child[1])
	}
	walk(&t.root)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix.Len != out[j].Prefix.Len {
			return out[i].Prefix.Len < out[j].Prefix.Len
		}
		return out[i].Prefix.Addr < out[j].Prefix.Addr
	})
	return out
}
