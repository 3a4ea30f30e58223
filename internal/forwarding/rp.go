package forwarding

// Table is an immutable routing-table snapshot as held by a linecard's
// LFE. Lookups are safe for concurrent use because the table never
// changes; the RP replaces whole snapshots.
type Table struct {
	version uint64
	trie    *Trie
}

// Len returns the number of routes.
func (t *Table) Len() int { return t.trie.Len() }

// Lookup performs the longest-prefix-match lookup and returns the egress
// linecard index.
func (t *Table) Lookup(addr uint32) (int, bool) {
	r, ok := t.trie.Lookup(addr)
	if !ok {
		return 0, false
	}
	return r.NextLC, true
}

// RouteProcessor is the central control element of the router (the RP of
// the paper's Figure 1): it owns the master routing table and distributes
// versioned snapshots to the LFEs over the internal bus. The paper's fault
// model treats the RP as outside the routing path (always redundant), so
// the RP here never fails.
type RouteProcessor struct {
	master  Trie
	version uint64
	subs    []func(*Table)
}

// NewRouteProcessor returns an RP with an empty master table.
func NewRouteProcessor() *RouteProcessor { return &RouteProcessor{} }

// Announce adds or replaces a route in the master table. Distribution to
// subscribers happens on Distribute, mirroring the batched route-update
// dissemination of real RPs.
func (rp *RouteProcessor) Announce(r Route) { rp.master.Insert(r) }

// Subscribe registers an LFE callback invoked with every distributed
// snapshot, and immediately delivers the current table so late joiners are
// not left empty.
func (rp *RouteProcessor) Subscribe(fn func(*Table)) {
	rp.subs = append(rp.subs, fn)
	fn(rp.snapshot())
}

// Distribute builds a new snapshot from the master table and pushes it to
// every subscriber, returning the snapshot version.
func (rp *RouteProcessor) Distribute() uint64 {
	t := rp.snapshot()
	for _, fn := range rp.subs {
		fn(t)
	}
	return t.version
}

func (rp *RouteProcessor) snapshot() *Table {
	rp.version++
	clone := &Trie{}
	for _, r := range rp.master.Routes() {
		clone.Insert(r)
	}
	return &Table{version: rp.version, trie: clone}
}
