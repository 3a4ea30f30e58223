package forwarding

import (
	"testing"
	"testing/quick"
)

func ip(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

func TestMask(t *testing.T) {
	if Mask(0) != 0 || Mask(32) != 0xffffffff || Mask(8) != 0xff000000 || Mask(24) != 0xffffff00 {
		t.Fatal("mask values wrong")
	}
}

func TestMakePrefixMasksHostBits(t *testing.T) {
	p := MakePrefix(ip(10, 1, 2, 3), 8)
	if p.Addr != ip(10, 0, 0, 0) {
		t.Fatalf("prefix addr = %08x", p.Addr)
	}
	if p.String() != "10.0.0.0/8" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestMakePrefixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MakePrefix(0, 33)
}

func TestPrefixContains(t *testing.T) {
	p := MakePrefix(ip(192, 168, 0, 0), 16)
	if !p.Contains(ip(192, 168, 4, 200)) || p.Contains(ip(192, 169, 0, 1)) {
		t.Fatal("Contains wrong")
	}
}

func TestTrieLongestPrefixWins(t *testing.T) {
	var tr Trie
	tr.Insert(Route{MakePrefix(ip(10, 0, 0, 0), 8), 1})
	tr.Insert(Route{MakePrefix(ip(10, 1, 0, 0), 16), 2})
	tr.Insert(Route{MakePrefix(ip(10, 1, 2, 0), 24), 3})
	cases := []struct {
		addr uint32
		want int
	}{
		{ip(10, 9, 9, 9), 1},
		{ip(10, 1, 9, 9), 2},
		{ip(10, 1, 2, 9), 3},
	}
	for _, c := range cases {
		r, ok := tr.Lookup(c.addr)
		if !ok || r.NextLC != c.want {
			t.Fatalf("Lookup(%08x) = %+v, %v; want LC %d", c.addr, r, ok, c.want)
		}
	}
	if _, ok := tr.Lookup(ip(11, 0, 0, 1)); ok {
		t.Fatal("lookup outside any prefix succeeded")
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	var tr Trie
	tr.Insert(Route{MakePrefix(0, 0), 7})
	r, ok := tr.Lookup(ip(203, 0, 113, 9))
	if !ok || r.NextLC != 7 {
		t.Fatal("default route not matched")
	}
}

func TestTrieReplace(t *testing.T) {
	var tr Trie
	p := MakePrefix(ip(10, 0, 0, 0), 8)
	tr.Insert(Route{p, 1})
	tr.Insert(Route{p, 2}) // replace
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace", tr.Len())
	}
	r, _ := tr.Lookup(ip(10, 1, 1, 1))
	if r.NextLC != 2 {
		t.Fatal("replace did not take effect")
	}
}

func TestTrieHostRoute(t *testing.T) {
	var tr Trie
	tr.Insert(Route{MakePrefix(ip(10, 0, 0, 0), 8), 1})
	tr.Insert(Route{MakePrefix(ip(10, 0, 0, 5), 32), 9})
	r, _ := tr.Lookup(ip(10, 0, 0, 5))
	if r.NextLC != 9 {
		t.Fatal("host route not preferred")
	}
	r, _ = tr.Lookup(ip(10, 0, 0, 6))
	if r.NextLC != 1 {
		t.Fatal("host route leaked to neighbour")
	}
}

func TestTrieRoutesSorted(t *testing.T) {
	var tr Trie
	tr.Insert(Route{MakePrefix(ip(10, 1, 0, 0), 16), 2})
	tr.Insert(Route{MakePrefix(ip(9, 0, 0, 0), 8), 1})
	tr.Insert(Route{MakePrefix(ip(10, 0, 0, 0), 8), 3})
	rs := tr.Routes()
	if len(rs) != 3 {
		t.Fatalf("Routes len = %d", len(rs))
	}
	if rs[0].Prefix.Len != 8 || rs[0].Prefix.Addr != ip(9, 0, 0, 0) || rs[2].Prefix.Len != 16 {
		t.Fatalf("Routes order wrong: %v", rs)
	}
}

// Contains reports whether the address falls inside the prefix.
func (p Prefix) Contains(addr uint32) bool {
	return addr&Mask(p.Len) == p.Addr
}

// Version returns the RP-assigned version of the snapshot.
func (t *Table) Version() uint64 { return t.version }

// linearLookup is the obviously correct LPM reference implementation.
func linearLookup(routes []Route, addr uint32) (Route, bool) {
	best := Route{Prefix: Prefix{Len: -1}}
	found := false
	for _, r := range routes {
		if r.Prefix.Contains(addr) && r.Prefix.Len > best.Prefix.Len {
			best = r
			found = true
		}
	}
	return best, found
}

// Property: the trie agrees with the linear-scan reference on random route
// sets and random lookups.
func TestTrieMatchesLinearScanProperty(t *testing.T) {
	f := func(seedRoutes []uint32, addrs []uint32) bool {
		var tr Trie
		var routes []Route
		for i, s := range seedRoutes {
			length := int(s % 33)
			p := MakePrefix(s, length)
			r := Route{p, i}
			// Mirror trie replace semantics in the reference list.
			replaced := false
			for j := range routes {
				if routes[j].Prefix == p {
					routes[j] = r
					replaced = true
					break
				}
			}
			if !replaced {
				routes = append(routes, r)
			}
			tr.Insert(r)
		}
		if tr.Len() != len(routes) {
			return false
		}
		for _, a := range addrs {
			got, gok := tr.Lookup(a)
			want, wok := linearLookup(routes, a)
			if gok != wok {
				return false
			}
			if gok && (got.NextLC != want.NextLC || got.Prefix != want.Prefix) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteProcessorDistribution(t *testing.T) {
	rp := NewRouteProcessor()
	rp.Announce(Route{MakePrefix(ip(10, 0, 0, 0), 8), 1})

	var got []*Table
	rp.Subscribe(func(tb *Table) { got = append(got, tb) })
	if len(got) != 1 {
		t.Fatal("Subscribe did not deliver the initial snapshot")
	}
	if lc, ok := got[0].Lookup(ip(10, 2, 3, 4)); !ok || lc != 1 {
		t.Fatal("initial snapshot missing route")
	}

	rp.Announce(Route{MakePrefix(ip(11, 0, 0, 0), 8), 2})
	v := rp.Distribute()
	if len(got) != 2 {
		t.Fatal("Distribute did not notify subscriber")
	}
	if got[1].Version() != v || v <= got[0].Version() {
		t.Fatalf("versions: first=%d second=%d returned=%d", got[0].Version(), got[1].Version(), v)
	}
	if lc, ok := got[1].Lookup(ip(11, 1, 1, 1)); !ok || lc != 2 {
		t.Fatal("second snapshot missing new route")
	}
	// Old snapshot is immutable: still lacks the new route.
	if _, ok := got[0].Lookup(ip(11, 1, 1, 1)); ok {
		t.Fatal("old snapshot mutated")
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	var tr Trie
	rng := uint32(12345)
	for i := 0; i < 10000; i++ {
		rng = rng*1664525 + 1013904223
		tr.Insert(Route{MakePrefix(rng, 8+int(rng%25)), int(rng % 16)})
	}
	b.ResetTimer()
	a := uint32(0)
	for i := 0; i < b.N; i++ {
		a = a*1664525 + 1013904223
		tr.Lookup(a)
	}
}
