// Package workload generates the synthetic traffic used by the executable
// router model. The paper's performance analysis assumes uniform loads L
// in [0.15, 0.7] of each LC's capacity, citing measured Internet link
// utilizations; the Poisson generator realizes that assumption as a
// packet process.
package workload

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/xrand"
)

// Generator produces the next packet arrival for one ingress LC.
type Generator interface {
	// Next returns the inter-arrival time to the next packet (in the same
	// time unit as rates were configured in) and the packet itself (with
	// SrcLC/Proto/Bytes/DstIP filled in; DstLC is left to the LFE). The
	// packet comes from the packet pool: ownership transfers to the
	// caller, which must packet.Release it when its journey ends.
	Next() (dt float64, p *packet.Packet)
}

// AddrPool draws destination addresses that are guaranteed to resolve via
// the route set installed by Routes: each egress LC lc owns the /8 prefix
// (10+lc).0.0.0/8.
type AddrPool struct {
	rng     *xrand.Source
	numLCs  int
	exclude int
}

// NewAddrPool builds a pool whose addresses spread uniformly over the
// egress LCs 0..numLCs-1, excluding the LC with index exclude (a router
// does not normally hairpin traffic back out the ingress card; pass -1 to
// allow all).
func NewAddrPool(rng *xrand.Source, numLCs, exclude int) *AddrPool {
	if numLCs <= 0 || (exclude >= 0 && numLCs == 1) {
		panic("workload: address pool needs at least one eligible egress LC")
	}
	return &AddrPool{rng: rng, numLCs: numLCs, exclude: exclude}
}

// PrefixFor returns the /8 network address owned by egress LC lc.
func PrefixFor(lc int) uint32 { return uint32(10+lc) << 24 }

// Draw returns a routable destination address.
func (a *AddrPool) Draw() uint32 {
	for {
		lc := a.rng.Intn(a.numLCs)
		if lc == a.exclude {
			continue
		}
		host := uint32(a.rng.Uint64()) & 0x00ffffff
		return PrefixFor(lc) | host
	}
}

// PacketSize models a simple trimodal Internet packet-size mix: 40-byte
// minimum (ACKs), 576-byte, and 1500-byte MTU packets in roughly the
// proportions long observed on backbone links.
func PacketSize(rng *xrand.Source) int {
	u := rng.Float64()
	switch {
	case u < 0.5:
		return 40
	case u < 0.75:
		return 576
	default:
		return 1500
	}
}

// meanPacketBits is the mean size of PacketSize in bits, used to convert a
// target bit rate into a packet rate.
const meanPacketBits = (0.5*40 + 0.25*576 + 0.25*1500) * 8

// Poisson is a Poisson packet-arrival generator targeting a fixed offered
// load in bits per time unit.
type Poisson struct {
	rng    *xrand.Source
	pool   *AddrPool
	srcLC  int
	proto  packet.Protocol
	bitsPS float64
	pktPS  float64
	nextID *uint64
}

// NewPoisson creates a Poisson generator for ingress LC srcLC offering
// load×capacity bits per time unit. ids provides unique packet IDs shared
// across generators.
func NewPoisson(rng *xrand.Source, pool *AddrPool, srcLC int, proto packet.Protocol, bitsPerUnit float64, ids *uint64) (*Poisson, error) {
	if bitsPerUnit <= 0 {
		return nil, fmt.Errorf("workload: offered load must be positive, got %g", bitsPerUnit)
	}
	return &Poisson{
		rng:    rng,
		pool:   pool,
		srcLC:  srcLC,
		proto:  proto,
		bitsPS: bitsPerUnit,
		pktPS:  bitsPerUnit / meanPacketBits,
		nextID: ids,
	}, nil
}

// Next implements Generator.
func (g *Poisson) Next() (float64, *packet.Packet) {
	dt := g.rng.Exp(g.pktPS)
	*g.nextID++
	p := packet.Get()
	p.ID = *g.nextID
	p.SrcLC = g.srcLC
	p.DstIP = g.pool.Draw()
	p.DstLC = -1
	p.Proto = g.proto
	p.Bytes = PacketSize(g.rng)
	return dt, p
}

// Routes returns the route set matching the AddrPool addressing scheme for
// a router with numLCs linecards.
func Routes(numLCs int) []RouteSpec {
	out := make([]RouteSpec, numLCs)
	for lc := 0; lc < numLCs; lc++ {
		out[lc] = RouteSpec{Addr: PrefixFor(lc), Len: 8, NextLC: lc}
	}
	return out
}

// RouteSpec is a plain route description, kept free of the forwarding
// package so workload has no dependency on it.
type RouteSpec struct {
	Addr   uint32
	Len    int
	NextLC int
}
