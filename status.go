package dra

import (
	"fmt"
	"strings"
)

// SystemReport renders a human-readable status page for a router: per-LC
// component health, coverage bindings, fabric state, EIB counters, and
// traffic totals — what an operator's "show system" would print.
func SystemReport(r *Router) string {
	var b strings.Builder
	fmt.Fprintf(&b, "router: %d linecards, %s architecture\n", r.NumLCs(), r.LC(0).Arch())

	fmt.Fprintf(&b, "\nlinecards:\n")
	for i := 0; i < r.NumLCs(); i++ {
		lc := r.LC(i)
		state := "healthy"
		if failed := lc.FailedComponents(); len(failed) > 0 {
			parts := make([]string, len(failed))
			for j, c := range failed {
				parts[j] = c.String()
			}
			state = "FAILED: " + strings.Join(parts, ", ")
		}
		service := "up"
		if !r.CanDeliver(i) {
			service = "DOWN"
		}
		cover := ""
		if peer := r.CoverPeer(i); peer >= 0 {
			cover = fmt.Sprintf("  covered-by=LC%d", peer)
		}
		fmt.Fprintf(&b, "  LC%-2d %-11s ports %d/%d  service %-4s %-24s%s\n",
			i, lc.Protocol(), lc.PortsUp(), lc.Ports(), service, state, cover)
	}

	fab := r.Fabric()
	fmt.Fprintf(&b, "\nfabric: %d/%d cards healthy, capacity %.0f%%\n",
		fab.HealthyCards(), fab.Config().Cards, 100*fab.CapacityFraction())

	if bus := r.Bus(); bus != nil {
		state := "up"
		if bus.Failed() {
			state = "DOWN"
		}
		fmt.Fprintf(&b, "EIB: %s, %d active LPs, %d control packets, %d collisions\n",
			state, bus.ActiveLPs(), bus.CtrlPackets, bus.Collisions)
	}

	m := r.Metrics()
	fmt.Fprintf(&b, "traffic: delivered %d, dropped %d, via-EIB %d, remote-lookups %d\n",
		m.Delivered, m.Dropped, m.ViaEIB, m.RemoteLookups)
	if m.Delivered > 0 {
		fmt.Fprintf(&b, "mean latency: %.2f µs\n", m.LatencySum/float64(m.Delivered)*1e6)
	}
	if len(m.DropReasons) > 0 {
		fmt.Fprintf(&b, "drop reasons:\n")
		for _, reason := range sortedKeys(m.DropReasons) {
			fmt.Fprintf(&b, "  %-40s %d\n", reason, m.DropReasons[reason])
		}
	}
	return b.String()
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	return keys
}
