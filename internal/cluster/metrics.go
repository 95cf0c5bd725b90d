package cluster

import (
	"repro/internal/obs"
)

// clusterMetrics is the router's instrument set. The cluster shares one
// registry with its nodes: each node's serve families carry a node=<id>
// label (injected at Join), while the router's own families below are
// unlabeled, so one /metrics scrape shows the whole topology — routing
// totals next to every node's cache behavior.
type clusterMetrics struct {
	reg *obs.Registry

	requests  *obs.Counter
	failovers *obs.Counter
	allDown   *obs.Counter
	handles   *obs.Counter
}

func newClusterMetrics(reg *obs.Registry, c *Cluster) *clusterMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &clusterMetrics{reg: reg}
	m.requests = reg.Counter("cluster_requests_total",
		"block-granular reads routed through the ring")
	m.failovers = reg.Counter("cluster_failovers_total",
		"extra replica attempts after a failed one")
	m.allDown = reg.Counter("cluster_all_replicas_down_total",
		"reads that exhausted every replica")
	m.handles = reg.Counter("cluster_handles_opened_total",
		"client sessions opened through the router")
	reg.GaugeFunc("cluster_nodes",
		"serve nodes currently on the ring",
		func() float64 {
			c.mu.RLock()
			defer c.mu.RUnlock()
			return float64(len(c.nodes))
		})
	return m
}
