package figures

import (
	"fmt"

	"svbench/internal/cluster"
	"svbench/internal/isa"
)

// The multi-machine cluster study (internal/cluster): each shipped
// DeathStarBench-style topology against every ISA, projected as a
// topology × arch end-to-end latency matrix. Fabric runs are internally
// sequential; the worker pool parallelizes across (topology, arch)
// points, and the projected Data is identical for every jobs value.

// clusterRequests and clusterRPS are the load the figure drives through
// each topology: enough requests for stable tail percentiles at a rate
// that keeps the service graphs busy without saturating them.
const (
	clusterRequests = 20
	clusterRPS      = 2000
)

// TableCluster runs every shipped topology on each arch and projects
// per-topology end-to-end latency percentiles, network traffic and
// executed instructions.
func TableCluster(arches []isa.Arch, seed uint64, jobs int, log func(string)) (Data, error) {
	var cfgs []cluster.Config
	for _, top := range cluster.Topologies() {
		for _, arch := range arches {
			cfgs = append(cfgs, cluster.Config{
				Topology: top,
				Arch:     arch,
				Requests: clusterRequests,
				RPS:      clusterRPS,
				Seed:     seed,
			})
		}
	}
	reports, err := cluster.RunMany(cfgs, jobs)
	if err != nil {
		return Data{}, err
	}
	d := Data{
		ID: "table-cluster",
		Title: fmt.Sprintf("Cluster topologies × arch: e2e latency, %d req @ %.0f rps (seed %d)",
			clusterRequests, float64(clusterRPS), seed),
		Columns: []string{"machines", "p50 us", "p95 us", "p99 us",
			"net msgs", "net KB", "insts M"},
	}
	for i, rep := range reports {
		label := fmt.Sprintf("%s/%s", cfgs[i].Topology.Name, cfgs[i].Arch)
		if log != nil {
			log(fmt.Sprintf("cluster %s: p50 %.1f us, p99 %.1f us, %d msgs",
				label, float64(rep.Latency.P50)/1e3, float64(rep.Latency.P99)/1e3, rep.NetMsgs))
		}
		d.Rows = append(d.Rows, Row{
			Label: label,
			Values: []float64{
				float64(rep.Machines),
				float64(rep.Latency.P50) / 1e3,
				float64(rep.Latency.P95) / 1e3,
				float64(rep.Latency.P99) / 1e3,
				float64(rep.NetMsgs),
				float64(rep.NetBytes) / 1e3,
				float64(rep.Instructions) / 1e6,
			},
		})
	}
	return d, nil
}
