package experiments

import (
	"fmt"
	"io"

	"reorder/internal/campaign"
)

// CongestionConfig parameterizes the routed-topology experiment: a campaign
// over graph topologies whose only source of reordering is congestion —
// background TCP flows contending for shared router queues and parallel
// link bundles — measured by the paper's single-packet, dual-packet and
// SACK-based (data transfer) techniques and cross-checked for agreement.
type CongestionConfig struct {
	// Topologies are registry names (default: every named topology,
	// "p2p" control included).
	Topologies []string
	// Replicas is how many seeds per topology×test cell (default 8).
	Replicas int
	// Samples per probe (default 16).
	Samples int
	// Workers caps campaign parallelism (default: GOMAXPROCS).
	Workers int
	// Seed offsets the derived per-target seeds.
	Seed uint64
	// Confidence for the paired-difference agreement test (default 99.9%).
	Confidence float64
}

// congestionTests are the techniques compared: single-packet, dual-packet
// and the SACK-based data transfer test, per the acceptance scenario.
var congestionTests = []string{"single", "dual", "transfer"}

// CongestionReport is the experiment's output: per-cell reordering
// incidence plus, per topology, the technique-agreement pairs. A cell's
// Group is its topology.
type CongestionReport struct{ Comparison }

// WriteText prints the per-cell table and the per-topology agreement pairs.
func (rep *CongestionReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "congestion-induced reordering over routed topologies (clean paths, cross-traffic only)\n")
	fmt.Fprintf(w, "%-12s %-9s %7s %8s %10s %9s %9s\n",
		"topology", "test", "targets", "excluded", "reordering", "fwd-rate", "rev-rate")
	for _, c := range rep.Cells {
		fmt.Fprintf(w, "%-12s %-9s %7d %8d %9.0f%% %9.4f %9.4f\n",
			c.Topology, c.Test, c.Targets, c.Excluded, c.Reordering*100, c.MeanFwdRate, c.MeanRevRate)
	}
	fmt.Fprintf(w, "\ntechnique agreement per topology (paired-difference @ %.1f%% confidence)\n", rep.Confidence*100)
	fmt.Fprintf(w, "%-12s %-10s %-10s %-8s %6s %7s\n", "topology", "test-a", "test-b", "dir", "series", "null-ok")
	for _, topo := range rep.groups() {
		for _, p := range rep.Agreement[topo] {
			fmt.Fprintf(w, "%-12s %-10s %-10s %-8s %6d %7d\n",
				topo, p.TestA, p.TestB, p.Direction, p.Hosts, p.NullOK)
		}
	}
}

// RunCongestion executes the routed-topology experiment: enumerate
// topology × test × replica targets over the clean impairment (so any
// reordering is congestion's doing), probe them through the campaign
// machinery, and compare technique verdicts per topology.
func RunCongestion(cfg CongestionConfig) (*CongestionReport, error) {
	if len(cfg.Topologies) == 0 {
		cfg.Topologies = campaign.TopologyNames()
	}
	pass := comparePass{
		tests: congestionTests, replicas: cfg.Replicas, samples: cfg.Samples,
		workers: cfg.Workers, seed: cfg.Seed, confidence: cfg.Confidence,
	}
	for _, topo := range cfg.Topologies {
		pass.groups = append(pass.groups, cellGroup{name: topo, topology: topo, spec: campaign.EnumSpec{
			Profiles:    []string{"freebsd4"},
			Impairments: []string{"clean"},
			Topologies:  []string{topo},
		}})
	}
	cmp, err := pass.run()
	if err != nil {
		return nil, err
	}
	return &CongestionReport{*cmp}, nil
}
