package experiments

import (
	"fmt"
	"io"

	"reorder/internal/campaign"
)

// ChaosConfig parameterizes the fault-schedule experiment: a campaign over
// the adversarial scenario catalog — time-varying impairment timelines,
// mid-flow route flaps, hostile middleboxes — measured by the paper's
// single-packet, dual-packet and SYN techniques and cross-checked for
// agreement. Where the congestion experiment asks whether clean routed
// paths reorder at all, this one asks which measurement techniques survive
// a path that actively misbehaves.
type ChaosConfig struct {
	// Scenarios are registry names (default: every named scenario). The ""
	// static control is always prepended so each technique has a fault-free
	// baseline cell.
	Scenarios []string
	// Replicas is how many seeds per scenario×test cell (default 8).
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

// chaosTests are the techniques compared. The SYN test rides along because
// its probes carry no data: middleboxes that only molest data segments
// (RST/FIN injection, sequence holes) leave it untouched, which is exactly
// the kind of technique divergence a fault schedule should expose.
var chaosTests = []string{"single", "dual", "syn"}

// ChaosReport is the experiment's output: per-cell incidence plus, per
// scenario, the technique-agreement pairs. A cell's Group is its scenario
// ("" = the static control).
type ChaosReport struct{ Comparison }

// Disagreements returns the scenarios with at least one agreement pair
// whose null hypothesis (same mean rate from both techniques) is rejected
// — the schedules that measurably split the techniques apart.
func (rep *ChaosReport) Disagreements() []string {
	var out []string
	for _, scn := range rep.groups() {
		for _, p := range rep.Agreement[scn] {
			if p.Hosts > 0 && p.NullOK == 0 {
				out = append(out, scn)
				break
			}
		}
	}
	return out
}

// WriteText prints the per-cell table and the per-scenario agreement pairs.
func (rep *ChaosReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "technique robustness under time-varying and adversarial fault schedules\n")
	fmt.Fprintf(w, "%-15s %-10s %-7s %7s %8s %7s %10s %9s %9s\n",
		"scenario", "topology", "test", "targets", "excluded", "errors", "reordering", "fwd-rate", "rev-rate")
	for _, c := range rep.Cells {
		name, topo := c.Group, c.Topology
		if name == "" {
			name = "(static)"
		}
		if topo == "" {
			topo = "p2p"
		}
		fmt.Fprintf(w, "%-15s %-10s %-7s %7d %8d %7d %9.0f%% %9.4f %9.4f\n",
			name, topo, c.Test, c.Targets, c.Excluded, c.Errored,
			c.Reordering*100, c.MeanFwdRate, c.MeanRevRate)
	}
	fmt.Fprintf(w, "\ntechnique agreement per scenario (paired-difference @ %.1f%% confidence)\n", rep.Confidence*100)
	fmt.Fprintf(w, "%-15s %-8s %-8s %-8s %6s %7s\n", "scenario", "test-a", "test-b", "dir", "series", "null-ok")
	for _, scn := range rep.groups() {
		name := scn
		if name == "" {
			name = "(static)"
		}
		for _, p := range rep.Agreement[scn] {
			fmt.Fprintf(w, "%-15s %-8s %-8s %-8s %6d %7d\n",
				name, p.TestA, p.TestB, p.Direction, p.Hosts, p.NullOK)
		}
	}
	if d := rep.Disagreements(); len(d) > 0 {
		fmt.Fprintf(w, "\nschedules splitting the techniques apart (null rejected): %v\n", d)
	}
}

// RunChaos executes the fault-schedule experiment: enumerate scenario ×
// test × replica targets over the swap-heavy impairment (a solid baseline
// every technique measures the same), pair each scenario with the topology
// it was designed around, probe through the campaign machinery, and compare
// technique verdicts per schedule.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = campaign.ScenarioNames()
	}
	pass := comparePass{
		tests: chaosTests, replicas: cfg.Replicas, samples: cfg.Samples,
		workers: cfg.Workers, seed: cfg.Seed, confidence: cfg.Confidence,
	}
	for _, scn := range append([]string{""}, cfg.Scenarios...) {
		topo := campaign.ScenarioTopology(scn)
		pass.groups = append(pass.groups, cellGroup{name: scn, topology: topo, spec: campaign.EnumSpec{
			Profiles:    []string{"freebsd4"},
			Impairments: []string{"swap-heavy"},
			Topologies:  []string{topo},
			Scenarios:   []string{scn},
		}})
	}
	cmp, err := pass.run()
	if err != nil {
		return nil, err
	}
	return &ChaosReport{*cmp}, nil
}
