package experiments

import (
	"slices"

	"reorder/internal/campaign"
	"reorder/internal/stats"
)

// Cell aggregates one group×test combination of a paired-comparison
// campaign. A group is a fault scenario in the chaos experiment and a
// topology in the congestion experiment.
type Cell struct {
	Group    string
	Topology string // the group's topology ("" = point-to-point)
	Test     string
	Targets  int // probes that produced a measurement
	Excluded int // probes excluded (errors, IPID prevalidation)
	Errored  int // of Excluded, probes that ended in a hard error
	// Reordering is the fraction of measurements with at least one
	// reordered sample.
	Reordering float64
	// MeanFwdRate and MeanRevRate average the per-probe reordering rates.
	MeanFwdRate, MeanRevRate float64
}

// Comparison is the outcome of a paired-comparison campaign: per-cell
// incidence plus, per group, the technique-agreement pairs.
type Comparison struct {
	Cells      []Cell
	Agreement  map[string][]AgreementPair
	Confidence float64
}

// Cell returns the (group, test) cell, if present.
func (c *Comparison) Cell(group, test string) (Cell, bool) {
	for _, cell := range c.Cells {
		if cell.Group == group && cell.Test == test {
			return cell, true
		}
	}
	return Cell{}, false
}

// groups returns the group names in report order.
func (c *Comparison) groups() []string {
	var out []string
	for i, cell := range c.Cells {
		if i == 0 || cell.Group != c.Cells[i-1].Group {
			out = append(out, cell.Group)
		}
	}
	return out
}

// cellGroup is one group of a comparison pass and the targets it probes.
// The pass fills in the spec's tests, replica count and base seed.
type cellGroup struct {
	name, topology string
	spec           campaign.EnumSpec
}

// comparePass configures one paired-comparison campaign.
type comparePass struct {
	groups     []cellGroup
	tests      []string
	replicas   int // seeds per group×test cell (default 8)
	samples    int // samples per probe (default 16)
	workers    int
	seed       uint64
	confidence float64 // for the paired-difference test (default 99.9%)
}

// run enumerates every group's targets, probes them through the campaign
// machinery, aggregates one Cell per group×test and pairs the techniques
// within each group. Replica r of every technique derives from the same
// seed (the test is excluded from seed derivation), so the series index
// pairs are genuinely paired measurements of the same path.
func (p comparePass) run() (*Comparison, error) {
	if p.replicas <= 0 {
		p.replicas = 8
	}
	if p.samples <= 0 {
		p.samples = 16
	}
	if p.confidence == 0 {
		p.confidence = 0.999
	}
	var targets []campaign.Target
	var cellOf []int // target index → cell index
	cells := make([]Cell, 0, len(p.groups)*len(p.tests))
	for _, g := range p.groups {
		spec := g.spec
		spec.Tests, spec.Seeds, spec.BaseSeed = p.tests, p.replicas, p.seed
		ts, err := campaign.Enumerate(spec)
		if err != nil {
			return nil, err
		}
		for i := range ts {
			ts[i].Index = len(targets) + i
			cellOf = append(cellOf, len(cells)+slices.Index(p.tests, ts[i].Test))
		}
		targets = append(targets, ts...)
		for _, test := range p.tests {
			cells = append(cells, Cell{Group: g.name, Topology: g.topology, Test: test})
		}
	}

	fwd := make([]map[string][]float64, len(p.groups))
	rev := make([]map[string][]float64, len(p.groups))
	for gi := range p.groups {
		fwd[gi], rev[gi] = map[string][]float64{}, map[string][]float64{}
	}
	// Results arrive in index order, so each series is in replica order.
	sink := campaign.FuncSink(func(r *campaign.TargetResult) error {
		k := cellOf[r.Index]
		c, gi := &cells[k], k/len(p.tests)
		// Keep series index-aligned across techniques: an excluded replica
		// pairs as a zero-rate measurement. Under schedules that kill
		// connections outright (RST injection) the hard errors ARE the
		// divergence, and zero-rate is exactly what the broken technique
		// reports.
		fr, rr := 0.0, 0.0
		if r.Err != "" || r.DCTExcluded != "" {
			c.Excluded++
			if r.Err != "" {
				c.Errored++
			}
		} else {
			c.Targets++
			if r.AnyReordering {
				c.Reordering++
			}
			c.MeanFwdRate += r.FwdRate
			c.MeanRevRate += r.RevRate
			fr, rr = r.FwdRate, r.RevRate
		}
		fwd[gi][c.Test] = append(fwd[gi][c.Test], fr)
		rev[gi][c.Test] = append(rev[gi][c.Test], rr)
		return nil
	})
	if _, err := campaign.Run(campaign.Config{
		Targets: targets, Samples: p.samples, Workers: p.workers,
		Sinks: []campaign.Sink{sink},
	}); err != nil {
		return nil, err
	}

	for i := range cells {
		if c := &cells[i]; c.Targets > 0 {
			c.Reordering /= float64(c.Targets)
			c.MeanFwdRate /= float64(c.Targets)
			c.MeanRevRate /= float64(c.Targets)
		}
	}
	cmp := &Comparison{Cells: cells, Agreement: map[string][]AgreementPair{}, Confidence: p.confidence}
	for gi, g := range p.groups {
		var pairs []AgreementPair
		for _, pair := range techniquePairs(p.tests) {
			if null, ok := pairedNull(fwd[gi], rev[gi], pair, p.confidence); ok {
				pair.Hosts = 1
				if null {
					pair.NullOK = 1
				}
				pairs = append(pairs, pair)
			}
		}
		cmp.Agreement[g.name] = pairs
	}
	return cmp, nil
}

// techniquePairs lists the technique pairs of tests, each pair in both
// directions, forward first. The transfer test measures only the reverse
// path, so it has no forward pairs.
func techniquePairs(tests []string) []AgreementPair {
	var pairs []AgreementPair
	for i, a := range tests {
		for _, b := range tests[i+1:] {
			for _, dir := range []string{"forward", "reverse"} {
				if dir == "forward" && (a == "transfer" || b == "transfer") {
					continue
				}
				pairs = append(pairs, AgreementPair{TestA: a, TestB: b, Direction: dir})
			}
		}
	}
	return pairs
}

// pairedNull runs the §IV-B paired-difference test on pair's two rate
// series, taken from fwd or rev by its direction and truncated to their
// common length. null reports whether the difference is explicable by
// intra-test variability; ok is false when fewer than three rounds pair
// up.
func pairedNull(fwd, rev map[string][]float64, pair AgreementPair, confidence float64) (null, ok bool) {
	series := fwd
	if pair.Direction == "reverse" {
		series = rev
	}
	a, b := series[pair.TestA], series[pair.TestB]
	n := min(len(a), len(b))
	if n < 3 {
		return false, false
	}
	return stats.PairDifference(a[:n], b[:n], confidence).NullSupported, true
}

// fanOut runs job(i) for every i in [0, n) on the campaign scheduler and
// returns the lowest-index error. Each job writes only its own index's
// results, so the outcome is identical at any worker count.
func fanOut(n, workers int, job func(i int) error) error {
	errs := make([]error, n)
	sched := campaign.NewScheduler(campaign.SchedulerConfig{Workers: workers})
	return sched.RunSpans(0, n, nil,
		func(_, i, _ int) error {
			errs[i] = job(i)
			return nil
		},
		// Spans emit in index order, so the first error seen is the
		// lowest-index one; returning it cancels the rest of the run.
		func(lo, hi int) error {
			for _, err := range errs[lo:hi] {
				if err != nil {
					return err
				}
			}
			return nil
		})
}
