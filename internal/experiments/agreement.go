package experiments

import (
	"fmt"
	"io"
	"sort"
)

// AgreementPair is the §IV-B paired-difference comparison of two techniques
// across the surveyed hosts: for each host, their per-round rate series are
// compared at 99.9% confidence; NullFraction is the fraction of comparable
// hosts for which the difference is explicable by intra-test variability.
type AgreementPair struct {
	TestA, TestB string
	Direction    string // "forward" or "reverse"
	Hosts        int    // hosts with enough rounds of both tests
	NullOK       int    // hosts supporting the null hypothesis
}

// NullFraction returns NullOK/Hosts (the paper's 78%, 93%, ... numbers).
func (a AgreementPair) NullFraction() float64 {
	if a.Hosts == 0 {
		return 0
	}
	return float64(a.NullOK) / float64(a.Hosts)
}

// AgreementReport holds all pairwise comparisons.
type AgreementReport struct {
	Confidence float64
	Pairs      []AgreementPair
}

// Pair returns the comparison for (a, b, direction), if present.
func (rep *AgreementReport) Pair(a, b, dir string) (AgreementPair, bool) {
	for _, p := range rep.Pairs {
		if p.TestA == a && p.TestB == b && p.Direction == dir {
			return p, true
		}
	}
	return AgreementPair{}, false
}

// WriteText prints the pairwise table.
func (rep *AgreementReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "E4 technique agreement (paired-difference test @ %.1f%% confidence)\n", rep.Confidence*100)
	fmt.Fprintf(w, "%-10s %-10s %-8s %6s %7s %9s\n", "test-a", "test-b", "dir", "hosts", "null-ok", "fraction")
	for _, p := range rep.Pairs {
		fmt.Fprintf(w, "%-10s %-10s %-8s %6d %7d %8.0f%%\n",
			p.TestA, p.TestB, p.Direction, p.Hosts, p.NullOK, p.NullFraction()*100)
	}
}

// RunAgreement executes E4 over a completed survey. The comparison treats
// the two series as paired per round, under the paper's stationarity
// assumption (the measurements were taken at interleaved times).
func RunAgreement(survey *SurveyReport, confidence float64) *AgreementReport {
	if confidence == 0 {
		confidence = 0.999
	}
	rep := &AgreementReport{Confidence: confidence, Pairs: techniquePairs(TestNames)}
	// The table lists every forward pair before the reverse ones.
	sort.SliceStable(rep.Pairs, func(i, j int) bool { return rep.Pairs[i].Direction < rep.Pairs[j].Direction })
	for i := range rep.Pairs {
		p := &rep.Pairs[i]
		for _, h := range survey.Hosts {
			if null, ok := pairedNull(h.FwdSeries, h.RevSeries, *p, confidence); ok {
				p.Hosts++
				if null {
					p.NullOK++
				}
			}
		}
	}
	return rep
}
