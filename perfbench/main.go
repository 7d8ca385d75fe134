// Command perfbench is the measuring half of the repository benchmark.
// run.py builds it and starts one fresh process per pass, so every pass
// owns its heap, arenas and rusage:
//
//	perfbench pass   -workload W -seed N [-round R] [-traced]  one timed pass, one JSON line
//	perfbench layers -workload W -seed N                      per-layer suite, one JSON line
//	perfbench worker -workload W -seed N -connect A           dist worker, spawned by a pass
//	perfbench e1     -seed N                                  E1 correct fraction, one JSON line
//
// Every workload is a fixed work list generated from the seed; the program
// only ever sees the generated targets and configs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/experiments"
)

// Campaign knobs: cmd/campaign's defaults, at 2 workers.
const (
	workers         = 2
	campaignSamples = 8
	retries         = 1
	backoff         = 50 * time.Millisecond

	// catalogBaseSeed is cmd/campaign's default -seed. The campaign
	// workloads probe the fixed population it enumerates; the benchmark
	// seed draws the order in which they are probed, so every seed does
	// the same work (the same 59 retries and the one solaris8/lossy/transfer
	// terminal-error record at 350 seeds) in a different schedule.
	catalogBaseSeed = 719
	catalogSeeds    = 350
	topologySeeds   = 2

	// experimentSamples is what RunChaos and RunCongestion probe with.
	experimentSamples = 16
)

var (
	workloadNames    = []string{"p2p-catalog", "topology-xtraffic", "dist-spawn2", "experiments"}
	routedTopologies = []string{"bottleneck", "parallel-x2", "diamond", "multihop"}
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench pass|layers|worker|e1 [flags]")
		os.Exit(2)
	}
	var err error
	switch mode, args := os.Args[1], os.Args[2:]; mode {
	case "pass":
		err = passMain(args)
	case "layers":
		err = layersMain(args)
	case "worker":
		err = workerMain(args)
	case "e1":
		err = e1Main(args)
	default:
		err = fmt.Errorf("unknown mode %q", mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// common holds the flags every mode shares.
type common struct {
	workload string
	seed     uint64
}

func parseFlags(name string, args []string, extra func(fs *flag.FlagSet)) (common, error) {
	var c common
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload name")
	fs.Uint64Var(&c.seed, "seed", 1, "benchmark seed")
	if extra != nil {
		extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if name == "e1" {
		return c, nil
	}
	for _, w := range workloadNames {
		if w == c.workload {
			return c, nil
		}
	}
	return c, fmt.Errorf("unknown workload %q", c.workload)
}

// isCampaign reports whether a workload's timed work is a campaign run.
func isCampaign(workload string) bool { return workload != "experiments" }

// samplesFor is the per-measurement sample count of a workload's targets.
func samplesFor(workload string) int {
	if isCampaign(workload) {
		return campaignSamples
	}
	return experimentSamples
}

// experimentSeed derives the experiment seed of round i of a benchmark
// seed. run.py cycles experiments passes through rounds 0, 1 and 2.
func experimentSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

// workloadTargets builds a workload's target list and reports how long the
// campaign.Enumerate calls took. The campaign workloads shuffle the fixed
// population by the seed; experiments returns the lists RunChaos and
// RunCongestion probe at the first experiment seed.
func workloadTargets(workload string, seed uint64) ([]campaign.Target, time.Duration, error) {
	var specs []campaign.EnumSpec
	switch workload {
	case "p2p-catalog", "dist-spawn2":
		specs = []campaign.EnumSpec{{Seeds: catalogSeeds, BaseSeed: catalogBaseSeed}}
	case "topology-xtraffic":
		specs = []campaign.EnumSpec{{Seeds: topologySeeds, BaseSeed: catalogBaseSeed, Topologies: routedTopologies}}
	case "experiments":
		specs = experimentSpecs(experimentSeed(seed, 0))
	}
	var all []campaign.Target
	var enum time.Duration
	for _, spec := range specs {
		start := time.Now()
		ts, err := campaign.Enumerate(spec)
		enum += time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		all = append(all, ts...)
	}
	if isCampaign(workload) {
		rng := rand.New(rand.NewPCG(seed, 0x70657266))
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	}
	for i := range all {
		all[i].Index = i
	}
	return all, enum, nil
}

// experimentSpecs mirrors the enumerations of experiments.RunChaos (static
// control plus every scenario, each on its paired topology) and
// experiments.RunCongestion (every topology over the clean path).
func experimentSpecs(seed uint64) []campaign.EnumSpec {
	var specs []campaign.EnumSpec
	for _, scn := range append([]string{""}, campaign.ScenarioNames()...) {
		spec := campaign.EnumSpec{
			Profiles: []string{"freebsd4"}, Impairments: []string{"swap-heavy"},
			Tests: []string{"single", "dual", "syn"}, Seeds: 8, BaseSeed: seed,
		}
		if scn != "" {
			spec.Scenarios = []string{scn}
		}
		if topo := campaign.ScenarioTopology(scn); topo != "" {
			spec.Topologies = []string{topo}
		}
		specs = append(specs, spec)
	}
	return append(specs, campaign.EnumSpec{
		Profiles: []string{"freebsd4"}, Impairments: []string{"clean"},
		Tests: []string{"single", "dual", "transfer"}, Seeds: 8, BaseSeed: seed,
		Topologies: campaign.TopologyNames(),
	})
}

// runDir creates a fresh output directory under .bench_build/runs. Every
// mode runs from the checkout root, and paths stay relative to it: unix
// socket paths are capped near 108 bytes, and the checkout may be deep.
func runDir(tag string) (string, error) {
	base := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, tag+"-")
}

// fsType names the filesystem holding dir, for the run record.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// selfMaxRSSKB is this process's peak resident set in KiB.
func selfMaxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// emit prints v as the process's single JSON result line.
func emit(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// quantile returns the q-quantile of ns (sorted in place), nearest rank.
func quantile(ns []int64, q float64) int64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	i := int(q * float64(len(ns)))
	if i >= len(ns) {
		i = len(ns) - 1
	}
	return ns[i]
}

func e1Main(args []string) error {
	c, err := parseFlags("e1", args, nil)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultValidation()
	cfg.Seed = experimentSeed(c.seed, 0)
	cfg.Workers = workers
	rep := experiments.RunValidation(cfg)
	return emit(map[string]any{"e1_correct_frac": rep.CorrectFraction(), "runs": len(rep.Runs)})
}
