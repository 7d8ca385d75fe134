package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/obs"
)

// layersResult is the JSON line the layers suite prints: per-layer metrics
// plus the output digests the driver cross-checks against the passes.
type layersResult struct {
	Metrics     map[string]float64 `json:"metrics"`
	SHA256      map[string]string  `json:"sha256"`
	WorkerExits []int              `json:"worker_exits"`
	Problems    []string           `json:"problems,omitempty"`
}

// Suite sizes: repetitions of the cheap in-memory steps (median reported),
// the targets placed on a topology the workload does not use, and the
// prefix the emitter is driven over. The emitter fsyncs a checkpoint every
// 64 records, so the whole list would take a minute on a disk-backed
// checkout; 2048 records give 32 checkpoints.
const (
	layerReps  = 3
	panelSize  = 256
	emitPrefix = 2048
)

// layersMain times each layer's public calls over the workload's target
// list, one step after another in this process:
//
//  1. campaign.Enumerate
//  2. ProbeArena.ProbeTargetInto per target, serially, with a telemetry
//     shard attached (probe latency, sim, netem, core)
//  3. TargetResult.AppendJSON + CSVRowEncoder.AppendRow (render)
//  4. Shard.Add + Aggregator.Summary (aggregate)
//  5. campaign.Run with a registry (scheduler, arenas)
//  6. Emitter.EmitSpan at the run's mean span size (emit, checkpoints)
//  7. dist.Serve with 2 spawned workers (dist plane)
//  8. the experiment drivers at the first experiment seed
func layersMain(args []string) error {
	c, err := parseFlags("layers", args, nil)
	if err != nil {
		return err
	}
	out := &layersResult{Metrics: map[string]float64{}, SHA256: map[string]string{}}
	tr := newTracer(true)
	if err := runLayers(c, tr, out); err != nil {
		out.Problems = append(out.Problems, err.Error())
	}
	if err := tr.write(c.workload + "-layers"); err != nil {
		out.Problems = append(out.Problems, err.Error())
	}
	return emit(out)
}

func runLayers(c common, tr *tracer, out *layersResult) error {
	m := out.Metrics
	samples := samplesFor(c.workload)

	// 1. Enumerate.
	var ts []campaign.Target
	enums := make([]int64, 0, layerReps)
	for i := 0; i < layerReps; i++ {
		sp := tr.begin("campaign.Enumerate", -1)
		var d time.Duration
		var err error
		ts, d, err = workloadTargets(c.workload, c.seed)
		tr.end(sp)
		if err != nil {
			return err
		}
		enums = append(enums, d.Nanoseconds())
	}
	n := len(ts)
	m["campaign.enumerate_s"] = float64(quantile(enums, 0.5)) / 1e9

	// 2. Serial probes, retrying as the scheduler does.
	arena := campaign.NewProbeArena()
	reg := obs.NewCampaign(1)
	arena.SetObserver(reg.Worker(0))
	results := make([]campaign.TargetResult, n)
	calls := make([]int64, 0, n+n/64)
	byTest := map[string][]int64{}
	byTopo := map[string][]int64{}
	var probeNs int64
	sp := tr.begin("campaign.ProbeTargetInto", -1)
	for i, t := range ts {
		for attempt := 0; ; attempt++ {
			start := time.Now()
			arena.ProbeTargetInto(&results[i], t, samples, attempt)
			d := time.Since(start).Nanoseconds()
			probeNs += d
			calls = append(calls, d)
			byTest[t.Test] = append(byTest[t.Test], d)
			byTopo[topologyOf(t)] = append(byTopo[topologyOf(t)], d)
			if results[i].Err == "" || attempt >= retries {
				break
			}
		}
	}
	tr.end(sp)
	m["campaign.probe_us.p50"] = float64(quantile(calls, 0.50)) / 1e3
	m["campaign.probe_us.p99"] = float64(quantile(calls, 0.99)) / 1e3
	for _, test := range campaign.Tests {
		m["campaign.probe_us.by_test."+test] = float64(quantile(byTest[test], 0.5)) / 1e3
	}
	panelArena := campaign.NewProbeArena()
	for _, topo := range campaign.TopologyNames() {
		ds := byTopo[topo]
		if len(ds) == 0 {
			sp := tr.begin("campaign.ProbeTargetInto@"+topo, -1)
			ds = probePanel(panelArena, ts, topo, samples)
			tr.end(sp)
		}
		m["campaign.probe_us.by_topology."+topo] = float64(quantile(ds, 0.5)) / 1e3
	}
	w := reg.Snapshot().Workers
	m["sim.events"] = float64(w.SimEvents)
	m["sim.events_per_target"] = float64(w.SimEvents) / float64(n)
	m["sim.host_ns_per_event"] = float64(probeNs) / float64(w.SimEvents)
	m["sim.reschedules"] = float64(w.SimReschedules)
	m["sim.peak_heap"] = float64(w.SimPeakHeap)
	m["netem.frame_hops"] = float64(w.FramesIn)
	m["netem.frames_born"] = float64(w.FramesBorn)
	m["netem.dropped"] = float64(w.FramesDrop)
	m["netem.swapped"] = float64(w.FramesSwap)
	m["netem.materialized"] = float64(w.Materialized)
	m["netem.host_ns_per_hop"] = float64(probeNs) / float64(w.FramesIn)
	coreFractions(results, samples, m)

	// 3. Render.
	enc := csvEncoder(ts)
	var jsonb, csvb []byte
	renders := make([]int64, 0, layerReps)
	for i := 0; i < layerReps; i++ {
		sp := tr.begin("campaign.render", -1)
		start := time.Now()
		var err error
		jsonb, csvb, err = render(enc, results, jsonb[:0], csvb[:0])
		renders = append(renders, time.Since(start).Nanoseconds())
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	m["campaign.render_ns_per_record"] = float64(quantile(renders, 0.5)) / float64(n)
	m["campaign.rendered_bytes"] = float64(len(jsonb) + len(csvb))
	out.SHA256["serial_jsonl"] = digest(jsonb)
	jsonb, csvb = nil, nil

	// 4. Aggregate.
	aggs := make([]int64, 0, layerReps)
	var sum *campaign.Summary
	for i := 0; i < layerReps; i++ {
		sp := tr.begin("campaign.aggregate", -1)
		start := time.Now()
		agg := campaign.NewAggregator(1)
		for j := range results {
			agg.Shard(0).Add(&results[j])
		}
		sum = agg.Summary()
		aggs = append(aggs, time.Since(start).Nanoseconds())
		tr.end(sp)
	}
	m["campaign.aggregate_s"] = float64(quantile(aggs, 0.5)) / 1e9
	out.SHA256["serial_summary"] = summaryDigest(sum)

	// 5. campaign.Run with a registry attached.
	inproc, spanClaims, err := instrumentedRun(ts, samples, tr, out)
	if err != nil {
		return err
	}
	span := (n + spanClaims - 1) / max(spanClaims, 1)

	// 6. Emit.
	if err := emitSuite(ts, results, samples, max(span, 1), tr, m); err != nil {
		return err
	}

	// 7. Dist.
	if err := distSuite(c, ts, samples, inproc, tr, out); err != nil {
		return err
	}

	// 8. Experiments.
	_, times, errs := runExperiments(experimentSeed(c.seed, 0), io.Discard, tr, -1)
	for name, d := range times {
		m["experiments."+name+"_s"] = d.Seconds()
	}
	for _, err := range errs {
		out.Problems = append(out.Problems, err.Error())
	}
	return nil
}

// topologyOf names a target's topology as the catalog does.
func topologyOf(t campaign.Target) string {
	if t.Topology == "" {
		return "p2p"
	}
	return t.Topology
}

// probePanel times up to panelSize targets, spread evenly over ts, placed
// on topo — the by_topology figure for a topology the workload lacks.
func probePanel(arena *campaign.ProbeArena, ts []campaign.Target, topo string, samples int) []int64 {
	if topo == "p2p" {
		topo = ""
	}
	stride := max(len(ts)/panelSize, 1)
	var res campaign.TargetResult
	var ds []int64
	for i := 0; i < len(ts); i += stride {
		t := ts[i]
		t.Topology = topo
		start := time.Now()
		arena.ProbeTargetInto(&res, t, samples, 0)
		ds = append(ds, time.Since(start).Nanoseconds())
	}
	return ds
}

// coreFractions derives the core-layer ratios from the probed records:
// valid samples over samples asked for (both directions), dual tests ruled
// out by IPID prevalidation, and records ending in a terminal error.
func coreFractions(results []campaign.TargetResult, samples int, m map[string]float64) {
	var valid, duals, excluded, errs int
	for i := range results {
		r := &results[i]
		valid += r.FwdValid + r.RevValid
		if r.Test == "dual" {
			duals++
			if r.DCTExcluded != "" {
				excluded++
			}
		}
		if r.Err != "" {
			errs++
		}
	}
	m["core.valid_sample_frac"] = float64(valid) / float64(2*samples*len(results))
	m["core.dct_excluded_frac"] = float64(excluded) / float64(max(duals, 1))
	m["campaign.error_record_frac"] = float64(errs) / float64(len(results))
}

// csvEncoder returns a row encoder with the columns a CSV sink over ts
// would have.
func csvEncoder(ts []campaign.Target) *campaign.CSVRowEncoder {
	enc := campaign.NewCSVRowEncoder()
	var topo, scn bool
	for _, t := range ts {
		topo = topo || t.Topology != ""
		scn = scn || t.Scenario != ""
	}
	if topo {
		enc.IncludeTopology()
	}
	if scn {
		enc.IncludeScenario()
	}
	return enc
}

// render appends the JSONL records and CSV rows of results.
func render(enc *campaign.CSVRowEncoder, results []campaign.TargetResult, jsonb, csvb []byte) ([]byte, []byte, error) {
	var err error
	for i := range results {
		jsonb = append(results[i].AppendJSON(jsonb), '\n')
		if csvb, err = enc.AppendRow(csvb, &results[i]); err != nil {
			return nil, nil, err
		}
	}
	return jsonb, csvb, nil
}

func summaryDigest(sum *campaign.Summary) string {
	var text bytes.Buffer
	sum.WriteText(&text)
	return digest(text.Bytes())
}

// instrumentedRun runs the list through campaign.Run at the campaign
// defaults with a registry attached and records the scheduler and arena
// counters. It returns the run's wall time and its span claims.
func instrumentedRun(ts []campaign.Target, samples int, tr *tracer, out *layersResult) (time.Duration, int, error) {
	dir, err := runDir("layers-run")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	cfg := campaignConfig(ts, samples, dir)
	reg := obs.NewCampaign(workers)
	cfg.Obs = reg
	sp := tr.begin("campaign.Run", -1)
	start := time.Now()
	sum, err := campaign.Run(cfg)
	wall := time.Since(start)
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	shas, _, err := verifyCampaign(cfg, sum)
	if err != nil {
		return 0, 0, err
	}
	out.SHA256["run_jsonl"], out.SHA256["run_summary"] = shas["jsonl"], shas["summary"]
	s := reg.Snapshot()
	m := out.Metrics
	m["campaign.retries"] = float64(s.Scheduler.Retries)
	m["campaign.attempts_per_target"] = float64(s.Workers.Attempts) / float64(s.Workers.Targets)
	m["campaign.backoff_s"] = float64(s.Scheduler.BackoffNanos) / 1e9
	m["campaign.window_stall_s"] = float64(s.Scheduler.WindowStallNanos) / 1e9
	m["campaign.span_claims"] = float64(s.Scheduler.SpanClaims)
	m["campaign.arena_reuse_frac"] = float64(s.Workers.ArenaResets) / float64(s.Workers.ArenaBuilds+s.Workers.ArenaResets)
	return wall, int(s.Scheduler.SpanClaims), nil
}

// emitSuite drives a checkpointing Emitter over the first emitPrefix
// records in spans of the given size, pre-rendered, timing each EmitSpan.
func emitSuite(ts []campaign.Target, results []campaign.TargetResult, samples, span int, tr *tracer, m map[string]float64) error {
	n := min(len(ts), emitPrefix)
	dir, err := runDir("layers-emit")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewCampaign(1)
	em, err := campaign.NewEmitter(campaign.Config{
		Targets: ts[:n], Samples: samples, Obs: reg,
		OutputPath:     filepath.Join(dir, "out.jsonl"),
		CSVPath:        filepath.Join(dir, "out.csv"),
		CheckpointPath: filepath.Join(dir, "out.ckpt"),
	})
	if err != nil {
		return err
	}
	em.StartRun(1)
	enc := csvEncoder(ts[:n])
	var jsonb, csvb []byte
	var emitNs int64
	spans := 0
	sp := tr.begin("campaign.EmitSpan", -1)
	for lo := 0; lo < n; lo += span {
		hi := min(lo+span, n)
		if jsonb, csvb, err = render(enc, results[lo:hi], jsonb[:0], csvb[:0]); err != nil {
			break
		}
		start := time.Now()
		err = em.EmitSpan(lo, hi, jsonb, csvb, nil)
		emitNs += time.Since(start).Nanoseconds()
		spans++
		if err != nil {
			break
		}
	}
	tr.end(sp)
	if _, ferr := em.Finish(err); ferr != nil {
		return ferr
	}
	m["campaign.emit_us_per_span"] = float64(emitNs) / float64(spans) / 1e3
	m["campaign.checkpoints"] = float64(reg.Sinks.Checkpoints.Load())
	m["campaign.flush_s"] = float64(reg.Sinks.FlushNanos.Sum()) / 1e9
	return nil
}

// distSuite runs the list through dist.Serve with 2 spawned workers and a
// registry attached. dist.overhead_s is its wall time minus the in-process
// run's.
func distSuite(c common, ts []campaign.Target, samples int, inproc time.Duration, tr *tracer, out *layersResult) error {
	dir, err := runDir("layers-dist")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := campaignConfig(ts, samples, dir)
	reg := obs.NewCampaign(workers)
	cfg.Obs = reg
	sp := tr.begin("dist.Spawn", -1)
	fl, err := startFleet(c, dir)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("dist.Serve", -1)
	start := time.Now()
	sum, err := fl.serve(cfg)
	serve := time.Since(start)
	tr.end(sp)
	for _, u := range fl.wait(err != nil) {
		out.WorkerExits = append(out.WorkerExits, u.Exit)
	}
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	shas, _, err := verifyCampaign(cfg, sum)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	out.SHA256["dist_jsonl"], out.SHA256["dist_summary"] = shas["jsonl"], shas["summary"]
	s := reg.Snapshot()
	m := out.Metrics
	m["dist.serve_s"] = serve.Seconds()
	m["dist.overhead_s"] = (serve - inproc).Seconds()
	m["dist.workers_joined"] = float64(fl.log.joined())
	m["dist.lease_reissues"] = float64(s.Dist.LeaseReissues)
	m["dist.reconnects"] = float64(s.Dist.Reconnects)
	return nil
}
