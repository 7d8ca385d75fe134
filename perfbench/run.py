#!/usr/bin/env python3
"""Repository benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the checkout root. It builds perfbench/ (a Go module that imports
the repository through a replace directive) into .bench_build/, then starts
one fresh process per pass until S seconds of passes have run, checks every
pass's output, and prints one JSON line: the end-to-end metrics (--trace 0)
or the per-layer metrics (--trace 1). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin", "perfbench")

WORKLOADS = ("p2p-catalog", "topology-xtraffic", "dist-spawn2", "experiments")
MIN_PASSES = 3
# experiments passes cycle through this many experiment seeds.
EXPERIMENT_ROUNDS = 3
PASS_LIMIT_S = 120
# E1 verdicts must match simulator ground truth at the paper's 99.99% or
# better. Seeds 1 to 20 all give 100%.
E1_FLOOR = 0.9999

END_TO_END = {
    "targets_per_s": "targets/s",
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "e1_correct_frac": "ratio",
}

TOPOLOGIES = ("p2p", "bottleneck", "parallel-x2", "diamond", "multihop")
EXPERIMENTS = ("validation", "survey", "agreement", "timeseries", "baselines",
               "cooperative", "chaos", "congestion")
PER_LAYER = dict(
    [("campaign.enumerate_s", "s"),
     ("campaign.probe_us.p50", "us"),
     ("campaign.probe_us.p99", "us")]
    + [("campaign.probe_us.by_test." + t, "us") for t in ("single", "dual", "syn", "transfer")]
    + [("campaign.probe_us.by_topology." + t, "us") for t in TOPOLOGIES]
    + [("campaign.retries", "count"),
       ("campaign.attempts_per_target", "ratio"),
       ("campaign.backoff_s", "s"),
       ("campaign.window_stall_s", "s"),
       ("campaign.span_claims", "count"),
       ("campaign.render_ns_per_record", "ns"),
       ("campaign.rendered_bytes", "bytes"),
       ("campaign.emit_us_per_span", "us"),
       ("campaign.checkpoints", "count"),
       ("campaign.flush_s", "s"),
       ("campaign.aggregate_s", "s"),
       ("campaign.arena_reuse_frac", "ratio"),
       ("campaign.error_record_frac", "ratio"),
       ("dist.serve_s", "s"),
       ("dist.overhead_s", "s"),
       ("dist.workers_joined", "count"),
       ("dist.lease_reissues", "count"),
       ("dist.reconnects", "count"),
       ("sim.events", "count"),
       ("sim.events_per_target", "count"),
       ("sim.host_ns_per_event", "ns"),
       ("sim.reschedules", "count"),
       ("sim.peak_heap", "count"),
       ("netem.frame_hops", "count"),
       ("netem.frames_born", "count"),
       ("netem.dropped", "count"),
       ("netem.swapped", "count"),
       ("netem.materialized", "count"),
       ("netem.host_ns_per_hop", "ns"),
       ("core.valid_sample_frac", "ratio"),
       ("core.dct_excluded_frac", "ratio")]
    + [("experiments.%s_s" % e, "s") for e in EXPERIMENTS]
    + [("trace.overhead_frac", "ratio")])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the measuring binary. The Go cache, GOPATH and the go
    command's telemetry counters (under the user config directory) all stay
    inside the checkout."""
    env = dict(os.environ,
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOPATH=os.path.join(BUILD, "gopath"),
               XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
               GOTOOLCHAIN="local", GOWORK="off", GOENV="off", GOFLAGS="",
               CGO_ENABLED="0")
    os.makedirs(os.path.dirname(BIN), exist_ok=True)
    p = subprocess.run(["go", "build", "-o", BIN, "."], cwd=os.path.join(ROOT, "perfbench"),
                       env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if p.returncode != 0:
        log(p.stdout.decode(errors="replace"))
        raise SystemExit("perfbench: build failed")


def stop_group(pgid):
    """Kills what is left of a process group and waits until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_proc(args, limit=PASS_LIMIT_S):
    """Runs the binary in its own process group. Returns its parsed result
    line (None if it printed none), exit code, rusage and launch time."""
    launch_ns = time.time_ns()
    p = subprocess.Popen([BIN] + args, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    out = bytearray()
    deadline = time.monotonic() + limit
    fd = p.stdout.fileno()
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            log("perfbench: %s timed out after %ds" % (" ".join(args), limit))
            stop_group(p.pid)
            break
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        out += chunk
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    stop_group(p.pid)
    lines = out.decode(errors="replace").strip().splitlines()
    res = None
    if lines:
        try:
            res = json.loads(lines[-1])
        except ValueError:
            pass
    return res, p.returncode, ru, launch_ns


def run_pass(workload, seed, index, traced=False):
    """Pass number index in a fresh process, reduced to a record of its
    figures and the problems found in it."""
    rnd = index % EXPERIMENT_ROUNDS if workload == "experiments" else 0
    args = ["pass", "-workload", workload, "-seed", str(seed), "-round", str(rnd)]
    if traced:
        args.append("-traced")
    res, code, ru, launch_ns = run_proc(args)
    problems = []
    if res is None:
        return {"problems": ["pass exited %d without a result" % code], "units": 0, "round": rnd}
    if code != 0:
        problems.append("pass exited %d" % code)
    problems += res.get("problems", [])
    workers = res.get("workers") or []
    problems += ["worker %d exited %d" % (i, w["exit"]) for i, w in enumerate(workers) if w["exit"] != 0]
    units = res["units"]
    run_s = res["run_s"]
    return {
        "problems": problems,
        "round": rnd,
        "units": units,
        "run_s": run_s,
        "targets_per_s": units / run_s if run_s > 0 else 0.0,
        "setup_s": (res["ready_unix_ns"] - launch_ns) / 1e9,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": (res["self_maxrss_kb"] + sum(w["maxrss_kb"] for w in workers)) * 1024 / 1e6,
        "e1_correct_frac": res.get("e1_correct_frac"),
        "workers_joined": res.get("workers_joined", 0),
        "error_records": res.get("error_records", 0),
        "sha256": res.get("sha256") or {},
        "workers": workers,
        "fs": res.get("fs"),
        "gomaxprocs": res.get("gomaxprocs"),
        "go_version": res.get("go_version"),
    }


def list_key(workload):
    """Workloads over the same target list share their output digests."""
    return "catalog" if workload in ("p2p-catalog", "dist-spawn2") else workload


def check_digests(workload, seed, passes, problems):
    """Every pass of a run, and every run of a checkout, at one seed and
    round must produce the same output bytes."""
    first = {}
    for i, p in enumerate(passes):
        ref = first.setdefault(p["round"], p["sha256"])
        if p["sha256"] != ref:
            problems.append("pass %d output differs from the first pass of round %d" % (i, p["round"]))
    for rnd, digests in first.items():
        path = os.path.join(BUILD, "digests", "%s-seed%d-round%d.json" % (list_key(workload), seed, rnd))
        if os.path.exists(path):
            with open(path) as f:
                if json.load(f) != digests:
                    problems.append("output differs from an earlier run at seed %d (%s)" % (seed, path))
        elif digests:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                json.dump(digests, f)


def e1_fraction(seed, problems):
    res, code, _, _ = run_proc(["e1", "-seed", str(seed)])
    if res is None or code != 0 or res.get("runs") != 114:
        problems.append("e1 validation failed (exit %d)" % code)
        return 0.0
    return res["e1_correct_frac"]


def passes_until(seconds, make):
    """Calls make(i) for cycles i = 0, 1, ... until MIN_PASSES cycles ran and
    another would overrun the run's seconds, or a cycle fails. make returns
    the cycle's passes."""
    cycles, walls = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        batch = make(len(cycles))
        walls.append(time.monotonic() - t0)
        cycles.append(batch)
        if any(p["problems"] for p in batch):
            break
        if len(cycles) >= MIN_PASSES and time.monotonic() - start + statistics.median(walls) > seconds:
            break
    return cycles


def median(passes, key):
    return statistics.median(p[key] for p in passes)


def cycle_size(workload):
    """Passes per cycle: experiments passes each run one round's seed, so a
    cycle of EXPERIMENT_ROUNDS passes does the same work in every run."""
    return EXPERIMENT_ROUNDS if workload == "experiments" else 1


def measure(workload, seed, seconds, problems):
    """--trace 0: timed passes with telemetry off. Work and time figures are
    medians over cycles (summed within one); set-up and memory, medians over
    passes."""
    e1 = None if workload == "experiments" else e1_fraction(seed, problems)
    ref = None
    if workload == "dist-spawn2":
        # The reference: the same list in process, whose bytes the
        # coordinator and workers must reproduce.
        ref = run_pass("p2p-catalog", seed, 0)
        problems += ["reference pass: " + p for p in ref["problems"]]
    k = cycle_size(workload)
    cycles = passes_until(seconds, lambda i: [run_pass(workload, seed, i * k + r) for r in range(k)])
    passes = [p for c in cycles for p in c]
    for i, p in enumerate(passes):
        problems += ["pass %d: %s" % (i, q) for q in p["problems"]]
        if workload == "experiments" and (p.get("e1_correct_frac") or 0) < E1_FLOOR:
            problems.append("pass %d: E1 correct fraction below %.4f" % (i, E1_FLOOR))
    ok = [c for c in cycles if not any(p["problems"] for p in c)]
    if not ok:
        return passes, {}
    ok_passes = [p for c in ok for p in c]
    check_digests(workload, seed, ok_passes, problems)
    if ref is not None and not ref["problems"] and ok_passes[0]["sha256"] != ref["sha256"]:
        problems.append("dist output (JSONL, CSV or summary) differs from the in-process run")
    sums = [{"run_s": sum(p["run_s"] for p in c), "cpu_s": sum(p["cpu_s"] for p in c),
             "units": sum(p["units"] for p in c)} for c in ok]
    metrics = {
        "targets_per_s": statistics.median(c["units"] / c["run_s"] for c in sums),
        "run_s": median(sums, "run_s"),
        "cpu_s": median(sums, "cpu_s"),
        "setup_s": median(ok_passes, "setup_s"),
        "peak_rss_mb": median(ok_passes, "peak_rss_mb"),
        "e1_correct_frac": median(ok_passes, "e1_correct_frac") if e1 is None else e1,
    }
    if e1 is not None and e1 < E1_FLOOR:
        problems.append("E1 correct fraction %.6f below %.4f" % (e1, E1_FLOOR))
    return passes, metrics


def measure_traced(workload, seed, seconds, problems):
    """--trace 1: untraced and traced passes alternate (their run_s ratio is
    the tracing overhead), then the per-layer suite runs once."""
    pairs = passes_until(seconds, lambda i: [run_pass(workload, seed, i), run_pass(workload, seed, i, traced=True)])
    passes = [p for pair in pairs for p in pair]
    for i, p in enumerate(passes):
        problems += ["pass %d: %s" % (i, q) for q in p["problems"]]
    ok = [p for p in passes if not p["problems"]]
    metrics = {}
    if not ok or len(ok) < len(passes):
        return passes, metrics
    check_digests(workload, seed, ok, problems)
    res, code, _, _ = run_proc(["layers", "-workload", workload, "-seed", str(seed)], limit=150)
    if res is None or code != 0:
        problems.append("layers suite exited %d" % code)
        return passes, metrics
    problems += ["layers: " + q for q in res.get("problems", [])]
    if any(res.get("worker_exits") or []):
        problems.append("layers: dist worker exit codes %s" % res["worker_exits"])
    # The serial probes, campaign.Run and dist.Serve must emit the same
    # records and summary, and for a campaign workload the passes' too.
    for kind in ("jsonl", "summary"):
        got = {res["sha256"].get(src + "_" + kind) for src in ("serial", "run", "dist")}
        if workload != "experiments":
            got.add(ok[0]["sha256"][kind])
        if len(got) != 1:
            problems.append("layers: %s digests disagree: %s" % (kind, sorted(map(str, got))))
    metrics = dict(res["metrics"])
    untraced = [pair[0] for pair in pairs]
    traced = [pair[1] for pair in pairs]
    metrics["trace.overhead_frac"] = median(traced, "run_s") / median(untraced, "run_s") - 1
    return passes, {k: v for k, v in metrics.items() if k in PER_LAYER}


def source_digest():
    """Identifies the code measured when the checkout has no git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return p.stdout.decode().strip() or "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    problems = []
    if a.trace:
        passes, metrics = measure_traced(a.workload, a.seed, a.seconds, problems)
        units = PER_LAYER
    else:
        passes, metrics = measure(a.workload, a.seed, a.seconds, problems)
        units = END_TO_END
    if set(metrics) != set(units):
        problems.append("metrics missing: " + ", ".join(sorted(set(units) - set(metrics))))
    # A run that fails any check, a worker's exit included, counts all the
    # work it attempted as failed.
    attempted = max(sum(p["units"] for p in passes), 1)
    failed = attempted if problems else 0
    correct = not problems

    first = next((p for p in passes if p.get("go_version")), {})
    tags = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "host": platform.node(), "nproc": len(os.sched_getaffinity(0)),
        "gomaxprocs": first.get("gomaxprocs"), "go_version": first.get("go_version"),
        "git_revision": git_revision(), "source_sha256": source_digest(),
        "output_fs": first.get("fs"), "passes": len(passes),
    }
    record = {"tags": tags, "passes": passes, "metrics": metrics, "problems": problems}
    os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (a.workload, a.seed, a.trace, time.time_ns())
    with open(os.path.join(BUILD, "records", name), "w") as f:
        json.dump(record, f, indent=1)

    print("# " + " ".join("%s=%s" % kv for kv in tags.items()))
    for i, p in enumerate(passes):
        if "run_s" in p:
            print("# pass %d: run_s=%.4f setup_s=%.4f cpu_s=%.3f peak_rss_mb=%.1f units=%d "
                  "error_records=%d workers_joined=%d" % (
                      i, p["run_s"], p["setup_s"], p["cpu_s"], p["peak_rss_mb"], p["units"],
                      p["error_records"], p["workers_joined"]))
    for k in sorted(metrics):
        print("# %-40s %16.6g %s" % (k, metrics[k], units[k]))
    for q in problems:
        print("# PROBLEM: " + q)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
