"""The repository benchmark: one workload, end to end or traced by layer.

    python3 perfbench/run.py --workload uber_n16 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Every simulation runs in a fresh
single-threaded ``worker.py`` process, one after another, with the
program's telemetry registry and profiler off.

``--trace 0`` repeats the workload (each repetition a fresh process per
sub-seed) until ``--seconds`` have passed, at least twice, and reports the
median of each host-clock metric.  Simulated-clock metrics are exact under
a seed: every repetition must reproduce them and the chain digest
bit for bit.  One more simulation on a second seed, never used while the
benchmark was tuned, must pass the same correctness gate.

``--trace 1`` runs the first sub-seed three times: untraced, with every
layer's entry points wrapped (:mod:`tracer`), and under ``tracemalloc``
with the lifecycle recorder on.  It reports the per-layer metrics and
writes the aggregated span table under ``.perfbench/``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit, as named in
``BENCHMARK.json``).  A failed correctness check is named on stderr and
the exit code is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: offset between a run's sub-seeds, and to its second (gate-only) seed
SUBSEED_STRIDE = 7919
SECOND_SEED_OFFSET = 1_000_003
#: repetitions per --trace 0 run: at least two (the determinism check),
#: at most this many however short the workload
MAX_REPS = 9
#: one simulation may not take longer than this (seconds)
WORKER_TIMEOUT_S = 170

HOST_METRICS = ("setup_s", "run_s", "run_cpu_s", "peak_rss_mb")

#: units of the metrics printed but not listed in BENCHMARK.json:
#: tx_failed_share is 0 whenever the gate passes, and recovery_s exists
#: on flood_crash_n4 only
REPORT_ONLY_UNITS = {"tx_failed_share": "ratio", "recovery_s": "s"}


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(workload: str, seeds: "list[int]", mode: str, tiny: bool) -> dict:
    """Run a fresh worker process and return its report."""
    env = dict(os.environ)
    # numpy must not start thread pools: the host measures one thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", workload,
         "--seeds", ",".join(map(str, seeds)),
         "--mode", mode] + (["--tiny"] if tiny else []),
        capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-15:])
        fail(f"worker {mode} {workload} seeds {seeds} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.splitlines()[-1])


def failed_checks(outcome: dict, label: str) -> "list[str]":
    return [
        f"{label}: {check}" for check, ok in outcome["checks"].items() if not ok
    ]


def repetition(case, seeds: "list[int]", tiny: bool) -> dict:
    """One repetition: a fresh process simulating every sub-seed."""
    import cases

    run = spawn(case.name, seeds, "plain", tiny)
    outcomes = run["outcomes"]
    digest = hashlib.sha256()
    problems = []
    for seed, outcome in zip(seeds, outcomes):
        digest.update(outcome["digest"].encode())
        problems += failed_checks(outcome, f"seed {seed}")
    return {
        **{name: run[name] for name in HOST_METRICS},
        "sim": cases.pooled_metrics(outcomes),
        "digest": digest.hexdigest(),
        "sent": sum(o["sent"] for o in outcomes),
        "committed": sum(o["committed"] for o in outcomes),
        "samples": [len(o["latencies_s"]) for o in outcomes],
        "problems": problems,
    }


def end_to_end(
    case, seed: int, seconds: float, tiny: bool, units: "dict[str, str]"
) -> "tuple[dict, int, int, list[str]]":
    seeds = [seed + SUBSEED_STRIDE * k for k in range(case.subseeds)]
    second = seed + SECOND_SEED_OFFSET
    print(
        f"seed {seed}: the measured seed; sub-seeds {seeds} are simulated in "
        "every repetition (latency percentiles are the median of theirs). "
        f"Second seed {second}: never used while tuning, runs the "
        "correctness gate once so a claim can be checked on it."
    )
    print(
        "load: open-loop and pre-scheduled (every transaction signed in "
        "set-up, submitted at its due simulated time), so generator "
        "lateness is 0 s in simulated time; latency is timed from the due "
        "send time to the (f+1)-th correct validator's commit."
    )
    reps = []
    start = time.perf_counter()
    while len(reps) < 2 or (
        time.perf_counter() - start < seconds and len(reps) < MAX_REPS
    ):
        reps.append(repetition(case, seeds, tiny))
    extra = spawn(case.name, [second], "plain", tiny)["outcomes"][0]

    problems = list(reps[0]["problems"])
    problems += failed_checks(extra, f"second seed {second}")
    first = reps[0]
    for i, rep in enumerate(reps[1:], start=2):
        if rep["digest"] != first["digest"]:
            problems.append(f"determinism: repetition {i} chain digest differs")
        if rep["sim"] != first["sim"]:
            problems.append(f"determinism: repetition {i} simulated metrics differ")

    metrics = dict(first["sim"])
    for name in HOST_METRICS:
        metrics[name] = statistics.median(rep[name] for rep in reps)
    print(
        f"repetitions: {len(reps)} fresh processes of {len(seeds)} simulation(s) "
        "each; host metrics are medians over repetitions, simulated metrics "
        "identical in every one"
    )
    print(f"chain digest: {first['digest']}")
    fewest = min(first["samples"])
    print(
        f"latency samples: {sum(first['samples'])} committed of {first['sent']} "
        f"valid sent; at least {fewest} per simulation, {fewest // 100} beyond its p99"
    )
    for name, value in sorted(metrics.items()):
        line = f"  {name:<22} {value:>14.6g} {units.get(name, '')}"
        if name in HOST_METRICS:
            values = " ".join(f"{rep[name]:.4g}" for rep in reps)
            line += f"   repetitions: {values}"
        print(line)
    attempted = sum(rep["sent"] for rep in reps) + extra["sent"]
    failed = attempted - sum(rep["committed"] for rep in reps) - extra["committed"]
    return metrics, attempted, failed, problems


def traced(case, seed: int, tiny: bool) -> "tuple[dict, int, int, list[str]]":
    from tracer import LAYERS

    print(f"traced run, seed {seed}: untraced, traced and memory-probe processes")
    plain = spawn(case.name, [seed], "plain", tiny)
    spans = spawn(case.name, [seed], "traced", tiny)
    probe = spawn(case.name, [seed], "probe", tiny)

    problems = []
    outcome = plain["outcomes"][0]
    runs = (("untraced", outcome), ("traced", spans["sim"]), ("probe", probe["sim"]))
    for label, sim in runs:
        problems += failed_checks(sim, f"{label} seed {seed}")
        if sim["digest"] != outcome["digest"]:
            problems.append(f"{label} run changed the chain digest")

    totals = spans["totals"]
    phases = {k: v for k, v in totals.items() if k.startswith("phase.")}
    total_s = sum(v["inclusive_s"] for v in phases.values())
    metrics: dict = {}
    for layer in LAYERS:
        entry = totals.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.self_s"] = entry["self_s"]
    metrics["other.self_s"] = sum(v["self_s"] for v in phases.values())
    accounted = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["other.self_s"]
    if abs(accounted - total_s) > 1e-6 * max(total_s, 1.0):
        problems.append(f"span accounting: self times sum to {accounted} of {total_s} s")
    traced_run_s = phases["phase.run"]["inclusive_s"] + phases["phase.collect"]["inclusive_s"]
    metrics["tracing.total_s"] = total_s
    metrics["tracing.overhead_s"] = traced_run_s - plain["run_s"]
    metrics["tracing.span_cost_ns"] = spans["span_cost_ns"]
    metrics.update(spans["counts"])
    metrics["net.simulator.us_per_event"] = 1e6 * plain["run_s"] / plain["events"]
    metrics["consensus.live_instances"] = probe["live_instances"]
    metrics["core.txpool.wait_p50_s"] = probe["txpool_wait_p50_s"]
    metrics["core.txpool.wait_p99_s"] = probe["txpool_wait_p99_s"]
    for package, mb in probe["retained_mb"].items():
        metrics[f"{package}.retained_mb"] = mb

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{case.name}-{seed}.json")
    with open(path, "w") as out:
        json.dump({"workload": case.name, "seed": seed, "spans": spans["spans"]}, out, indent=1)
    print(f"span table: {os.path.relpath(path, ROOT)}")
    print(f"traced total {total_s:.3f} s; untraced run_s {plain['run_s']:.3f} s")
    print(f"  {'layer':<22} {'calls':>10} {'self_s':>10} {'share':>7}")
    rows = [(layer, metrics[f"{layer}.calls"], metrics[f"{layer}.self_s"]) for layer in LAYERS]
    rows.append(("other", sum(v["calls"] for v in phases.values()), metrics["other.self_s"]))
    for layer, calls, self_s in sorted(rows, key=lambda row: -row[2]):
        print(f"  {layer:<22} {calls:>10} {self_s:>10.4f} {self_s / total_s:>7.1%}")
    return metrics, outcome["sent"], outcome["sent"] - outcome["committed"], problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail(f"program source not found at {SRC}/repro; run from a repository checkout")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as spec_file:
        spec = json.load(spec_file)
    sys.path[:0] = [SRC, HERE]
    import cases

    case = cases.CASES.get(args.workload)
    if case is None:
        fail(f"unknown workload {args.workload!r}; options: {sorted(cases.CASES)}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {case.name}: {why.get(case.name, 'not listed in BENCHMARK.json')}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.trace:
        metrics, attempted, failed, problems = traced(case, args.seed, args.tiny)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics, attempted, failed, problems = end_to_end(
            case, args.seed, args.seconds, args.tiny, {**REPORT_ONLY_UNITS, **units}
        )
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not produced: {missing}")
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print("correctness: " + ("all checks passed" if not problems else f"{len(problems)} failed"))
    print(json.dumps({
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
