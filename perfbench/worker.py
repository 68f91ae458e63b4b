"""One repetition of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload uber_n16 --seeds 1 --mode plain

Modes:

* ``plain``  -- the end-to-end run: telemetry registry and profiler off,
  as in a default ``repro dapp`` run.  Simulates each seed in turn and
  reports host times, peak RSS and each simulated-clock outcome.
* ``traced`` -- the same run with every layer entry point wrapped
  (:mod:`tracer`); reports spans and the per-layer counts read from
  public state after the run.
* ``probe``  -- the same run under ``tracemalloc`` with the lifecycle
  recorder on; reports retained memory by package, live consensus
  instances and the simulated pool wait.  Kept apart from ``traced`` so
  allocation tracking never inflates a span.

Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import numpy as np  # noqa: E402

import cases  # noqa: E402

#: packages whose retained memory the probe reports
MEMORY_PACKAGES = ("consensus", "core", "vm", "net")


def _host_interval():
    """(wall, process + children CPU) clocks, in seconds."""
    own = time.process_time()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.perf_counter(), own + children.ru_utime + children.ru_stime


def run_plain(name: str, seeds: "list[int]", tiny: bool) -> dict:
    """Simulate each seed in turn; host times are summed over them."""
    case = cases.CASES[name]
    setup_s = run_s = run_cpu_s = 0.0
    outcomes = []
    events = 0
    for seed in seeds:
        start = time.perf_counter()
        prep = case.setup(seed, tiny)
        setup_s += time.perf_counter() - start
        wall0, cpu0 = _host_interval()
        cases.drive(prep)
        result = cases.collect(prep)
        wall1, cpu1 = _host_interval()
        run_s += wall1 - wall0
        run_cpu_s += cpu1 - cpu0
        events += prep.deployment.sim.events_processed
        outcomes.append(cases.sim_outcome(prep, result))
        del prep, result
        gc.collect()
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "events": events,
        "outcomes": outcomes,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _layer_counts(prep, tracer, hooks: dict, outcome: dict) -> dict:
    """Per-layer work counts read from public state after the run."""
    deployment = prep.deployment
    validators = deployment.validators
    stats = deployment.network.stats
    gossip_received = sum(v.gossip.stats.received for v in validators)
    gossip_dup = sum(v.gossip.stats.duplicates_suppressed for v in validators)
    batches = sum(v.vote_batcher.batches_sent for v in validators)
    votes = sum(v.vote_batcher.votes_batched for v in validators)
    observer = deployment.correct_validators[0]
    included = sum(len(sb.blocks) for sb in observer.journal.superblocks.values())
    proposed = sum(v.stats.blocks_proposed for v in validators)
    sig_checks = tracer.fn_calls["repro.core.validation:check_signature"][0]
    sig_recomputed = tracer.fn_calls["repro.crypto.keys:recover_check"][0]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "net.simulator.events": deployment.sim.events_processed,
        "net.transport.messages": stats.messages,
        "net.transport.bytes": stats.bytes,
        "net.transport.logical_messages": stats.logical_messages,
        "net.transport.retransmissions": stats.retransmissions,
        "net.transport.dropped": stats.dropped,
        "net.transport.duplicates_dropped": stats.duplicates_dropped,
        "net.gossip.redundancy": ratio(gossip_dup, gossip_received),
        "consensus.batching.votes_per_batch": ratio(votes, batches),
        "consensus.superblock.inclusion_ratio": ratio(included, proposed),
        "core.txpool.refused": hooks["refused"],
        "core.validation.rejected_share": ratio(hooks["rejected"], hooks["validated"]),
        "core.validation.sig_cache_hit_ratio": 1.0 - ratio(sig_recomputed, sig_checks),
        "vm.executor.failed_share": ratio(hooks["failed"], hooks["executed"]),
        "core.rpm.reports": sum(v.stats.rpm_reports for v in validators),
        "core.rpm.exclusion_s": outcome["excluded_at"] or 0.0,
        "core.catchup.requests": stats.by_kind.get("catchup-req", [0, 0])[0],
    }


def run_traced(name: str, seeds: "list[int]", tiny: bool) -> dict:
    from tracer import Tracer, empty_span_cost_ns

    (seed,) = seeds
    span_cost_ns = empty_span_cost_ns()
    hooks = {"refused": 0, "validated": 0, "rejected": 0, "executed": 0, "failed": 0}

    def on_add(admitted):
        hooks["refused"] += not admitted

    def on_validate(outcome):
        hooks["validated"] += 1
        hooks["rejected"] += not outcome.ok

    def on_commit(result):
        hooks["executed"] += len(result.receipts)
        hooks["failed"] += sum(1 for r in result.receipts if not r.success)

    tracer = Tracer()

    def wrap_factory(fn):
        return tracer.wrap(fn, "workloads", "workloads:build")

    tracer.install({
        "repro.core.txpool:TxPool.add": on_add,
        "repro.core.validation:eager_validate": on_validate,
        "repro.core.validation:lazy_validate": on_validate,
        "repro.core.blockchain:Blockchain.commit_superblock": on_commit,
    })
    try:
        case = cases.CASES[name]
        prep = tracer.phase("setup", lambda: case.setup(seed, tiny, wrap_factory))
        tracer.phase("run", lambda: cases.drive(prep))
        result = tracer.phase("collect", lambda: cases.collect(prep))
    finally:
        tracer.uninstall()
    outcome = cases.sim_outcome(prep, result)
    return {
        "span_cost_ns": span_cost_ns,
        "spans": tracer.export(),
        "totals": tracer.totals(),
        "counts": _layer_counts(prep, tracer, hooks, outcome),
        "sim": outcome,
    }


def run_probe(name: str, seeds: "list[int]", tiny: bool) -> dict:
    import tracemalloc

    from repro.consensus.dbft import BinaryConsensus
    from repro.consensus.superblock import SuperBlockConsensus
    from repro.telemetry.lifecycle import LifecycleRecorder, use_recorder

    (seed,) = seeds
    recorder = LifecycleRecorder()
    tracemalloc.start()
    with use_recorder(recorder):
        prep = cases.CASES[name].setup(seed, tiny)
        cases.drive(prep)
        result = cases.collect(prep)
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()

    retained = dict.fromkeys(MEMORY_PACKAGES, 0)
    for stat in snapshot.statistics("filename"):
        parts = stat.traceback[0].filename.replace(os.sep, "/").split("/repro/")
        if len(parts) > 1:
            package = parts[-1].split("/")[0]
            if package in retained:
                retained[package] += stat.size
    gc.collect()
    live = sum(
        1 for obj in gc.get_objects()
        if type(obj) in (SuperBlockConsensus, BinaryConsensus)
    )
    waits = [
        tl.times["propose"] - tl.times["pool"]
        for tl in recorder.resolve_all()
        if "pool" in tl.times and "propose" in tl.times
    ]
    waits = np.array(waits) if waits else np.zeros(1)
    return {
        "retained_mb": {k: v / 2**20 for k, v in retained.items()},
        "live_instances": live,
        "txpool_wait_p50_s": float(np.percentile(waits, 50)),
        "txpool_wait_p99_s": float(np.percentile(waits, 99)),
        "sim": cases.sim_outcome(prep, result),
    }


MODES = {"plain": run_plain, "traced": run_traced, "probe": run_probe}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.CASES))
    parser.add_argument(
        "--seeds", required=True,
        help="comma-separated; plain mode simulates each in turn, the others take one",
    )
    parser.add_argument("--mode", choices=sorted(MODES), default="plain")
    parser.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = parser.parse_args(argv)
    # Warnings go to stderr exactly as in a default ``repro`` CLI run.
    from repro.telemetry import configure_logging

    configure_logging(0)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    out = MODES[args.mode](args.workload, seeds, args.tiny)
    out["mode"] = args.mode
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
