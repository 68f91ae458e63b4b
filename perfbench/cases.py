"""The benchmark's three workloads, built only through the program's public API.

Each workload is an open-loop, pre-scheduled DIABLO load on the
message-level engine: every transaction is signed during set-up and
submitted at its due simulated time, so generator lateness is zero in
simulated time.  A case's ``setup`` returns a :class:`Prepared` run,
:func:`drive` runs it (start -> run_until), :func:`collect` reads the
client metrics, and :func:`sim_outcome` reads the counts, latencies,
chain digest and correctness checks from public state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import params
from repro.core.deployment import Deployment
from repro.diablo.benchmark import BenchmarkResult, DiabloBenchmark
from repro.diablo.client import LoadSchedule, RoundRobinSubmitter
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology
from repro.workloads import fifa, synthetic, uber
from repro.workloads.trace import Trace

#: simulated-time grid on which the laggard's height and the attacker's
#: exclusion are sampled (fixed, so ``recovery_s`` is deterministic)
SAMPLE_GRID_S = 0.05


@dataclass
class Prepared:
    """A workload ready to start: deployment, signed schedule, collector."""

    deployment: Deployment
    schedule: LoadSchedule
    bench: DiabloBenchmark
    horizon_s: float
    #: every valid transaction must commit (checked by the gate)
    require_all_committed: bool = True
    #: Byzantine seat that must end excluded and slashed, if any
    attacker: "int | None" = None
    #: simulated time the attacker's seat restarts after its crash
    restart_at: "float | None" = None
    #: first grid times of the attacker's exclusion and the laggard's
    #: catch-up ("excluded_at", "caught_up_at"), filled during the run
    samples: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Case:
    """A workload; why each was chosen is stated in BENCHMARK.json."""

    name: str
    setup: Callable[[int, bool, Callable], Prepared]
    #: simulations pooled per repetition, each from its own sub-seed
    subseeds: int = 1


def _identity(factory):
    return factory


def _windowed(trace: Trace, scale: float, window_s: int) -> Trace:
    """The first ``window_s`` seconds of ``trace`` at ``scale`` of its rate."""
    scaled = trace.scaled(scale, name=trace.name)
    return Trace(name=trace.name, counts_per_second=scaled.counts_per_second[:window_s])


def _dapp(
    seed: int,
    wrap: Callable,
    *,
    trace: Trace,
    factory_fn: Callable,
    clients: int,
    n: int,
    grace_s: float,
    genesis_setup=None,
) -> Prepared:
    # Mirrors run_dapp_workload, split so the phases can be timed apart.
    # Program functions are looked up through their modules at call time,
    # so the traced run's wrappers see these calls.
    factory = wrap(factory_fn(clients=clients, seed=seed + 40))
    deployment = Deployment(
        protocol=params.ProtocolParams(n=n, tvpr=True, rpm=False),
        topology=single_region_topology(n),
        extra_balances=synthetic.factory_balances(factory),
        seed=seed,
        genesis_setup=genesis_setup,
    )
    schedule = LoadSchedule.from_trace(trace, factory)
    return Prepared(
        deployment=deployment,
        schedule=schedule,
        bench=DiabloBenchmark(deployment, submitter=RoundRobinSubmitter()),
        horizon_s=schedule.duration_s + grace_s,
    )


def setup_uber_n16(seed: int, tiny: bool = False, wrap: Callable = _identity) -> Prepared:
    if tiny:
        trace, n = _windowed(uber.uber_trace(), 0.01, 2), 4
    else:
        # 12 s of the Uber envelope at 1/10 rate: 1036 request_ride calls.
        trace, n = _windowed(uber.uber_trace(), 0.1, 12), 16
    return _dapp(
        seed, wrap, trace=trace, factory_fn=uber.uber_request_factory,
        clients=16, n=n, grace_s=3.0,
    )


def setup_fifa_n4(seed: int, tiny: bool = False, wrap: Callable = _identity) -> Prepared:
    if tiny:
        trace = _windowed(fifa.fifa_trace(), 0.002, 2)
    else:
        # 60 s of the FIFA envelope (first sale surge included) at 1/20
        # rate: 10 303 buy_ticket calls at 150-265 TPS.
        trace = _windowed(fifa.fifa_trace(), 0.05, 60)
    return _dapp(
        seed, wrap, trace=trace, factory_fn=fifa.fifa_request_factory,
        clients=128, n=4, grace_s=4.0, genesis_setup=fifa.fifa_genesis_setup,
    )


def setup_flood_crash_n4(
    seed: int, tiny: bool = False, wrap: Callable = _identity
) -> Prepared:
    # run_byzantine_chaos's schedule shape, inside the f=1 budget: seat 3
    # floods invalid transactions, withholds its votes, crashes and
    # restarts, under 5% link loss behind reliable delivery, while 1500
    # valid transfers go to the honest seats.  The flood lasts 5 s so some
    # of its blocks are always decided: RPM can only slash on committed
    # evidence, and with a 2 s flood some seeds decided none of them.
    attacker = 3
    restart_at = 13.0
    faults = (
        FaultSchedule(seed=seed + 13)
        .drop_rate(0.05, until=9.0)
        .byzantine_flood(
            attacker, at=1.0, until=6.0, per_block=300, total=1_500,
            seed=seed + 112,
        )
        .byzantine_withhold(attacker, at=6.0, until=9.0)
        .crash(attacker, at=10.0)
        .restart(attacker, at=restart_at)
    )
    faults.validate(n=4, f=1)
    trace = synthetic.constant_trace(4, 2) if tiny else synthetic.constant_trace(100, 15)
    factory = wrap(synthetic.transfer_request_factory(clients=24, seed=seed + 5200))
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, rpm=True, watchdog_stall_rounds=8),
        topology=single_region_topology(4),
        extra_balances=synthetic.factory_balances(factory),
        net_params=params.NetParams(reliable_delivery=True),
        fault_schedule=faults,
        seed=seed,
        execution_rate=2_000.0,
    )
    schedule = LoadSchedule.from_trace(trace, factory)
    return Prepared(
        deployment=deployment,
        schedule=schedule,
        # the valid load goes to the honest seats only
        bench=DiabloBenchmark(
            deployment, submitter=RoundRobinSubmitter(targets=(0, 1, 2))
        ),
        horizon_s=max(schedule.duration_s, restart_at) + 5.0,
        require_all_committed=False,
        attacker=attacker,
        restart_at=restart_at,
    )


CASES = {
    case.name: case
    for case in (
        Case("uber_n16", setup_uber_n16),
        Case("fifa_n4", setup_fifa_n4),
        Case(
            "flood_crash_n4",
            setup_flood_crash_n4,
            # Its latency tail is set by a few consensus stalls while the
            # attacker withholds votes, which vary by seed (p99 varies by
            # ~17% between single seeds); the median over sixteen sub-seeds
            # keeps it steady across measured seeds.
            subseeds=16,
        ),
    )
}


def install_samplers(prep: Prepared) -> None:
    """Sample the attacker's seat on a fixed simulated-time grid.

    Records the first grid time at which the restarted seat's height
    reaches the honest maximum (``recovery_s`` is measured from the
    restart) and the first at which the observer has RPM-excluded it.
    """
    if prep.attacker is None:
        return
    deployment = prep.deployment
    seat = deployment.validators[prep.attacker]
    observer = deployment.validators[0]
    address = deployment.keypairs[prep.attacker].address
    honest = deployment.correct_validators
    samples = prep.samples

    def sample() -> None:
        now = deployment.sim.now
        if "excluded_at" not in samples and address in observer.excluded_validators:
            samples["excluded_at"] = now
        if (
            now >= prep.restart_at
            and "caught_up_at" not in samples
            and not seat.crashed
            and seat.blockchain.height >= max(v.blockchain.height for v in honest)
        ):
            samples["caught_up_at"] = now

    steps = int(round(prep.horizon_s / SAMPLE_GRID_S))
    for k in range(1, steps + 1):
        deployment.sim.schedule_at(k * SAMPLE_GRID_S, sample)


def drive(prep: Prepared) -> None:
    """Start the deployment, submit the schedule and run to the horizon."""
    deployment = prep.deployment
    deployment.start()
    prep.bench.submitter.submit_all(deployment, prep.schedule)
    install_samplers(prep)
    deployment.run_until(prep.horizon_s)


def collect(prep: Prepared) -> BenchmarkResult:
    return prep.bench.collect(prep.schedule, prep.horizon_s)


def sim_outcome(prep: Prepared, result: BenchmarkResult) -> dict:
    """One simulation's raw outcome: counts, latencies, digest, checks."""
    deployment = prep.deployment
    honest = deployment.correct_validators
    stats = deployment.network.stats
    hashes = {tuple(v.blockchain.block_hashes()) for v in honest}
    roots = {v.blockchain.state.state_root() for v in honest}
    digest = hashlib.sha256()
    for block_hash in honest[0].blockchain.block_hashes():
        digest.update(block_hash)
    digest.update(honest[0].blockchain.state.state_root())

    checks = {
        "safety_holds": deployment.safety_holds(),
        "states_agree": deployment.states_agree(),
        "honest_chains_identical": len(hashes) == 1,
        "honest_state_roots_identical": len(roots) == 1,
    }
    if prep.require_all_committed:
        checks["every_valid_tx_committed"] = result.committed == result.sent
    recovery_s = None
    if prep.attacker is not None:
        address = deployment.keypairs[prep.attacker].address
        observer = honest[0]
        checks["attacker_excluded"] = address in observer.excluded_validators
        checks["attacker_slashed"] = observer.rpm_deposit_of(address) == 0
        checks["laggard_caught_up"] = "caught_up_at" in prep.samples
        if checks["laggard_caught_up"]:
            recovery_s = prep.samples["caught_up_at"] - prep.restart_at
    return {
        "sent": result.sent,
        "committed": result.committed,
        "duration_s": result.duration_s,
        "latencies_s": [float(x) for x in result.latencies_s],
        "consensus_msgs": stats.by_kind.get("consensus", [0, 0])[0],
        "bytes": stats.bytes,
        "recovery_s": recovery_s,
        "excluded_at": prep.samples.get("excluded_at"),
        "height": honest[0].blockchain.height,
        "digest": digest.hexdigest(),
        "checks": checks,
    }


def pooled_metrics(outcomes: "list[dict]") -> dict:
    """Simulated-clock metrics over the outcomes of a repetition's sub-seeds.

    Latency percentiles are the median over sub-seeds of each one's
    percentile: a pooled tail would follow the single worst sub-seed.
    Per-transaction and throughput figures divide pooled sums.
    """

    def percentile(q: float) -> float:
        return float(np.median([
            np.percentile(o["latencies_s"], q) if o["latencies_s"] else 0.0
            for o in outcomes
        ]))

    sent = sum(o["sent"] for o in outcomes)
    committed = sum(o["committed"] for o in outcomes)
    per_tx = committed or 1
    metrics = {
        "sim_tps": committed / sum(o["duration_s"] for o in outcomes),
        "sim_latency_p50_s": percentile(50),
        "sim_latency_p99_s": percentile(99),
        "tx_failed_share": (sent - committed) / sent,
        "sim_msgs_per_tx": sum(o["consensus_msgs"] for o in outcomes) / per_tx,
        "sim_bytes_per_tx": sum(o["bytes"] for o in outcomes) / per_tx,
    }
    recoveries = [o["recovery_s"] for o in outcomes if o["recovery_s"] is not None]
    if recoveries:
        metrics["recovery_s"] = float(np.median(recoveries))
    return metrics
