"""Outside-in layer tracing: wrap each layer's public entry points.

No span lives inside the program.  :meth:`Tracer.install` replaces each
entry point named in :data:`LAYERS` with a timing wrapper: on the class
(and on every subclass that overrides it) for methods, and at every
module attribute that a caller looks the function up by for module-level
functions bound with ``from ... import``.  :meth:`Tracer.uninstall` puts
every original back.

Spans are aggregated in memory as ``(layer, parent layer) -> [calls,
inclusive ns, self ns]``; one object per call would distort a run that
makes millions of them.  A layer's self time is its inclusive time minus
the time of the wrapped spans it called, so the self times of all layers
plus the phase roots' own time sum exactly to the phase roots' total.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable

#: layer -> entry points, as (module, "Class.method" or "function")
LAYERS: "dict[str, tuple[tuple[str, str], ...]]" = {
    "net.simulator": (("repro.net.simulator", "Simulator.run_until"),),
    "net.transport": (
        ("repro.net.transport", "Network.send"),
        ("repro.net.transport", "Network.broadcast"),
        ("repro.net.transport", "Network.send_to_peers"),
    ),
    "net.gossip": (
        ("repro.net.gossip", "GossipLayer.publish"),
        ("repro.net.gossip", "GossipLayer.handle"),
    ),
    "core.node": (
        ("repro.core.node", "ValidatorNode.on_message"),
        ("repro.core.node", "ValidatorNode.submit_transaction"),
    ),
    "consensus.batching": (
        ("repro.consensus.batching", "VoteBatcher.submit"),
        ("repro.consensus.batching", "VoteBatcher.flush"),
    ),
    "consensus.superblock": (
        ("repro.consensus.superblock", "SuperBlockConsensus.on_message"),
        ("repro.consensus.superblock", "SuperBlockConsensus.on_constituent"),
        ("repro.consensus.superblock", "SuperBlockConsensus.propose"),
    ),
    "consensus.dbft": (
        ("repro.consensus.dbft", "BinaryConsensus.on_message"),
        ("repro.consensus.dbft", "BinaryConsensus.propose"),
    ),
    "consensus.broadcast": (
        ("repro.consensus.broadcast", "ReliableBroadcast.broadcast_payload"),
        ("repro.consensus.broadcast", "ReliableBroadcast.on_message"),
    ),
    "core.txpool": (
        ("repro.core.txpool", "TxPool.add"),
        ("repro.core.txpool", "TxPool.take_batch"),
    ),
    "core.validation": (
        ("repro.core.validation", "eager_validate"),
        ("repro.core.validation", "lazy_validate"),
        ("repro.core.validation", "check_signature"),
    ),
    "core.blockchain": (("repro.core.blockchain", "Blockchain.commit_superblock"),),
    "vm.executor": (("repro.vm.executor", "Executor.execute"),),
    "core.rpm": (
        ("repro.core.rpm", "RPMContract.prop_received"),
        ("repro.core.rpm", "RPMContract.report"),
    ),
    "core.catchup": (
        ("repro.core.catchup", "DecidedJournal.record"),
        ("repro.core.catchup", "DecidedJournal.range"),
    ),
    "crypto": (
        ("repro.crypto.keys", "sign"),
        ("repro.crypto.keys", "recover_check"),
        ("repro.crypto.hashing", "hash_items"),
    ),
    "diablo": (
        ("repro.diablo.client", "LoadSchedule.from_trace"),
        ("repro.diablo.benchmark", "DiabloBenchmark.collect"),
    ),
    "workloads": (
        ("repro.workloads.uber", "uber_trace"),
        ("repro.workloads.uber", "uber_request_factory"),
        ("repro.workloads.fifa", "fifa_trace"),
        ("repro.workloads.fifa", "fifa_request_factory"),
        ("repro.workloads.synthetic", "constant_trace"),
        ("repro.workloads.synthetic", "transfer_request_factory"),
    ),
    "faults": (
        ("repro.faults.controller", "FaultController.install"),
        ("repro.faults.controller", "FaultController.byzantine_windows_open"),
        ("repro.faults.controller", "FaultController.drop_probability"),
        ("repro.faults.controller", "FaultController.duplicate_probability"),
        ("repro.faults.controller", "FaultController.extra_delay_s"),
    ),
}

#: modules imported before installing, so that subclasses overriding a
#: wrapped method (the Byzantine validators) exist and get wrapped too
_PRELOAD = ("repro.adversary.byzantine",)

#: marks a wrapper, so a test can prove none is left behind
MARK = "__perfbench_layer__"

#: the span every phase root hangs under; never reported
_TOP = "<top>"


def _all_subclasses(cls: type) -> "list[type]":
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


class Tracer:
    """In-memory span aggregator plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: open spans, innermost last: [name, ns spent in wrapped children]
        self._stack: "list[list]" = [[_TOP, 0]]
        #: (name, parent name) -> [calls, inclusive ns, self ns]
        self.spans: "dict[tuple[str, str], list[int]]" = {}
        #: "module:qualname" -> [calls]
        self.fn_calls: "dict[str, list[int]]" = {}
        #: (owner, attribute, original value) for every patched location
        self._patched: "list[tuple[object, str, object]]" = []

    # -- spans ------------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer: str,
        key: str,
        on_return: "Callable | None" = None,
    ) -> Callable:
        """A wrapper recording one ``layer`` span per call of ``fn``."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        calls = self.fn_calls.setdefault(key, [0])

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                record = spans.get((layer, parent[0]))
                if record is None:
                    record = spans[(layer, parent[0])] = [0, 0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                calls[0] += 1
            if on_return is not None:
                on_return(result)
            return result

        # Keep the wrapped callable's attributes (request factories carry
        # their keypairs and schedule-cache key).
        span.__dict__.update(getattr(fn, "__dict__", {}))
        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", "span")
        setattr(span, MARK, layer)
        return span

    def phase(self, name: str, body: Callable):
        """Run ``body()`` as the root span of one benchmark phase."""
        return self.wrap(body, f"phase.{name}", f"phase:{name}")()

    # -- install / uninstall ------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, on_return: "dict[str, Callable] | None" = None) -> None:
        """Wrap every entry point in :data:`LAYERS`.

        ``on_return`` maps ``"module:qualname"`` to a callback that sees
        each call's return value (counts read from results).
        """
        on_return = on_return or {}
        for name in _PRELOAD:
            importlib.import_module(name)
        functions: "dict[int, tuple[object, Callable]]" = {}
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                key = f"{module_name}:{qualname}"
                hook = on_return.get(key)
                if "." not in qualname:
                    fn = getattr(module, qualname)
                    functions[id(fn)] = (fn, self.wrap(fn, layer, key, hook))
                    continue
                class_name, method = qualname.split(".")
                base = getattr(module, class_name)
                for cls in _all_subclasses(base):
                    raw = cls.__dict__.get(method)
                    if raw is None:
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self.wrap(raw.__func__, layer, key, hook))
                    else:
                        wrapped = self.wrap(raw, layer, key, hook)
                    self._patch(cls, method, wrapped)
        # A module-level function is looked up by name in every module that
        # imported it, so patch each binding of the same function object.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def uninstall(self) -> None:
        """Restore every patched location, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def totals(self) -> "dict[str, dict[str, float]]":
        """Per layer: calls, inclusive and self seconds (phases included)."""
        out: "dict[str, dict[str, float]]" = {}
        for (name, parent), (calls, inclusive, own) in self.spans.items():
            entry = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            # Time inside a same-layer parent is already in that parent's
            # inclusive time; count only the outermost entries.
            if parent != name:
                entry["inclusive_s"] += inclusive / 1e9
            entry["self_s"] += own / 1e9
        return out

    def export(self) -> "list[dict]":
        """The aggregated span table, one row per (name, parent)."""
        return [
            {
                "name": name,
                "parent": parent,
                "calls": calls,
                "inclusive_s": inclusive / 1e9,
                "self_s": own / 1e9,
            }
            for (name, parent), (calls, inclusive, own) in sorted(self.spans.items())
        ]


def empty_span_cost_ns(calls: int = 200_000) -> float:
    """Calibrated cost of one span around a function that does nothing."""

    def nothing():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(nothing, "calibration", "calibration")
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter_ns()
        for _ in range(calls):
            nothing()
        bare = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter_ns() - start
        best = min(best, (traced - bare) / calls)
    return best
