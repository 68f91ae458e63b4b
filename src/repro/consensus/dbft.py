"""DBFT-style leaderless binary Byzantine consensus.

Round structure (Mostéfaoui-Moumen-Raynal BV-broadcast core, as used by
DBFT, with DBFT's weak-coordinator hint and a deterministic round-parity
fallback in place of the common coin):

1. **BV-broadcast** — every node broadcasts ``BVAL(r, est)``.  A node that
   receives ``f+1`` BVALs for a value echoes it (so a value backed by one
   correct node reaches everyone); a value with ``2f+1`` BVALs enters
   ``bin_values[r]`` (so every value in ``bin_values`` was proposed by a
   correct node — Byzantine-only values never get 2f+1).
2. **AUX** — once ``bin_values[r]`` is non-empty the node broadcasts one of
   its values (preferring the round coordinator's suggestion when it is
   already in ``bin_values``).
3. **Collect** — wait for ``n − f`` AUX messages whose values all lie in
   ``bin_values[r]``; let ``values`` be the set of their values.
   * ``values == {v}`` and ``v == r mod 2`` → **decide v** (and keep
     participating for two more rounds so laggards can decide too);
   * ``values == {v}`` → ``est = v``;
   * otherwise → ``est = r mod 2``.

Safety (agreement + validity) is unconditional; termination holds for all
fair schedules (the classic FLP-style adversarial schedule can delay it,
which the property tests acknowledge by bounding rounds generously).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from repro import telemetry
from repro.consensus.messages import ConsensusMessage, MsgKind, sender_bits
from repro.errors import ConsensusError

#: Rounds a decided node keeps participating so peers can finish.
GRACE_ROUNDS = 2
#: Hard cap: a correct run of this protocol decides in a handful of rounds;
#: hitting the cap indicates a broken schedule and fails loudly.
MAX_ROUNDS = 64

logger = logging.getLogger("repro.consensus.dbft")

# hot-loop locals: one global load instead of an Enum attribute walk per
# message (this dispatcher sees every vote of every binary instance)
_BVAL = MsgKind.BVAL
_AUX = MsgKind.AUX
_COORD = MsgKind.COORD


def _build_metrics(reg: telemetry.MetricsRegistry) -> SimpleNamespace:
    decisions = reg.counter(
        "srbb_consensus_decisions_total", "binary-instance decisions, by value"
    )
    return SimpleNamespace(
        # pre-resolved labeled children: one dict lookup on the hot path
        decisions={0: decisions.labels(value="0"), 1: decisions.labels(value="1")},
        rounds=reg.histogram(
            "srbb_consensus_rounds_to_decision",
            "BV-broadcast rounds until a binary instance decided",
            buckets=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32, MAX_ROUNDS),
        ),
        coin=reg.counter(
            "srbb_consensus_coin_fallbacks_total",
            "rounds resolved by the coin/parity fallback (split AUX values)",
        ),
    )


_metrics = telemetry.bind(_build_metrics)


@dataclass(slots=True)
class _RoundState:
    """Per-round votes as sender bitmasks (bit i = validator i voted):
    a repeated vote is a no-op and a quorum one ``int.bit_count()``.
    ``echoed`` and ``bin_values`` are value flags (bit v = value v)."""

    bval0: int = 0
    bval1: int = 0
    aux0: int = 0
    aux1: int = 0
    echoed: int = 0  # values whose BVAL we broadcast
    bin_values: int = 0
    aux_sent: bool = False
    coord_value: int | None = None


class BinaryConsensus:
    """One binary consensus instance for one (chain index, proposer) slot."""

    def __init__(
        self,
        *,
        n: int,
        f: int,
        my_id: int,
        index: int,
        instance: int,
        broadcast: Callable[[ConsensusMessage], None],
        on_decide: Callable[[int, int], None],
        passive: bool = False,
        coin: str = "parity",
    ):
        if not f < n / 3:
            raise ConsensusError(f"requires f < n/3 (n={n}, f={f})")
        if coin not in ("parity", "hash"):
            raise ConsensusError(f"unknown coin scheme {coin!r}")
        #: fallback-value scheme: "parity" (r mod 2, the deterministic
        #: DBFT-style fallback) or "hash" (a shared pseudo-random coin
        #: derived from (index, instance, round) — harder for a schedule
        #: adversary to predict rounds ahead, same agreement proof)
        self.coin = coin
        #: passive observers track thresholds and decide, but never send —
        #: how non-committee full nodes stay in sync under reconfiguration
        self.passive = passive
        self.n = n
        self.f = f
        self.my_id = my_id
        self.index = index
        self.instance = instance
        #: outgoing-message sink.  Direct harnesses pass the wire broadcast;
        #: a ValidatorNode interposes a :class:`~repro.consensus.batching.
        #: VoteBatcher` here so per-round BVAL/AUX/COORD votes coalesce into
        #: one BATCH wire message per tick instead of going out one by one.
        self.sink = broadcast
        self._on_decide = on_decide
        self._bits = sender_bits(n)

        self.est: int | None = None
        self.round = 0
        self.decided: int | None = None
        self._decided_round: int | None = None
        self._rounds: dict[int, _RoundState] = {}
        self._started = False

    # -- public API -----------------------------------------------------------

    def propose(self, value: int) -> None:
        """Input this node's estimate (0 or 1); idempotent."""
        if value not in (0, 1):
            raise ConsensusError(f"binary value required, got {value!r}")
        if self.passive:
            raise ConsensusError("passive observers cannot propose")
        if self._started:
            return
        self._started = True
        self.est = int(value)
        self.round = 1
        self._start_round()

    def observe(self) -> None:
        """Start tracking as a passive observer (no input, no messages)."""
        if self._started:
            return
        self._started = True
        self.round = 1
        self._start_round()

    @property
    def has_input(self) -> bool:
        return self._started

    def on_message(self, msg: ConsensusMessage) -> None:
        """Feed a BVAL/AUX/COORD message addressed to this instance.

        Votes from senders outside ``[0, n)`` and values other than the
        ints 0 and 1 are Byzantine garbage and ignored.  Thresholds are
        checked only when a vote makes a count cross one: BVAL at f+1 and
        2f+1, AUX at n−f for the current round.
        """
        r = msg.round
        if r > MAX_ROUNDS:
            return
        bit = self._bits.get(msg.sender)
        value = msg.value
        if bit is None or value.__class__ is not int or (value != 0 and value != 1):
            return
        state = self._rounds.get(r)
        if state is None:
            state = self._rounds[r] = _RoundState()
        kind = msg.kind
        if kind is _BVAL:
            mask = state.bval1 if value else state.bval0
            if mask & bit:
                return  # duplicate vote
            mask |= bit
            if value:
                state.bval1 = mask
            else:
                state.bval0 = mask
            count = mask.bit_count()
            if count == self.f + 1 or count == 2 * self.f + 1:
                self._check_bval(r, value, state, count)
        elif kind is _AUX:
            voted = state.aux0 | state.aux1
            if voted & bit:
                return
            if value:
                state.aux1 |= bit
            else:
                state.aux0 |= bit
            if r == self.round and (voted | bit).bit_count() >= self.n - self.f:
                self._try_advance(r, state)
        elif kind is _COORD:
            if msg.sender == (r - 1) % self.n and state.coord_value is None:
                state.coord_value = value
                self._maybe_send_aux(r, state)

    # -- internals -----------------------------------------------------------

    def _round_state(self, r: int) -> _RoundState:
        state = self._rounds.get(r)
        if state is None:
            state = self._rounds[r] = _RoundState()
        return state

    def _participating(self) -> bool:
        """Whether this node still sends messages (grace after decide)."""
        if self.decided is None:
            return True
        assert self._decided_round is not None
        return self.round <= self._decided_round + GRACE_ROUNDS

    def _send(self, kind: MsgKind, round_: int, value: int) -> None:
        if self.passive:
            return
        self.sink(
            ConsensusMessage(
                kind=kind,
                index=self.index,
                instance=self.instance,
                round=round_,
                value=value,
                sender=self.my_id,
            )
        )

    def _start_round(self) -> None:
        if not self._participating():
            return
        if self.round > MAX_ROUNDS:
            logger.error(
                "binary consensus exceeded %d rounds (index=%d, instance=%d)",
                MAX_ROUNDS, self.index, self.instance,
            )
            raise ConsensusError(
                f"binary consensus exceeded {MAX_ROUNDS} rounds "
                f"(index={self.index}, instance={self.instance})"
            )
        if not self.passive:
            assert self.est is not None
            coord = (self.round - 1) % self.n
            if self.my_id == coord:
                self._send(MsgKind.COORD, self.round, self.est)
            state = self._round_state(self.round)
            flag = 1 << self.est
            if not state.echoed & flag:
                state.echoed |= flag
                self._send(MsgKind.BVAL, self.round, self.est)
        # Votes may have arrived before we started this round: thresholds
        # crossed earlier already set their flags, so only the round exit
        # is left to check.
        self._try_advance(self.round)

    def _check_bval(self, r: int, value: int, state: _RoundState, count: int) -> None:
        """React to ``count`` distinct BVAL(value) votes in round ``r``."""
        flag = 1 << value
        # Echo once f+1 distinct nodes back the value (amplification).
        if count >= self.f + 1 and not state.echoed & flag:
            state.echoed |= flag
            if r <= self.round + 1 and self._participating():
                self._send(MsgKind.BVAL, r, value)
        # 2f+1 distinct BVALs: at least one correct proposer → bin_values.
        if count >= 2 * self.f + 1 and not state.bin_values & flag:
            state.bin_values |= flag
            self._maybe_send_aux(r, state)
            self._try_advance(r, state)

    def _maybe_send_aux(self, r: int, state: _RoundState) -> None:
        bin_values = state.bin_values
        if state.aux_sent or not bin_values or r != self.round:
            return
        if not self._participating():
            return
        coord = state.coord_value
        if coord is not None and bin_values >> coord & 1:
            value = coord
        else:
            value = 0 if bin_values & 1 else 1
        state.aux_sent = True
        self._send(MsgKind.AUX, r, value)

    def _try_advance(self, r: int, state: _RoundState | None = None) -> None:
        """Check the round-r exit condition and move to round r+1."""
        if r != self.round or not self._started:
            return
        if state is None:
            state = self._round_state(r)
        self._maybe_send_aux(r, state)
        bin_values = state.bin_values
        if not bin_values:
            return
        # n−f AUX messages whose values are all in bin_values
        c0 = state.aux0.bit_count() if bin_values & 1 else 0
        c1 = state.aux1.bit_count() if bin_values & 2 else 0
        if c0 + c1 < self.n - self.f:
            return
        coin = self._coin(r)
        if not (c0 and c1):
            v = 0 if c0 else 1
            if v == coin and self.decided is None:
                self.decided = v
                self._decided_round = r
                m = _metrics()
                m.rounds.observe(r)
                m.decisions[v].inc()
                self._on_decide(self.instance, v)
            self.est = v
        else:
            _metrics().coin.inc()
            self.est = coin
        self.round = r + 1
        self._start_round()

    def _coin(self, r: int) -> int:
        """Round fallback value, identical at every correct node."""
        if self.coin == "parity":
            return r % 2
        from repro.crypto.hashing import hash_items

        return hash_items(["coin", self.index, self.instance, r])[0] & 1
