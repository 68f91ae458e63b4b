"""Bracha reliable broadcast for block proposals.

Guarantees with f < n/3 Byzantine:

* **Validity** — if the (correct) broadcaster sends m, every correct node
  delivers m.
* **Agreement/totality** — if any correct node delivers m, every correct
  node eventually delivers m (and no two correct nodes deliver different
  payloads for the same broadcaster slot).

ECHO and READY carry the payload alongside its digest so a node that never
received the original SEND (Byzantine broadcaster) can still assemble the
message — a simplification over hash-then-fetch that suits a simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.consensus.messages import ConsensusMessage, MsgKind, sender_bits
from repro.crypto.hashing import hash_items


def _digest(payload: Any) -> bytes:
    if hasattr(payload, "block_hash"):
        return payload.block_hash
    if isinstance(payload, bytes):
        return hash_items([payload])
    return hash_items([repr(payload)])


@dataclass(slots=True)
class _DigestVotes:
    """ECHO and READY voters for one payload digest as sender bitmasks
    (bit i = validator i voted), plus the payload once known."""

    echo: int = 0
    ready: int = 0
    payload: Any = None


@dataclass(slots=True)
class _SlotState:
    """State for one broadcaster slot."""

    digests: dict[bytes, _DigestVotes] = field(default_factory=dict)
    echoed: bool = False
    ready_sent: bool = False
    delivered: bool = False

    def votes(self, digest: bytes) -> _DigestVotes:
        votes = self.digests.get(digest)
        if votes is None:
            votes = self.digests[digest] = _DigestVotes()
        return votes


class ReliableBroadcast:
    """Per-node RBC endpoint multiplexing all broadcaster slots of an index."""

    def __init__(
        self,
        *,
        n: int,
        f: int,
        my_id: int,
        index: int,
        broadcast: Callable[[ConsensusMessage], None],
        on_deliver: Callable[[int, Any], None],
        passive: bool = False,
    ):
        #: passive observers count echoes/readies and deliver, never send
        self.passive = passive
        self.n = n
        self.f = f
        self.my_id = my_id
        self.index = index
        #: outgoing-message sink — a VoteBatcher when the owning node
        #: batches votes (ECHO/READY coalesce; SEND always goes direct).
        self.sink = broadcast
        self._on_deliver = on_deliver
        self._bits = sender_bits(n)
        self._slots: dict[int, _SlotState] = {}

    def _slot(self, instance: int) -> _SlotState:
        slot = self._slots.get(instance)
        if slot is None:
            slot = self._slots[instance] = _SlotState()
        return slot

    def _send(self, kind: MsgKind, instance: int, value: Any) -> None:
        if self.passive:
            return
        self.sink(
            ConsensusMessage(
                kind=kind,
                index=self.index,
                instance=instance,
                round=0,
                value=value,
                sender=self.my_id,
            )
        )

    # -- API --------------------------------------------------------------------

    def broadcast_payload(self, payload: Any) -> None:
        """RBC-broadcast ``payload`` in this node's own slot."""
        self._send(MsgKind.RBC_SEND, self.my_id, payload)

    def on_message(self, msg: ConsensusMessage) -> None:
        """Feed a SEND/ECHO/READY message; senders and broadcaster slots
        outside ``[0, n)`` are Byzantine garbage and ignored."""
        bits = self._bits
        bit = bits.get(msg.sender)
        if bit is None or msg.instance not in bits:
            return
        instance = msg.instance
        slot = self._slot(instance)
        kind = msg.kind
        if kind is MsgKind.RBC_SEND:
            # Only the slot owner's SEND counts (others are Byzantine noise).
            if msg.sender != instance or slot.echoed:
                return
            slot.echoed = True
            digest = _digest(msg.value)
            slot.votes(digest).payload = msg.value
            self._send(MsgKind.RBC_ECHO, instance, (digest, msg.value))
            # Count our own echo implicitly via loopback delivery.
        elif kind is MsgKind.RBC_ECHO or kind is MsgKind.RBC_READY:
            digest, payload = msg.value
            votes = slot.votes(digest)
            if kind is MsgKind.RBC_ECHO:
                if votes.echo & bit:
                    return
                votes.echo |= bit
            else:
                if votes.ready & bit:
                    return
                votes.ready |= bit
            if votes.payload is None:
                votes.payload = payload
            self._check_ready(instance, digest, slot, votes)
            if kind is MsgKind.RBC_READY:
                self._check_deliver(instance, slot, votes)

    # -- thresholds ----------------------------------------------------------------

    def _check_ready(
        self, instance: int, digest: bytes, slot: _SlotState, votes: _DigestVotes
    ) -> None:
        if slot.ready_sent:
            return
        if (
            votes.echo.bit_count() >= 2 * self.f + 1
            or votes.ready.bit_count() >= self.f + 1
        ):
            slot.ready_sent = True
            self._send(MsgKind.RBC_READY, instance, (digest, votes.payload))
            self._check_deliver(instance, slot, votes)

    def _check_deliver(
        self, instance: int, slot: _SlotState, votes: _DigestVotes
    ) -> None:
        if slot.delivered or votes.payload is None:
            return  # done, or wait until someone forwards the payload
        if votes.ready.bit_count() >= 2 * self.f + 1:
            slot.delivered = True
            self._on_deliver(instance, votes.payload)

    def delivered(self, instance: int) -> bool:
        return self._slot(instance).delivered
