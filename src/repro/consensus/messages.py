"""Wire messages exchanged by the consensus protocols."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator

#: fixed per-message envelope: kind + index + instance + round + sender + auth
BASE_MESSAGE_BYTES = 64


class MsgKind(Enum):
    # binary consensus (DBFT)
    BVAL = "bval"  # BV-broadcast estimate
    AUX = "aux"  # auxiliary phase value
    COORD = "coord"  # weak-coordinator suggestion
    # reliable broadcast (Bracha)
    RBC_SEND = "rbc-send"
    RBC_ECHO = "rbc-echo"
    RBC_READY = "rbc-ready"
    # vote batching (one wire message carrying many of the above)
    BATCH = "batch"


@functools.cache
def sender_bits(n: int) -> dict[int, int]:
    """Validator id -> its vote-mask bit, for the seats ``[0, n)`` only.
    Shared by every instance of a committee size: read-only."""
    return {i: 1 << i for i in range(n)}


def _payload_size(value: Any) -> int:
    """Approximate encoded size of one message payload, in bytes.

    Handles every payload shape the protocols put on the wire: raw bytes
    (digests), objects exposing ``encoded_size`` (blocks, transactions),
    scalars, and — crucially for RBC ECHO/READY, whose payload is a
    ``(digest, block-or-None)`` tuple — containers of *mixed* element
    types, each element sized recursively.
    """
    if type(value) is int:
        # Exact-type check first: 0/1 vote estimates dominate the traffic
        # (bool stays on its own branch below — it is an int subclass).
        return max(1, (value.bit_length() + 7) // 8)
    if value is None:
        return 0
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if hasattr(value, "encoded_size"):
        return int(value.encoded_size())
    if isinstance(value, (tuple, list)):
        return sum(_payload_size(v) for v in value)
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, (value.bit_length() + 7) // 8)
    if isinstance(value, str):
        return len(value.encode())
    return BASE_MESSAGE_BYTES  # unknown payloads: charge a full envelope


@dataclass(frozen=True)
class ConsensusMessage:
    """One consensus protocol message.

    ``index`` is the chain index (consensus iteration k), ``instance`` the
    per-proposer binary instance id (or the RBC broadcaster id), ``round``
    the binary-consensus round, ``value`` the payload (0/1 estimate, the
    RBC payload/digest, or a :class:`ConsensusBatch` for ``BATCH``).
    """

    kind: MsgKind
    index: int
    instance: int
    round: int
    value: Any
    sender: int

    def approx_size(self) -> int:
        """Rough wire size in bytes for traffic accounting."""
        if isinstance(self.value, ConsensusBatch):
            # The batch *is* the wire encoding — no outer envelope copy.
            return self.value.approx_size()
        return BASE_MESSAGE_BYTES + _payload_size(self.value)


@dataclass(frozen=True)
class ConsensusBatch:
    """Coalesced consensus traffic: every vote one node emitted in one tick.

    On the wire the batch shares a single envelope (sender, authentication)
    across all constituent messages, so each vote costs only its compact
    ``(kind, index, instance, round, value)`` record plus any structured
    payload bytes it carries — the saving the paper's congestion argument
    (§III) wants at the vote layer.
    """

    messages: "tuple[ConsensusMessage, ...]"
    sender: int

    #: shared batch envelope: sender, auth tag, message count
    HEADER_BYTES = 32
    #: compact per-vote record: kind tag + index + instance + round varints
    PER_MESSAGE_BYTES = 12

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("a ConsensusBatch must carry at least one message")

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> "Iterator[ConsensusMessage]":
        return iter(self.messages)

    def approx_size(self) -> int:
        """Wire size: one shared envelope + compact per-vote records."""
        cached = self.__dict__.get("_approx_size")
        if cached is None:
            cached = self.HEADER_BYTES + sum(
                self.PER_MESSAGE_BYTES + _payload_size(m.value)
                for m in self.messages
            )
            # Frozen dataclass: memoize via object.__setattr__ (the batch
            # is immutable, and its size is re-read on flush and on send).
            object.__setattr__(self, "_approx_size", cached)
        return cached

    def standalone_size(self) -> int:
        """What the constituents would have cost sent individually."""
        cached = self.__dict__.get("_standalone_size")
        if cached is None:
            cached = sum(m.approx_size() for m in self.messages)
            object.__setattr__(self, "_standalone_size", cached)
        return cached

    def bytes_saved(self) -> int:
        """Wire bytes avoided by batching (never negative)."""
        return max(0, self.standalone_size() - self.approx_size())
