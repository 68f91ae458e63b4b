"""Live committee reconfiguration in the message-level engine (§IV-E).

All candidates run full nodes (they observe every consensus round
passively and keep the complete state, so an incoming committee needs no
catch-up sync); each epoch, a deterministic random draw picks which
subset actually proposes and votes.  Consensus messages carry *logical*
ids (a member's position in the epoch's committee tuple); nodes verify
that the network-level sender matches the claimed logical identity, so a
non-member cannot vote by spoofing a slot.

RPM's thresholds are committee-size-global in this reproduction, so
reconfigurable deployments run with ``protocol.rpm = False`` (asserted).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import params
from repro.consensus.superblock import SuperBlockConsensus
from repro.core.block import Block, make_block
from repro.core.deployment import Deployment
from repro.core.node import ValidatorNode


@dataclass(frozen=True)
class CommitteeSchedule:
    """Deterministic committee per epoch over a candidate pool.

    Every node derives the same schedule from (seed, epoch); in production
    the seed would come from on-chain randomness (§IV-E).
    """

    pool_size: int
    committee_size: int
    epoch_length: int = params.EPOCH_LENGTH
    seed: int = 23

    def __post_init__(self) -> None:
        if self.committee_size > self.pool_size:
            raise ValueError("committee larger than candidate pool")
        if self.committee_size < 4:
            raise ValueError("BFT committee needs n ≥ 4 (f ≥ 1)")

    def epoch_of(self, index: int) -> int:
        """Chain index → epoch number (index 1 starts epoch 0)."""
        return max(0, index - 1) // self.epoch_length

    def committee_for_epoch(self, epoch: int) -> tuple[int, ...]:
        rng = np.random.default_rng((self.seed * 1_000_003 + epoch) % 2**32)
        members = rng.choice(self.pool_size, size=self.committee_size, replace=False)
        return tuple(int(m) for m in sorted(members))

    def committee_for_index(self, index: int) -> tuple[int, ...]:
        return self.committee_for_epoch(self.epoch_of(index))

    @property
    def f(self) -> int:
        return (self.committee_size - 1) // 3


class ReconfigurableNode(ValidatorNode):
    """Full node that is a committee member only in its scheduled epochs."""

    def __init__(self, *args, schedule: CommitteeSchedule, **kwargs):
        super().__init__(*args, **kwargs)
        if self.protocol.rpm:
            raise ValueError("reconfigurable deployments require rpm=False")
        self.schedule = schedule

    # -- committee plumbing --------------------------------------------------------

    def _committee(self, index: int) -> tuple[int, ...]:
        return self.schedule.committee_for_index(index)

    def is_member(self, index: int) -> bool:
        return self.node_id in self._committee(index)

    def _consensus_for(self, index: int) -> SuperBlockConsensus:
        if index not in self._consensus:
            committee = self._committee(index)
            m = len(committee)
            f = self.schedule.f
            active = self.node_id in committee
            logical = committee.index(self.node_id) if active else 0
            self._consensus[index] = SuperBlockConsensus(
                n=m,
                f=f,
                my_id=logical,
                index=index,
                broadcast=self._broadcast_consensus,
                on_superblock=self._on_superblock,
                validate_header=self._validate_header,
                on_undecided_block=self._recycle_block,
                passive=not active,
            )
        return self._consensus[index]

    # -- message authentication -------------------------------------------------------

    def _consensus_sender(self, index: int, wire_sender: int) -> int | None:
        """Logical-sender authenticity: a node votes only under the
        committee slot it owns at ``index`` (per index, since a batch may
        span indexes whose committees give it different slots)."""
        committee = self._committee(index)
        return committee.index(wire_sender) if wire_sender in committee else None

    # -- proposing ----------------------------------------------------------------------

    def _start_round(self, index: int) -> None:
        if index in self._proposed:
            return
        self._proposed.add(index)
        consensus = self._consensus_for(index)
        if not self.is_member(index):
            return  # observers just track the round
        block = self._create_block(index)
        self.stats.blocks_proposed += 1
        consensus.propose(block)
        self.sim.schedule(self.proposer_timeout, self._round_timeout, index)

    def _create_block(self, index: int) -> Block:
        """Member blocks carry the *logical* proposer id (the consensus
        slot); the global node id is recoverable via the schedule."""
        self.pool.expire(self.sim.now)
        batch = self.pool.take_batch(
            self.protocol.max_block_txs,
            gas_limit=self.protocol.block_gas_limit,
            next_nonce=self.blockchain.state.nonce_of,
        )
        committee = self._committee(index)
        logical = committee.index(self.node_id)
        return make_block(self.keypair, logical, index, batch, round=index)

    def coinbase_of(self, proposer_id: int) -> str:
        # proposer_id is logical within the *committing* index's committee;
        # resolved at commit time via the superblock being committed.
        committee = self._committee(self._next_commit_index)
        if 0 <= proposer_id < len(committee):
            global_id = committee[proposer_id]
            return self.validator_addresses[global_id]
        return ""


class ReconfigurableDeployment(Deployment):
    """A candidate pool whose committee rotates every epoch."""

    def __init__(
        self,
        *,
        pool_size: int = 8,
        committee_size: int = 4,
        epoch_length: int = 8,
        schedule_seed: int = 23,
        **kwargs,
    ):
        schedule = CommitteeSchedule(
            pool_size=pool_size,
            committee_size=committee_size,
            epoch_length=epoch_length,
            seed=schedule_seed,
        )
        protocol = kwargs.pop("protocol", None) or params.ProtocolParams(
            n=pool_size, f=(pool_size - 1) // 3, rpm=False
        )
        if protocol.rpm:
            raise ValueError("reconfigurable deployments require rpm=False")
        byzantine = kwargs.pop("byzantine", None) or {}
        byzantine_kwargs = kwargs.pop("byzantine_kwargs", None) or {}
        merged_kwargs = {
            i: {**byzantine_kwargs.get(i, {}), "schedule": schedule}
            for i in range(pool_size)
        }
        classes = {
            i: byzantine.get(i, ReconfigurableNode) for i in range(pool_size)
        }
        super().__init__(
            protocol=protocol,
            byzantine=classes,
            byzantine_kwargs=merged_kwargs,
            **kwargs,
        )
        self.schedule = schedule
        # `byzantine` marked every node; recompute the real Byzantine set
        self.byzantine_ids = frozenset(
            i for i, cls in classes.items() if cls is not ReconfigurableNode
        )

    def committee_for_index(self, index: int) -> tuple[int, ...]:
        return self.schedule.committee_for_index(index)
