"""Wire-sender authentication: a seat cannot vote under another seat's id.

A Byzantine seat sends, next to each of its own vote batches, a second
batch whose constituents claim to come from an honest seat (with every
binary vote flipped).  The transport sender of that batch is the forger's
own, so honest nodes must drop every forged constituent before it reaches
consensus, and their chains must stay identical.
"""

import dataclasses

from repro import params
from repro.consensus.messages import ConsensusBatch, ConsensusMessage, MsgKind
from repro.consensus.superblock import SuperBlockConsensus
from repro.core.deployment import Deployment, fund_clients
from repro.core.node import ValidatorNode
from repro.core.transaction import make_transfer
from repro.net.topology import single_region_topology

FORGER, VICTIM = 3, 0


class ForgingValidator(ValidatorNode):
    """Re-sends its own votes under ``VICTIM``'s id, binary values flipped."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.forged: list[ConsensusMessage] = []

    def _send_consensus_wire(self, msg: ConsensusMessage) -> None:
        super()._send_consensus_wire(msg)
        if msg.kind is not MsgKind.BATCH:
            return
        forged = tuple(
            dataclasses.replace(
                c,
                sender=VICTIM,
                value=1 - c.value if isinstance(c.value, int) else c.value,
            )
            for c in msg.value
        )
        self.forged.extend(forged)
        super()._send_consensus_wire(dataclasses.replace(
            msg, value=ConsensusBatch(messages=forged, sender=self.node_id)
        ))


def test_forged_constituents_dropped_and_honest_chains_identical(monkeypatch):
    reached: list[ConsensusMessage] = []  # kept alive, so ids stay unique
    dispatch = SuperBlockConsensus.on_constituent

    def spy(self, msg):
        reached.append(msg)
        dispatch(self, msg)

    monkeypatch.setattr(SuperBlockConsensus, "on_constituent", spy)

    clients, balances = fund_clients(4)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4),
        topology=single_region_topology(4),
        byzantine={FORGER: ForgingValidator},
        extra_balances=balances,
        seed=11,
    )
    deployment.start()
    txs = []
    for i in range(12):
        tx = make_transfer(clients[i % 4], clients[(i + 1) % 4].address, 1, nonce=i // 4)
        deployment.submit(tx, validator_id=i % 3, at=0.01 * (i + 1))
        txs.append(tx)
    deployment.run_until(6.0)

    forger = deployment.validators[FORGER]
    assert len(forger.forged) > 100  # the attack ran
    forged_ids = {id(m) for m in forger.forged}
    assert not any(id(m) in forged_ids for m in reached)

    honest = deployment.correct_validators
    assert deployment.safety_holds()
    assert deployment.states_agree()
    height = min(v.blockchain.height for v in honest)
    assert height >= 5
    chains = {tuple(v.blockchain.block_hashes())[: height + 1] for v in honest}
    assert len(chains) == 1
    assert all(deployment.committed_everywhere(tx) for tx in txs)
