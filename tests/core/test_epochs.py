"""Live committee reconfiguration: schedules, passive observers, rotation."""

import pytest

from repro import params
from repro.consensus.messages import ConsensusMessage, MsgKind
from repro.consensus.superblock import SuperBlockConsensus
from repro.core.epochs import (
    CommitteeSchedule,
    ReconfigurableDeployment,
    ReconfigurableNode,
)
from repro.core.deployment import fund_clients
from repro.core.transaction import make_transfer
from repro.net.topology import single_region_topology


class TestSchedule:
    def test_deterministic(self):
        a = CommitteeSchedule(pool_size=8, committee_size=4, seed=5)
        b = CommitteeSchedule(pool_size=8, committee_size=4, seed=5)
        assert a.committee_for_epoch(3) == b.committee_for_epoch(3)

    def test_rotation_changes_membership(self):
        schedule = CommitteeSchedule(pool_size=10, committee_size=4)
        committees = {schedule.committee_for_epoch(e) for e in range(12)}
        assert len(committees) > 1

    def test_epoch_of_index(self):
        schedule = CommitteeSchedule(pool_size=8, committee_size=4, epoch_length=8)
        assert schedule.epoch_of(1) == 0
        assert schedule.epoch_of(8) == 0
        assert schedule.epoch_of(9) == 1
        assert schedule.epoch_of(17) == 2

    def test_every_candidate_eventually_serves(self):
        schedule = CommitteeSchedule(pool_size=8, committee_size=4)
        seen = set()
        for epoch in range(50):
            seen.update(schedule.committee_for_epoch(epoch))
        assert seen == set(range(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            CommitteeSchedule(pool_size=3, committee_size=4)
        with pytest.raises(ValueError):
            CommitteeSchedule(pool_size=8, committee_size=3)


def build_deployment(pool_size=6, epoch_length=4, **kw):
    clients, balances = fund_clients(3)
    deployment = ReconfigurableDeployment(
        pool_size=pool_size,
        committee_size=4,
        epoch_length=epoch_length,
        topology=single_region_topology(pool_size),
        extra_balances=balances,
        **kw,
    )
    return deployment, clients


class TestReconfigurableDeployment:
    def test_rpm_must_be_off(self):
        with pytest.raises(ValueError):
            ReconfigurableDeployment(
                pool_size=6, committee_size=4,
                protocol=params.ProtocolParams(n=6, rpm=True),
                topology=single_region_topology(6),
            )

    def test_commits_across_epoch_boundary(self):
        deployment, clients = build_deployment()
        deployment.start()
        txs = []
        # keep submitting so rounds stay busy across ≥ 3 epochs
        for i in range(12):
            sender = clients[i % 3]
            tx = make_transfer(sender, clients[(i + 1) % 3].address, 1, nonce=i // 3)
            # target a member of the round-1 committee first; later txs go
            # round-robin over the pool (members change anyway)
            target = deployment.committee_for_index(1)[i % 4]
            deployment.submit(tx, validator_id=target, at=0.05 + 0.3 * i)
            txs.append(tx)
        deployment.run_until(25.0)
        heights = [v.blockchain.height for v in deployment.validators]
        committed_indexes = [v._next_commit_index for v in deployment.validators]
        # the chain crossed at least two epoch boundaries (epoch_length=4)
        assert min(committed_indexes) > 12
        assert deployment.safety_holds()
        assert deployment.states_agree()

    def test_observers_track_the_chain(self):
        """Nodes outside the committee commit the same superblocks."""
        deployment, clients = build_deployment(epoch_length=1000)  # one epoch
        committee = set(deployment.committee_for_index(1))
        observers = [
            v for v in deployment.validators if v.node_id not in committee
        ]
        assert observers, "pool must exceed committee for this test"
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 9, nonce=0)
        member = next(iter(sorted(committee)))
        deployment.submit(tx, validator_id=member, at=0.05)
        deployment.run_until(6.0)
        for observer in observers:
            assert observer.blockchain.contains_tx(tx)
            assert observer.stats.blocks_proposed == 0
        assert deployment.states_agree()

    def test_votes_authenticated_per_committee_slot(self, monkeypatch):
        """A constituent counts only under the slot its wire sender owns
        at that index; a non-member owns none."""
        deployment, _ = build_deployment(epoch_length=1000)
        committee = deployment.committee_for_index(1)
        outsider = next(
            v.node_id for v in deployment.validators if v.node_id not in committee
        )
        node = deployment.validators[committee[0]]
        reached = []
        monkeypatch.setattr(
            SuperBlockConsensus, "on_constituent", lambda sbc, m: reached.append(m)
        )

        def bval(sender):
            return ConsensusMessage(
                kind=MsgKind.BVAL, index=1, instance=0, round=1, value=1,
                sender=sender,
            )

        node._dispatch_consensus([bval(1), bval(2)], committee[1], record=False)
        node._dispatch_consensus([bval(None), bval(0)], outsider, record=False)
        assert reached == [bval(1)]

    def test_observers_send_no_consensus_traffic(self):
        deployment, clients = build_deployment(epoch_length=1000)
        committee = set(deployment.committee_for_index(1))
        deployment.start()
        deployment.run_until(3.0)
        # count consensus messages by sender (network-level, authentic)
        sent_by = {}
        # rely on node stats: observers never proposed; and no messages from
        # them means their logical check is moot — probe via network stats
        # is aggregate, so check SBC passivity directly:
        for v in deployment.validators:
            if v.node_id not in committee:
                for sbc in v._consensus.values():
                    assert sbc.passive

    def test_new_committee_members_proceed_without_sync(self):
        """A node that was an observer in epoch 0 proposes in a later epoch
        with full state (observers replicate everything)."""
        deployment, clients = build_deployment(pool_size=6, epoch_length=3)
        first = set(deployment.committee_for_index(1))
        # find an epoch whose committee contains a node not in the first
        target_epoch, newcomer = None, None
        for epoch in range(1, 20):
            committee = set(deployment.schedule.committee_for_epoch(epoch))
            fresh = committee - first
            if fresh:
                target_epoch, newcomer = epoch, next(iter(sorted(fresh)))
                break
        assert target_epoch is not None
        deployment.start()
        deployment.run_until(30.0)
        node = deployment.validators[newcomer]
        reached = node._next_commit_index - 1
        if reached >= target_epoch * 3 + 1:  # the epoch actually ran
            assert node.stats.blocks_proposed > 0
        assert deployment.states_agree()
