"""Bracha reliable broadcast: validity, agreement, equivocation defence."""

import random

import pytest

from repro.consensus.broadcast import ReliableBroadcast
from repro.consensus.messages import ConsensusMessage, MsgKind


class RBCCluster:
    def __init__(self, n, f, *, byzantine=()):
        self.n, self.f = n, f
        self.delivered = {}  # node -> {slot: payload}
        self.queue = []
        self.byzantine = set(byzantine)
        self.nodes = {}
        for i in range(n):
            if i in self.byzantine:
                continue
            self.nodes[i] = ReliableBroadcast(
                n=n, f=f, my_id=i, index=0,
                broadcast=self.queue.append,
                on_deliver=self._make_deliver(i),
            )

    def _make_deliver(self, i):
        def deliver(slot, payload):
            self.delivered.setdefault(i, {})[slot] = payload
        return deliver

    def run(self, rng=None):
        steps = 0
        while self.queue and steps < 100_000:
            if rng is not None and len(self.queue) > 1:
                idx = rng.randrange(len(self.queue))
                self.queue[idx], self.queue[-1] = self.queue[-1], self.queue[idx]
            msg = self.queue.pop()
            for node in self.nodes.values():
                node.on_message(msg)
            steps += 1

    def inject(self, **kw):
        self.queue.append(ConsensusMessage(index=0, round=0, **kw))


class TestValidity:
    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2)])
    def test_correct_broadcaster_delivers_everywhere(self, n, f):
        cluster = RBCCluster(n, f)
        cluster.nodes[0].broadcast_payload(b"block-0")
        cluster.run()
        for i in cluster.nodes:
            assert cluster.delivered[i][0] == b"block-0"

    def test_all_nodes_broadcast_all_slots_deliver(self):
        cluster = RBCCluster(4, 1)
        for i, node in cluster.nodes.items():
            node.broadcast_payload(f"block-{i}".encode())
        cluster.run(rng=random.Random(3))
        for i in cluster.nodes:
            assert set(cluster.delivered[i]) == {0, 1, 2, 3}


class TestAgreement:
    def test_equivocating_broadcaster_never_splits(self):
        """Byzantine node 3 sends payload A to half, B to the other half:
        at most one payload can ever be delivered, identically everywhere."""
        for seed in range(8):
            cluster = RBCCluster(4, 1, byzantine={3})
            for dst, payload in ((0, b"A"), (1, b"A"), (2, b"B")):
                # targeted SENDs: simulate by delivering directly
                cluster.nodes[dst].on_message(ConsensusMessage(
                    kind=MsgKind.RBC_SEND, index=0, instance=3, round=0,
                    value=payload, sender=3,
                ))
            cluster.run(rng=random.Random(seed))
            values = {
                tuple(sorted(d.items())) for d in cluster.delivered.values()
            }
            delivered_payloads = {
                payload for d in cluster.delivered.values() for payload in d.values()
            }
            assert len(delivered_payloads) <= 1

    def test_spoofed_send_ignored(self):
        """A SEND claiming slot 1 but sent by node 3 must be ignored."""
        cluster = RBCCluster(4, 1)
        cluster.inject(kind=MsgKind.RBC_SEND, instance=1, value=b"fake", sender=3)
        cluster.run()
        assert all(1 not in d for d in cluster.delivered.values())

    def test_ready_amplification(self):
        """f+1 READYs trigger a READY even without 2f+1 ECHOs (totality)."""
        cluster = RBCCluster(4, 1)
        node = cluster.nodes[0]
        digest_payload = (b"\x01" * 32, b"payload")
        for sender in (1, 2):
            node.on_message(ConsensusMessage(
                kind=MsgKind.RBC_READY, index=0, instance=2, round=0,
                value=digest_payload, sender=sender,
            ))
        sent_kinds = [m.kind for m in cluster.queue]
        assert MsgKind.RBC_READY in sent_kinds


class TestThresholds:
    def test_single_echo_insufficient(self):
        cluster = RBCCluster(4, 1)
        node = cluster.nodes[0]
        node.on_message(ConsensusMessage(
            kind=MsgKind.RBC_ECHO, index=0, instance=2, round=0,
            value=(b"\x02" * 32, b"p"), sender=1,
        ))
        assert not cluster.queue  # no READY yet
        assert not node.delivered(2)

    def test_duplicate_echo_not_counted(self):
        cluster = RBCCluster(4, 1)
        node = cluster.nodes[0]
        for _ in range(5):
            node.on_message(ConsensusMessage(
                kind=MsgKind.RBC_ECHO, index=0, instance=2, round=0,
                value=(b"\x02" * 32, b"p"), sender=1,
            ))
        assert not cluster.queue


class TestForgedSenders:
    """Votes from ids outside ``[0, n)`` are not seats and never count."""

    OUTSIDERS = (4, 5, -1, 99)

    @pytest.mark.parametrize("kind", [MsgKind.RBC_ECHO, MsgKind.RBC_READY])
    def test_out_of_range_votes_ignored(self, kind):
        cluster = RBCCluster(4, 1)
        node = cluster.nodes[0]
        for sender in self.OUTSIDERS:
            node.on_message(ConsensusMessage(
                kind=kind, index=0, instance=2, round=0,
                value=(b"\x02" * 32, b"p"), sender=sender,
            ))
        assert not cluster.queue  # three forged ECHOs or READYs used to send READY
        assert not node.delivered(2)

    def test_out_of_range_slot_ignored(self):
        cluster = RBCCluster(4, 1)
        node = cluster.nodes[0]
        for sender in range(4):
            node.on_message(ConsensusMessage(
                kind=MsgKind.RBC_READY, index=0, instance=7, round=0,
                value=(b"\x02" * 32, b"p"), sender=sender,
            ))
        assert not cluster.queue
        assert not cluster.delivered
