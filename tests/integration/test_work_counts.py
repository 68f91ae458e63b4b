"""Each derived value of a transaction is computed once per process.

Every replica of a simulated deployment shares the same transaction
objects, so a signing digest or hash recomputed per check or per replica
would multiply with the committee size.  These tests pin the counts on a
4-validator run.
"""

from collections import Counter

from repro import params
from repro.core import transaction as transaction_mod
from repro.core.deployment import Deployment, fund_clients
from repro.core.transaction import TxType, make_invoke, make_transfer
from repro.net.topology import single_region_topology
from repro.vm.executor import native_address_for

TX_TYPE_TAGS = {t.value for t in TxType}


def test_one_signing_digest_and_one_hash_per_transaction(monkeypatch):
    calls = []
    real = transaction_mod.hash_items

    def counting(items):
        calls.append(tuple(items))
        return real(items)

    monkeypatch.setattr(transaction_mod, "hash_items", counting)
    client_keys, balances = fund_clients(4)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, rpm=False),
        topology=single_region_topology(4),
        extra_balances=balances,
    )
    deployment.start()
    exchange = native_address_for("exchange")
    txs = []
    for i in range(12):
        kp = client_keys[i % 4]
        nonce = i // 4
        if i % 2:
            tx = make_transfer(kp, client_keys[(i + 1) % 4].address, 1, nonce=nonce)
        else:
            tx = make_invoke(
                kp, exchange, "trade", ("AAPL", 150_00 + i, 1, "buy"), nonce=nonce
            )
        deployment.submit(tx, validator_id=i % 4, at=0.05 + 0.01 * i)
        txs.append(tx)
    deployment.run_until(6.0)
    assert all(deployment.committed_everywhere(tx) for tx in txs)

    digests = [items for items in calls if items[0] in TX_TYPE_TAGS]
    # Signing computes each digest on the unsigned object and hands it to
    # the signed copy; eager validation at every replica, gossip and four
    # executions never hash the transaction again.
    assert len(digests) == len(txs)
    assert set(Counter(digests).values()) == {1}
    # ... and the transaction hash (the pool and chain identity) is
    # likewise computed once per signed object.
    assert len(calls) - len(digests) == len(txs)
