"""Transaction model: signing, hashing, sizes, constructors."""

import pytest
from hypothesis import given, strategies as st

from repro.core import transaction as transaction_mod
from repro.core.transaction import (
    Transaction,
    TxType,
    make_deploy,
    make_invoke,
    make_transfer,
)
from repro.crypto.keys import generate_keypair, recover_check
from repro.workloads.synthetic import _restamp


class TestSigning:
    def test_transfer_is_signed_by_sender(self):
        kp = generate_keypair(1)
        tx = make_transfer(kp, "aa" * 20, 5, nonce=0)
        assert tx.sender == kp.address
        assert recover_check(tx.public_key, tx.signing_payload(), tx.signature, tx.sender)

    def test_signing_payload_excludes_signature(self):
        kp = generate_keypair(1)
        tx = make_transfer(kp, "aa" * 20, 5, nonce=0)
        unsigned_payload = tx.signing_payload()
        assert unsigned_payload == tx.signed_by(kp).signing_payload()

    def test_hash_depends_on_amount(self):
        kp = generate_keypair(1)
        a = make_transfer(kp, "aa" * 20, 5, nonce=0)
        b = make_transfer(kp, "aa" * 20, 6, nonce=0)
        assert a.tx_hash != b.tx_hash

    def test_hash_depends_on_nonce(self):
        kp = generate_keypair(1)
        assert (
            make_transfer(kp, "aa" * 20, 5, nonce=0).tx_hash
            != make_transfer(kp, "aa" * 20, 5, nonce=1).tx_hash
        )

    def test_hash_depends_on_payload(self):
        kp = generate_keypair(1)
        a = make_invoke(kp, "cc" * 20, "f", (1,), nonce=0)
        b = make_invoke(kp, "cc" * 20, "f", (2,), nonce=0)
        assert a.tx_hash != b.tx_hash

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=100))
    def test_property_hash_stable(self, amount, nonce):
        kp = generate_keypair(42)
        tx = make_transfer(kp, "bb" * 20, amount, nonce=nonce)
        assert tx.tx_hash == tx.tx_hash


def _count_hashes(monkeypatch):
    calls = []
    real = transaction_mod.hash_items

    def counting(items):
        calls.append(list(items))
        return real(items)

    monkeypatch.setattr(transaction_mod, "hash_items", counting)
    return calls


class TestSigningDigestMemo:
    def test_signed_copy_inherits_the_digest_it_was_signed_over(self, monkeypatch):
        calls = _count_hashes(monkeypatch)
        kp = generate_keypair(1)
        tx = make_invoke(kp, "cc" * 20, "f", (1, "x"), nonce=0)
        assert len(calls) == 1  # the unsigned object's digest, signed once
        for _ in range(3):
            assert recover_check(
                tx.public_key, tx.signing_payload(), tx.signature, tx.sender
            )
        assert len(calls) == 1
        tx.tx_hash
        tx.tx_hash
        assert len(calls) == 2  # plus one transaction hash

    def test_digest_matches_a_fresh_computation(self):
        kp = generate_keypair(1)
        tx = make_invoke(kp, "cc" * 20, "f", (1, "x"), nonce=3)
        fresh = Transaction(
            tx_type=tx.tx_type, sender=tx.sender, receiver=tx.receiver,
            amount=tx.amount, nonce=tx.nonce, gas_limit=tx.gas_limit,
            gas_price=tx.gas_price, payload=dict(tx.payload),
        )
        assert "signing_digest" not in fresh.__dict__
        assert fresh.signing_payload() == tx.signing_payload()

    def test_unsigned_transaction_digest_computed_once(self, monkeypatch):
        calls = _count_hashes(monkeypatch)
        tx = Transaction(
            tx_type=TxType.TRANSFER, sender="aa" * 20, receiver="bb" * 20,
            amount=1, nonce=0, gas_limit=21_000, gas_price=1,
        )
        assert tx.signing_payload() == tx.signing_payload()
        assert len(calls) == 1


class TestReadOnlyPayload:
    def test_payload_mutation_raises(self):
        kp = generate_keypair(1)
        tx = make_invoke(kp, "cc" * 20, "f", (1,), nonce=0)
        with pytest.raises(TypeError):
            tx.payload["args"] = (2,)
        with pytest.raises(TypeError):
            del tx.payload["function"]
        assert tx.payload["args"] == (1,)

    def test_signing_and_verifying_still_work(self):
        from repro.core.validation import check_signature, clear_signature_cache

        clear_signature_cache()
        kp = generate_keypair(1)
        tx = make_invoke(kp, "cc" * 20, "f", (1,), nonce=0)
        assert recover_check(tx.public_key, tx.signing_payload(), tx.signature, tx.sender)
        assert check_signature(tx)
        assert check_signature(tx)  # served from the cache

    def test_callers_dict_is_copied(self):
        payload = {"contract": "cc" * 20, "function": "f", "args": (1,)}
        tx = Transaction(
            tx_type=TxType.INVOKE, sender="aa" * 20, receiver="cc" * 20,
            amount=0, nonce=0, gas_limit=100_000, gas_price=1, payload=payload,
        )
        digest = tx.signing_payload()
        payload["args"] = (2,)
        assert tx.payload["args"] == (1,)
        assert tx.signing_payload() == digest

    def test_copies_share_the_view(self):
        kp = generate_keypair(1)
        unsigned = Transaction(
            tx_type=TxType.INVOKE, sender=kp.address, receiver="cc" * 20,
            amount=0, nonce=0, gas_limit=100_000, gas_price=1,
            payload={"contract": "cc" * 20, "function": "f", "args": (1,)},
        )
        signed = unsigned.signed_by(kp)
        assert signed.payload is unsigned.payload
        assert _restamp(signed, 4.0).payload is signed.payload

    def test_empty_payloads_share_one_view(self):
        kp = generate_keypair(1)
        a = make_transfer(kp, "aa" * 20, 5, nonce=0)
        b = make_transfer(kp, "aa" * 20, 5, nonce=1)
        assert a.payload is b.payload
        assert dict(a.payload) == {}


class TestSizesAndCosts:
    def test_bare_transfer_size(self):
        kp = generate_keypair(1)
        tx = make_transfer(kp, "aa" * 20, 5, nonce=0)
        assert 100 < tx.encoded_size() < 300

    def test_padding_inflates_size(self):
        kp = generate_keypair(1)
        small = make_transfer(kp, "aa" * 20, 5, nonce=0)
        big = make_transfer(kp, "aa" * 20, 5, nonce=0, padding=5000)
        assert big.encoded_size() == small.encoded_size() + 5000

    def test_data_size_excludes_envelope(self):
        kp = generate_keypair(1)
        tx = make_transfer(kp, "aa" * 20, 5, nonce=0)
        assert tx.data_size() == 0

    @given(
        payload=st.dictionaries(
            st.text(max_size=8),
            st.one_of(
                st.binary(max_size=40),
                st.text(max_size=20),
                st.integers(min_value=-(10**30), max_value=10**30),
                st.tuples(st.integers(), st.text(max_size=6), st.binary(max_size=6)),
            ),
            max_size=4,
        ),
        padding=st.integers(min_value=0, max_value=10_000),
        signed=st.booleans(),
    )
    def test_property_size_is_envelope_plus_data_plus_signature(
        self, payload, padding, signed
    ):
        """The one-formula size equals the former standalone loop."""
        kp = generate_keypair(7)
        tx = Transaction(
            tx_type=TxType.INVOKE, sender=kp.address, receiver="cc" * 20,
            amount=0, nonce=0, gas_limit=100_000, gas_price=1,
            payload=payload, padding=padding,
        )
        if signed:
            tx = tx.signed_by(kp)
        expected = 110 + padding
        for key, value in payload.items():
            expected += len(key)
            if isinstance(value, bytes):
                expected += len(value)
            elif isinstance(value, str):
                expected += len(value)
            else:
                expected += len(repr(value))
        if tx.signature is not None:
            expected += tx.signature.encoded_size()
        assert tx.encoded_size() == expected

    def test_max_cost(self):
        kp = generate_keypair(1)
        tx = make_transfer(kp, "aa" * 20, 100, nonce=0, gas_limit=21_000, gas_price=2)
        assert tx.max_cost() == 100 + 42_000
        assert tx.fee_cap() == 42_000


class TestConstructors:
    def test_deploy(self):
        kp = generate_keypair(1)
        tx = make_deploy(kp, b"\x00\x01", nonce=3)
        assert tx.tx_type is TxType.DEPLOY
        assert tx.payload["bytecode"] == b"\x00\x01"
        assert tx.nonce == 3

    def test_invoke(self):
        kp = generate_keypair(1)
        tx = make_invoke(kp, "cc" * 20, "trade", ("AAPL", 1), nonce=0, amount=9)
        assert tx.tx_type is TxType.INVOKE
        assert tx.payload["function"] == "trade"
        assert tx.payload["args"] == ("AAPL", 1)
        assert tx.amount == 9

    def test_uids_unique(self):
        kp = generate_keypair(1)
        a = make_transfer(kp, "aa" * 20, 5, nonce=0)
        b = make_transfer(kp, "aa" * 20, 5, nonce=0)
        assert a.uid != b.uid
