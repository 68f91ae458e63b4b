"""Eager vs lazy validation — the layering §IV-D depends on."""

import pytest

from repro import params
from repro.core.transaction import Transaction, TxType, make_transfer
from repro.core.validation import (
    NONCE_WINDOW,
    check_signature,
    clear_signature_cache,
    eager_validate,
    lazy_validate,
)
from repro.crypto.keys import generate_keypair
from repro.vm.state import WorldState

FUNDS = 10**9


@pytest.fixture
def kp():
    return generate_keypair(5)


@pytest.fixture
def state(kp):
    ws = WorldState()
    ws.create_account(kp.address, FUNDS)
    return ws


class TestEagerValidation:
    def test_valid_transfer_passes(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 10, nonce=0)
        assert eager_validate(tx, state)

    def test_unsigned_fails(self, kp, state):
        tx = Transaction(
            tx_type=TxType.TRANSFER, sender=kp.address, receiver="aa" * 20,
            amount=1, nonce=0, gas_limit=21_000, gas_price=1,
        )
        assert eager_validate(tx, state).error_code == "invalid-sig"

    def test_forged_sender_fails(self, kp, state):
        other = generate_keypair(6)
        tx = make_transfer(other, "aa" * 20, 1, nonce=0)
        forged = Transaction(
            tx_type=tx.tx_type, sender=kp.address, receiver=tx.receiver,
            amount=tx.amount, nonce=tx.nonce, gas_limit=tx.gas_limit,
            gas_price=tx.gas_price, public_key=tx.public_key, signature=tx.signature,
        )
        assert eager_validate(forged, state).error_code == "invalid-sig"

    def test_oversized_fails(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 1, nonce=0, padding=params.MAX_TX_SIZE)
        assert eager_validate(tx, state).error_code == "oversized"

    def test_past_nonce_fails(self, kp, state):
        state.bump_nonce(kp.address)
        tx = make_transfer(kp, "aa" * 20, 1, nonce=0)
        assert eager_validate(tx, state).error_code == "bad-nonce"

    def test_future_nonce_within_window_passes(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 1, nonce=NONCE_WINDOW)
        assert eager_validate(tx, state)

    def test_far_future_nonce_fails(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 1, nonce=NONCE_WINDOW + 1)
        assert eager_validate(tx, state).error_code == "bad-nonce"

    def test_zero_balance_sender_fails(self, state):
        broke = generate_keypair(7)
        tx = make_transfer(broke, "aa" * 20, 1, nonce=0)
        outcome = eager_validate(tx, state)
        assert outcome.error_code in ("insufficient-gas", "insufficient-balance")

    def test_amount_beyond_balance_fails(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, FUNDS, nonce=0)
        assert eager_validate(tx, state).error_code == "insufficient-balance"

    def test_gas_limit_above_block_limit_fails(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 1, nonce=0,
                           gas_limit=params.BLOCK_GAS_LIMIT + 1)
        assert eager_validate(tx, state).error_code == "exceeds-block-gas"

    def test_unfittable_gas_limit_reported_before_balance(self, kp, state):
        """Regression: a gas limit no block can fit is an *intrinsic*
        defect.  It used to be checked after the balance checks, so a
        sender who (of course) couldn't afford the inflated fee cap got a
        misleading "insufficient-gas" — and RPM reports blamed the wrong
        failure class.  A broke sender must still see exceeds-block-gas."""
        broke = generate_keypair(9)
        state.create_account(broke.address, 1)  # cannot cover any fee cap
        tx = make_transfer(broke, "aa" * 20, 1, nonce=0,
                           gas_limit=params.BLOCK_GAS_LIMIT + 1)
        assert eager_validate(tx, state).error_code == "exceeds-block-gas"


class TestLazyValidation:
    def test_valid_passes(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 10, nonce=0)
        assert lazy_validate(tx, state)

    def test_lazy_skips_signature(self, kp, state):
        """Lazy validation is weaker than eager: an unsigned transaction
        passes (the execution layer catches it) — §IV-D's check split."""
        tx = Transaction(
            tx_type=TxType.TRANSFER, sender=kp.address, receiver="aa" * 20,
            amount=1, nonce=0, gas_limit=21_000, gas_price=1,
        )
        assert lazy_validate(tx, state)

    def test_lazy_skips_size(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 1, nonce=0, padding=params.MAX_TX_SIZE)
        assert lazy_validate(tx, state)

    def test_lazy_requires_exact_nonce(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 1, nonce=1)
        assert lazy_validate(tx, state).error_code == "bad-nonce"

    def test_lazy_checks_balance(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, FUNDS, nonce=0)
        assert lazy_validate(tx, state).error_code == "insufficient-balance"

    def test_lazy_checks_gas_affordability(self, state):
        poor = generate_keypair(8)
        state.create_account(poor.address, 100)  # can't cover 21000 gas
        tx = make_transfer(poor, "aa" * 20, 1, nonce=0)
        assert lazy_validate(tx, state).error_code == "insufficient-gas"

    def test_eager_strictly_stronger(self, kp, state):
        """Everything lazy rejects, eager rejects too (on fresh state)."""
        cases = [
            make_transfer(kp, "aa" * 20, FUNDS, nonce=0),
            make_transfer(kp, "aa" * 20, 1, nonce=NONCE_WINDOW + 5),
        ]
        for tx in cases:
            if not lazy_validate(tx, state):
                assert not eager_validate(tx, state)


class TestSignatureCache:
    def _count_recoveries(self, monkeypatch):
        """Wrap the underlying recover_check with an invocation counter."""
        from repro.core import validation
        from repro.crypto.keys import recover_check as real

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(validation, "recover_check", counting)
        return calls

    def test_second_check_hits_cache(self, kp, monkeypatch):
        calls = self._count_recoveries(monkeypatch)
        tx = make_transfer(kp, "aa" * 20, 10, nonce=0)
        assert check_signature(tx)
        assert check_signature(tx)
        assert len(calls) == 1  # one full recovery, one cache hit

    def test_negative_results_are_not_cached(self, kp, monkeypatch):
        calls = self._count_recoveries(monkeypatch)
        good = make_transfer(kp, "aa" * 20, 10, nonce=0)
        forged = Transaction(
            tx_type=good.tx_type, sender=generate_keypair(10).address,
            receiver=good.receiver, amount=good.amount, nonce=good.nonce,
            gas_limit=good.gas_limit, gas_price=good.gas_price,
            public_key=good.public_key, signature=good.signature,
        )
        assert not check_signature(forged)
        assert not check_signature(forged)
        assert len(calls) == 2  # both failures recomputed in full

    def test_tampered_resubmission_with_reused_hash_misses_cache(self, kp):
        """An attacker who re-submits tampered content under an
        already-verified transaction hash must not be vouched for by the
        cache: the fingerprint covers every signature-relevant field, so
        the check falls through to full recovery — which fails."""
        good = make_transfer(kp, "aa" * 20, 10, nonce=0)
        assert check_signature(good)  # hash now cached as verified
        tampered = Transaction(
            tx_type=good.tx_type, sender=good.sender, receiver=good.receiver,
            amount=good.amount + 10**6, nonce=good.nonce,
            gas_limit=good.gas_limit, gas_price=good.gas_price,
            public_key=good.public_key, signature=good.signature,
        )
        # Force the collision: pre-seed the cached_property with the
        # verified transaction's hash, as a malicious peer would claim.
        tampered.__dict__["tx_hash"] = good.tx_hash
        assert tampered.tx_hash == good.tx_hash
        assert not check_signature(tampered)
        # ... and the poisoned attempt did not evict/overwrite the entry
        assert check_signature(good)

    def test_cache_is_bounded(self, kp, monkeypatch):
        from repro.core import validation

        monkeypatch.setattr(validation, "SIG_CACHE_CAPACITY", 4)
        clear_signature_cache()
        txs = [make_transfer(kp, "aa" * 20, 1, nonce=i) for i in range(10)]
        for tx in txs:
            assert check_signature(tx)
        assert len(validation._sig_cache) == 4
        # LRU: the most recent entries survive
        assert txs[-1].tx_hash in validation._sig_cache
        assert txs[0].tx_hash not in validation._sig_cache

    def test_unsigned_rejected_without_recovery(self, kp, monkeypatch):
        calls = self._count_recoveries(monkeypatch)
        tx = Transaction(
            tx_type=TxType.TRANSFER, sender=kp.address, receiver="aa" * 20,
            amount=1, nonce=0, gas_limit=21_000, gas_price=1,
        )
        assert not check_signature(tx)
        assert not calls
