"""Eager and lazy transaction validation (§II-B, §IV-D).

* **Eager validation** — performed when a transaction arrives from a client
  (and, in modern-blockchain mode, from peers): signature, size limit,
  nonce plausibility, gas affordability, balance coverage.  It is the
  expensive check — the signature verification dominates.
* **Lazy validation** — performed just before execution: nonce exactness,
  gas affordability, balance coverage.  No signature check (that happens at
  execution, raising ``ErrInvalidSig``-equivalent errors), so it is cheap.

Both return a :class:`ValidationOutcome` rather than raising, because
validators *count* failures (they feed RPM reports and DIABLO loss metrics).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from types import SimpleNamespace

from repro import params, telemetry
from repro.core.transaction import Transaction
from repro.crypto.keys import recover_check
from repro.telemetry import timed

#: How far ahead of the account nonce the pool accepts transactions
#: (Geth tolerates gaps in the queued region; we use a simple window).
NONCE_WINDOW = 1024

_metrics = telemetry.bind(
    lambda reg: SimpleNamespace(
        sig_hits=reg.counter(
            "srbb_sig_cache_hits_total", "signature checks served from cache"
        ),
        sig_misses=reg.counter(
            "srbb_sig_cache_misses_total", "signature checks fully recomputed"
        ),
    )
)


@dataclass(frozen=True)
class ValidationOutcome:
    """Result of a validation pass."""

    ok: bool
    error_code: str | None = None

    def __bool__(self) -> bool:
        return self.ok


_OK = ValidationOutcome(True)


def _fail(code: str) -> ValidationOutcome:
    return ValidationOutcome(False, code)


# -- signature cache -----------------------------------------------------------
#
# Every node eagerly validates every transaction it sees, and execution
# repeats the recovery check — so the same (tx, signature) pair is verified
# many times per process.  Cache *positive* verdicts only, keyed by tx hash,
# and guard against hash-reuse tampering by storing a fingerprint of every
# signature-relevant field: a doctored transaction that somehow reuses a
# cached hash still falls through to the full ``recover_check``.  The
# fingerprint reads the transaction's signing digest, which each object
# computes once from its own (read-only) fields, so a hit costs a tuple
# compare rather than a re-hash of the transaction.

SIG_CACHE_CAPACITY = 65_536

#: tx_hash -> fingerprint of the verified transaction (LRU, positives only)
_sig_cache: "OrderedDict[bytes, tuple]" = OrderedDict()


def _sig_fingerprint(tx: Transaction) -> tuple:
    return (
        tx.signing_payload(),
        tx.signature.tag,
        tx.signature.vk,
        tx.public_key.raw,
        tx.public_key.binding,
        tx.sender,
    )


def check_signature(tx: Transaction) -> bool:
    """``recover_check`` with a bounded positive-result cache.

    Negative results are never cached (an attacker could otherwise poison
    a hash before the honest submission arrives), and a cache hit counts
    only when every signature-relevant field matches the entry — reusing a
    verified transaction's hash on tampered content misses the cache.
    """
    if tx.signature is None or tx.public_key is None:
        return False
    m = _metrics()
    fingerprint = _sig_fingerprint(tx)
    if _sig_cache.get(tx.tx_hash) == fingerprint:
        _sig_cache.move_to_end(tx.tx_hash)
        m.sig_hits.inc()
        return True
    m.sig_misses.inc()
    ok = recover_check(tx.public_key, tx.signing_payload(), tx.signature, tx.sender)
    if ok:
        _sig_cache[tx.tx_hash] = fingerprint
        _sig_cache.move_to_end(tx.tx_hash)
        while len(_sig_cache) > SIG_CACHE_CAPACITY:
            _sig_cache.popitem(last=False)
    return ok


def clear_signature_cache() -> None:
    """Drop every cached verdict (tests and long-running sweeps)."""
    _sig_cache.clear()


@timed("srbb_eager_validate_seconds", "wall time per eager validation")
def eager_validate(
    tx: Transaction,
    state,
    protocol: params.ProtocolParams | None = None,
) -> ValidationOutcome:
    """Full admission check for a transaction entering the pool.

    ``state`` is a :class:`~repro.vm.state.WorldState` (duck-typed to avoid
    an import cycle).  Checks, in the paper's order: (i) signature,
    (ii) size, (iii) nonce window, (iv) gas affordability, (v) balance.
    """
    protocol = protocol or params.ProtocolParams()
    # (i) properly signed
    if tx.signature is None or tx.public_key is None:
        return _fail("invalid-sig")
    if not check_signature(tx):
        return _fail("invalid-sig")
    # (ii) size limit
    if tx.encoded_size() > protocol.max_tx_size:
        return _fail("oversized")
    # A gas limit above the block gas limit can never fit in any block —
    # an *intrinsic* defect, checked before the account-state lookups so
    # it is reported as such even when the sender is also broke (it used
    # to surface as "insufficient-gas" whenever the balance checks ran
    # first and tripped on the inflated fee cap).
    if tx.gas_limit > protocol.block_gas_limit:
        return _fail("exceeds-block-gas")
    # (iii) nonce: not in the past, not absurdly in the future
    current = state.nonce_of(tx.sender)
    if tx.nonce < current:
        return _fail("bad-nonce")
    if tx.nonce > current + NONCE_WINDOW:
        return _fail("bad-nonce")
    # (iv) gas cost covered + (v) amount covered
    balance = state.balance_of(tx.sender)
    if balance < tx.fee_cap():
        return _fail("insufficient-gas")
    if balance < tx.max_cost():
        return _fail("insufficient-balance")
    return _OK


def lazy_validate(
    tx: Transaction,
    state,
    protocol: params.ProtocolParams | None = None,
) -> ValidationOutcome:
    """Pre-execution check: (iii) exact nonce, (iv) gas, (v) balance.

    Deliberately weaker than eager validation — no signature or size check
    (§IV-D: "lazy validation checks (iii), (iv), (v) whereas the execution
    checks (i) and (ii)").
    """
    protocol = protocol or params.ProtocolParams()
    if tx.nonce != state.nonce_of(tx.sender):
        return _fail("bad-nonce")
    balance = state.balance_of(tx.sender)
    if balance < tx.fee_cap():
        return _fail("insufficient-gas")
    if balance < tx.max_cost():
        return _fail("insufficient-balance")
    return _OK
