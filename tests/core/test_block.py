"""Blocks, certificates (Cert_B), superblocks."""

from repro.core.block import (
    GENESIS,
    Block,
    BlockCertificate,
    SuperBlock,
    make_block,
    transactions_hash,
)
from repro.core.transaction import make_transfer
from repro.crypto.keys import generate_keypair


def _txs(count, seed=1):
    kp = generate_keypair(seed)
    return [make_transfer(kp, "aa" * 20, 1, nonce=i) for i in range(count)]


class TestBlock:
    def test_make_block_is_certified(self):
        kp = generate_keypair(1)
        block = make_block(kp, 0, 1, _txs(3))
        assert block.header_valid()
        assert block.certificate.proposer_address() == kp.address

    def test_uncertified_block_invalid(self):
        block = Block(proposer_id=0, index=1, transactions=tuple(_txs(2)))
        assert not block.header_valid()

    def test_tampered_txs_invalidate_certificate(self):
        kp = generate_keypair(1)
        block = make_block(kp, 0, 1, _txs(3))
        tampered = Block(
            proposer_id=0, index=1, transactions=tuple(_txs(2, seed=9)),
            certificate=block.certificate,
        )
        assert not tampered.header_valid()

    def test_certificate_from_wrong_key_invalid(self):
        kp, evil = generate_keypair(1), generate_keypair(66)
        txs = _txs(2)
        good = make_block(kp, 0, 1, txs)
        stolen = make_block(evil, 0, 1, txs)
        # evil's certificate verifies only for evil's key record
        assert stolen.header_valid()
        assert stolen.certificate.proposer_address() != kp.address

    def test_block_hash_covers_contents(self):
        kp = generate_keypair(1)
        a = make_block(kp, 0, 1, _txs(2))
        b = make_block(kp, 0, 2, _txs(2))
        assert a.block_hash != b.block_hash

    def test_header_check_reuses_cached_root(self, monkeypatch):
        from repro.core import block as block_mod

        kp = generate_keypair(1)
        block = make_block(kp, 0, 1, _txs(3))
        assert "tx_root" in block.__dict__  # handed over by with_certificate

        def recompute(leaves):
            raise AssertionError("header_valid rebuilt the Merkle root")

        monkeypatch.setattr(block_mod, "merkle_root", recompute)
        assert block.header_valid()
        assert block.header_valid()

    def test_certified_root_equals_recomputed_root(self):
        kp = generate_keypair(1)
        txs = _txs(5)
        block = make_block(kp, 0, 1, txs)
        assert block.tx_root == transactions_hash(txs)

    def test_chained_copy_keeps_root_only_when_nothing_filtered(self):
        kp = generate_keypair(1)
        txs = tuple(_txs(4))
        block = make_block(kp, 0, 1, txs)
        whole = block.chained(7, b"\x01" * 32, txs)
        assert whole.__dict__["tx_root"] == transactions_hash(txs)
        assert (whole.index, whole.parent_hash) == (7, b"\x01" * 32)
        assert whole.certificate is block.certificate and whole.header_valid()
        filtered = block.chained(7, b"\x01" * 32, txs[:3])
        assert "tx_root" not in filtered.__dict__
        assert filtered.tx_root == transactions_hash(txs[:3])
        assert not filtered.header_valid()  # certificate covers the original set

    def test_encoded_size_memo_matches_recomputation(self):
        kp = generate_keypair(1)
        txs = _txs(6)
        block = make_block(kp, 0, 1, txs)
        from_scratch = 200 + sum(tx.encoded_size() for tx in txs)
        assert block.encoded_size() == from_scratch
        assert block.encoded_size() == from_scratch  # memoized read
        fresh = Block(proposer_id=0, index=1, transactions=tuple(txs))
        assert fresh.encoded_size() == from_scratch

    def test_encoded_size(self):
        kp = generate_keypair(1)
        assert make_block(kp, 0, 1, _txs(5)).encoded_size() > make_block(
            kp, 0, 1, []
        ).encoded_size()

    def test_len(self):
        kp = generate_keypair(1)
        assert len(make_block(kp, 0, 1, _txs(4))) == 4

    def test_genesis(self):
        assert GENESIS.index == 0
        assert len(GENESIS) == 0


class TestTransactionsHash:
    def test_empty(self):
        assert transactions_hash([]) == transactions_hash([])

    def test_order_sensitive(self):
        txs = _txs(2)
        assert transactions_hash(txs) != transactions_hash(list(reversed(txs)))


class TestSuperBlock:
    def test_iteration_and_counts(self):
        kp1, kp2 = generate_keypair(1), generate_keypair(2)
        b1 = make_block(kp1, 0, 1, _txs(2, seed=3))
        b2 = make_block(kp2, 1, 1, _txs(3, seed=4))
        sb = SuperBlock(index=1, blocks=(b1, b2))
        assert len(sb) == 2
        assert sb.transaction_count() == 5
        assert list(sb.all_transactions()) == list(b1.transactions) + list(
            b2.transactions
        )

    def test_hash_covers_blocks(self):
        kp = generate_keypair(1)
        b1 = make_block(kp, 0, 1, _txs(1, seed=3))
        b2 = make_block(kp, 0, 1, _txs(1, seed=4))
        assert (
            SuperBlock(index=1, blocks=(b1,)).superblock_hash
            != SuperBlock(index=1, blocks=(b2,)).superblock_hash
        )
