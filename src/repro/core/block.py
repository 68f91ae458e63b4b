"""Blocks, proposer certificates, and superblocks.

A block is a batch of transactions proposed by one validator.  Its
certificate ``Cert_B = {P_k, (h_t)_{S_k}}`` (Alg. 2) carries the proposer's
public key and the signed hash of the block's transactions; RPM verifies it
to credit rewards and attribute invalid transactions.

A superblock (RBBC's optimization) is the ordered union of the blocks whose
DBFT binary instance decided 1 in a consensus round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from repro.core.transaction import Transaction
from repro.crypto import (
    KeyPair,
    PublicKey,
    Signature,
    hash_items,
    merkle_root,
    sign,
    verify,
)
from repro.crypto.keys import derive_address


def transactions_hash(txs: Sequence[Transaction]) -> bytes:
    """``h_t`` of Alg. 2 — Merkle root over the transaction hashes."""
    return merkle_root([tx.tx_hash for tx in txs])


@dataclass(frozen=True)
class BlockCertificate:
    """``Cert_B``: proposer public key + signed transactions hash."""

    public_key: PublicKey
    signed_tx_hash: Signature

    def proposer_address(self) -> str:
        """``derive(P_k)`` of Alg. 2."""
        return derive_address(self.public_key)

    def verify_root(self, tx_root: bytes) -> bool:
        """Check the signature covers this transactions hash ``h_t``."""
        return verify(self.public_key, tx_root, self.signed_tx_hash)


@dataclass(frozen=True)
class Block:
    """One proposer's batch of transactions for a chain index.

    Immutable, like its transactions, so the derived values below (root,
    hash, wire size) are computed once per block object.
    """

    proposer_id: int
    index: int
    transactions: tuple[Transaction, ...]
    parent_hash: bytes = b""
    certificate: BlockCertificate | None = None
    #: round of the consensus instance that proposed this block
    round: int = 0

    @cached_property
    def tx_root(self) -> bytes:
        return transactions_hash(self.transactions)

    @cached_property
    def block_hash(self) -> bytes:
        return hash_items(
            ["block", self.proposer_id, self.index, self.round,
             self.parent_hash, self.tx_root]
        )

    def __len__(self) -> int:
        return len(self.transactions)

    @cached_property
    def _encoded_size(self) -> int:
        return 200 + sum(tx.encoded_size() for tx in self.transactions)

    def encoded_size(self) -> int:
        """Wire size: ~200-byte header + transactions."""
        return self._encoded_size

    def header_valid(self) -> bool:
        """The 'invalid header' check of Alg. 1 line 16: a block's
        certificate must exist and must sign exactly its transactions."""
        return self.certificate is not None and self.certificate.verify_root(
            self.tx_root
        )

    def chained(
        self, index: int, parent_hash: bytes, kept: tuple[Transaction, ...]
    ) -> "Block":
        """The chain's copy of this decided block: re-indexed, linked to
        its parent, holding the ``kept`` (valid) subsequence of its
        transactions and still carrying the proposer's certificate."""
        block = Block(
            proposer_id=self.proposer_id,
            index=index,
            transactions=kept,
            parent_hash=parent_hash,
            certificate=self.certificate,
            round=self.round,
        )
        if len(kept) == len(self.transactions):
            # Nothing filtered out: same transactions, same root.
            object.__setattr__(block, "tx_root", self.tx_root)
        return block

    def with_certificate(self, keypair: KeyPair) -> "Block":
        """Return a copy certified by the proposer's key pair."""
        root = self.tx_root
        cert = BlockCertificate(
            public_key=keypair.public,
            signed_tx_hash=sign(keypair.private, root),
        )
        certified = Block(
            proposer_id=self.proposer_id,
            index=self.index,
            transactions=self.transactions,
            parent_hash=self.parent_hash,
            certificate=cert,
            round=self.round,
        )
        # Same transactions, same root: hand over the one just signed.
        object.__setattr__(certified, "tx_root", root)
        return certified


def make_block(
    proposer: KeyPair,
    proposer_id: int,
    index: int,
    txs: Sequence[Transaction],
    *,
    parent_hash: bytes = b"",
    round: int = 0,
) -> Block:
    """Build and certify a block in one step."""
    return Block(
        proposer_id=proposer_id,
        index=index,
        transactions=tuple(txs),
        parent_hash=parent_hash,
        round=round,
    ).with_certificate(proposer)


@dataclass(frozen=True)
class SuperBlock:
    """Decided superblock ``B*`` for one chain index: ordered sub-blocks."""

    index: int
    blocks: tuple[Block, ...]
    round: int = 0

    @cached_property
    def superblock_hash(self) -> bytes:
        return hash_items(
            ["superblock", self.index, self.round]
            + [b.block_hash for b in self.blocks]
        )

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def transaction_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def all_transactions(self) -> Iterator[Transaction]:
        for block in self.blocks:
            yield from block.transactions


GENESIS = Block(proposer_id=-1, index=0, transactions=())
