"""Memory bound on retained consensus state: vote sets stay compact.

Every decided binary instance keeps its per-round vote records until its
chain index is retired, so their size is what a long committee run holds.
An n=16 in-process harness decides 20 chain indexes and reads the bytes
``tracemalloc`` still attributes to them afterwards.
"""

import gc
import tracemalloc
from collections import deque

from repro.consensus.superblock import SuperBlockConsensus
from repro.core.block import make_block
from repro.crypto.keys import generate_keypair

N, F, INDEXES = 16, 5, 20
#: retained bytes allowed per decided binary instance (sender bitmasks
#: need about 1.6 KiB here; per-vote Python sets needed about 9.5 KiB)
MAX_BYTES_PER_INSTANCE = 2048


def _decide_index(index, blocks):
    """Run one index to completion on n in-process nodes; return them."""
    queue = deque()
    superblocks = {}
    nodes = [
        SuperBlockConsensus(
            n=N, f=F, my_id=i, index=index,
            broadcast=queue.append,
            on_superblock=lambda sb, i=i: superblocks.__setitem__(i, sb),
            validate_header=lambda block: True,
        )
        for i in range(N)
    ]
    for node, block in zip(nodes, blocks):
        node.propose(block)
    while queue:
        msg = queue.popleft()
        for node in nodes:
            node.on_message(msg)
    assert len(superblocks) == N
    assert len({sb.blocks for sb in superblocks.values()}) == 1
    return nodes


def test_retained_bytes_per_decided_binary_instance():
    blocks = [
        make_block(generate_keypair(3000 + i), i, 1, [], round=1)
        for i in range(N)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        retained = [_decide_index(index, blocks) for index in range(1, INDEXES + 1)]
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    decided = sum(
        instance.decided is not None
        for nodes in retained
        for node in nodes
        for instance in node.instances.values()
    )
    assert decided == N * N * INDEXES
    per_instance = (after - before) / decided
    assert per_instance <= MAX_BYTES_PER_INSTANCE, per_instance
