"""Unit tests for the block pool and GC victim policies."""

import pytest

from repro.flash import FlashGeometry, NandFlash
from repro.ftl.gc_policy import select_cost_benefit, select_greedy
from repro.ftl.pool import BlockPool, OutOfBlocksError


class TestBlockPool:
    def test_fifo_order(self):
        p = BlockPool([3, 1, 2])
        assert p.allocate() == 3
        assert p.allocate() == 1
        p.release(3)
        assert p.allocate() == 2
        assert p.allocate() == 3

    def test_len_and_contains(self):
        p = BlockPool([0, 1])
        assert len(p) == 2
        assert 0 in p
        p.allocate()
        assert 0 not in p
        assert len(p) == 1

    def test_exhaustion_raises(self):
        p = BlockPool([0])
        p.allocate()
        with pytest.raises(OutOfBlocksError):
            p.allocate()

    def test_double_release_rejected(self):
        p = BlockPool([0])
        with pytest.raises(ValueError):
            p.release(0)

    def test_duplicate_init_rejected(self):
        with pytest.raises(ValueError):
            BlockPool([1, 1])

    def test_peek(self):
        p = BlockPool([5, 6])
        assert p.peek() == 5
        p.allocate()
        p.allocate()
        assert p.peek() is None

    def test_snapshot(self):
        p = BlockPool([4, 5, 6])
        p.allocate()
        assert p.snapshot() == [5, 6]


def block_with(index, valid, programmed, pages=8):
    chip = NandFlash(FlashGeometry(num_blocks=index + 1, pages_per_block=pages))
    base = index * pages
    for i in range(programmed):
        chip.program_page(base + i, i)
    for i in range(valid, programmed):
        chip.invalidate_page(base + i)
    return chip.block(index)


class TestGreedyPolicy:
    def test_picks_fewest_valid(self):
        blocks = [
            block_with(0, valid=5, programmed=8),
            block_with(1, valid=2, programmed=8),
            block_with(2, valid=7, programmed=8),
        ]
        assert select_greedy(blocks).index == 1

    def test_tie_breaks_by_index(self):
        blocks = [
            block_with(2, valid=3, programmed=8),
            block_with(1, valid=3, programmed=8),
        ]
        assert select_greedy(blocks).index == 1

    def test_empty_candidates(self):
        assert select_greedy([]) is None


class TestCostBenefitPolicy:
    def test_prefers_old_sparse_blocks(self):
        young_sparse = block_with(0, valid=2, programmed=8)
        old_sparse = block_with(1, valid=2, programmed=8)
        ages = {0: 1.0, 1: 100.0}
        pick = select_cost_benefit(
            [young_sparse, old_sparse], age_of=lambda b: ages[b.index]
        )
        assert pick.index == 1

    def test_fully_valid_block_never_picked_over_reclaimable(self):
        full = block_with(0, valid=8, programmed=8)
        sparse = block_with(1, valid=6, programmed=8)
        pick = select_cost_benefit([full, sparse], age_of=lambda b: 1.0)
        assert pick.index == 1

    def test_empty_candidates(self):
        assert select_cost_benefit([], age_of=lambda b: 1.0) is None
