"""Unit tests for the erase-block model and NAND constraints.

Block state is set up through the chip's raw operations
(:meth:`NandFlash.program_page`, ``invalidate_page``, ``erase_block``),
the one place the constraints are enforced; the assertions read the
block's own counters and pages.
"""

import pytest

from repro.flash import FlashGeometry, NandFlash, OOBData, PageState
from repro.flash.errors import (
    EraseError,
    ProgramError,
    ReadError,
    RedundantInvalidateWarning,
)


def make_chip(pages=8, enforce_sequential=True):
    return NandFlash(FlashGeometry(num_blocks=1, pages_per_block=pages),
                     enforce_sequential=enforce_sequential)


class TestProgramming:
    def test_sequential_program_advances_write_ptr(self):
        chip = make_chip()
        for i in range(3):
            chip.program_page(i, f"d{i}")
        b = chip.block(0)
        assert b.write_ptr == 3
        assert b.valid_count == 3
        assert b.free_count == 5

    def test_erase_before_write_enforced(self):
        chip = make_chip()
        chip.program_page(0, "x")
        with pytest.raises(ProgramError, match="non-free page"):
            chip.program_page(0, "y")

    def test_sequential_programming_enforced(self):
        chip = make_chip()
        with pytest.raises(ProgramError, match="non-sequential"):
            chip.program_page(3, "x")

    def test_out_of_order_allowed_when_not_enforced(self):
        chip = make_chip(enforce_sequential=False)
        chip.program_page(3, "x")
        b = chip.block(0)
        assert b.write_ptr == 4
        assert b.pages[3].is_valid

    def test_is_full(self):
        chip = make_chip(pages=2)
        b = chip.block(0)
        assert not b.is_full
        chip.program_page(0, "a")
        chip.program_page(1, "b")
        assert b.is_full

    def test_program_stores_data_and_oob(self):
        chip = make_chip()
        chip.program_page(0, "payload", OOBData(lpn=42, seq=7))
        data, got_oob, _ = chip.read_page(0)
        assert data == "payload"
        assert got_oob.lpn == 42
        assert got_oob.seq == 7


class TestInvalidateAndCounters:
    def test_invalidate_decrements_valid_count(self):
        chip = make_chip()
        chip.program_page(0, "a")
        chip.program_page(1, "b")
        chip.invalidate_page(0)
        b = chip.block(0)
        assert b.valid_count == 1
        assert b.invalid_count == 1
        assert b.pages[0].state is PageState.INVALID

    def test_invalidate_is_idempotent(self):
        # A second invalidate changes no state; it is counted and warned
        # about as an FTL bookkeeping slip.
        chip = make_chip()
        chip.program_page(0, "a")
        chip.invalidate_page(0)
        with pytest.warns(RedundantInvalidateWarning):
            chip.invalidate_page(0)
        assert chip.block(0).valid_count == 0
        assert chip.stats.redundant_invalidates == 1

    def test_invalidate_free_page_rejected(self):
        chip = make_chip()
        with pytest.raises(ProgramError, match="invalidate of free page"):
            chip.invalidate_page(5)

    def test_valid_offsets(self):
        chip = make_chip()
        for i in range(4):
            chip.program_page(i, i)
        chip.invalidate_page(1)
        chip.invalidate_page(3)
        assert list(chip.block(0).valid_offsets()) == [0, 2]


class TestErase:
    def test_erase_resets_block_and_counts_wear(self):
        chip = make_chip()
        chip.program_page(0, "a", OOBData(lpn=1, seq=0))
        chip.invalidate_page(0)
        chip.erase_block(0)
        b = chip.block(0)
        assert b.is_empty
        assert b.erase_count == 1
        assert all(p.is_free and p.data is None and p.oob is None
                   for p in b.pages)

    def test_erase_with_valid_pages_refused(self):
        chip = make_chip()
        chip.program_page(0, "a")
        with pytest.raises(EraseError):
            chip.erase_block(0)

    def test_force_erase_ignores_valid_pages(self):
        chip = make_chip()
        chip.program_page(0, "a")
        b = chip.block(0)
        b.force_erase()  # ftlint: disable=FTL003 - testing the device layer
        assert b.is_empty
        assert b.erase_count == 1

    def test_block_reusable_after_erase(self):
        chip = make_chip(pages=2)
        for cycle in range(3):
            chip.program_page(0, cycle)
            chip.program_page(1, cycle)
            chip.invalidate_page(0)
            chip.invalidate_page(1)
            chip.erase_block(0)
        b = chip.block(0)
        assert b.erase_count == 3
        assert b.is_empty


class TestReads:
    def test_read_unprogrammed_page_rejected(self):
        chip = make_chip()
        with pytest.raises(ReadError):
            chip.read_page(0)

    def test_read_invalid_page_allowed(self):
        # Stale copies remain physically readable until erased - recovery
        # scans rely on this.
        chip = make_chip()
        chip.program_page(0, "old")
        chip.invalidate_page(0)
        data, _, _ = chip.read_page(0)
        assert data == "old"
