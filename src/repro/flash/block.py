"""One NAND erase block: a fixed array of pages plus its counters.

The block holds the counters (valid pages, write pointer, erase count) that
garbage-collection and wear-leveling policies consume.  The two constraints
that shape every FTL design are enforced where pages are programmed, in
:meth:`repro.flash.chip.NandFlash.program_page`:

* **erase-before-write** - a page can only be programmed while FREE;
* **sequential programming** - pages within a block must be programmed in
  ascending offset order (the NOP=1 rule of SLC/MLC NAND).
"""

from __future__ import annotations

from typing import Iterator, List

from .errors import EraseError
from .page import Page, PageState


class Block:
    """A fixed-size erase block.

    Attributes:
        index: The block's physical block number on the device.
        erase_count: How many times this block has been erased (wear).
    """

    __slots__ = (
        "index",
        "pages",
        "erase_count",
        "is_bad",
        "_write_ptr",
        "_valid_count",
    )

    def __init__(self, index: int, pages_per_block: int):
        if pages_per_block <= 0:
            raise ValueError("pages_per_block must be positive")
        self.index = index
        self.pages: List[Page] = [Page() for _ in range(pages_per_block)]
        self.erase_count = 0
        self.is_bad = False
        self._write_ptr = 0          # next programmable offset
        self._valid_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pages_per_block(self) -> int:
        return len(self.pages)

    @property
    def write_ptr(self) -> int:
        """Offset of the next free page (== pages programmed since erase)."""
        return self._write_ptr

    @property
    def valid_count(self) -> int:
        """Number of VALID pages currently in the block."""
        return self._valid_count

    @property
    def invalid_count(self) -> int:
        """Number of INVALID (stale) pages currently in the block."""
        return self._write_ptr - self._valid_count

    @property
    def free_count(self) -> int:
        """Number of still-programmable pages."""
        return len(self.pages) - self._write_ptr

    @property
    def is_full(self) -> bool:
        """True when every page has been programmed since the last erase."""
        return self._write_ptr >= len(self.pages)

    @property
    def is_empty(self) -> bool:
        """True when the block is fully erased."""
        return self._write_ptr == 0

    def valid_offsets(self) -> Iterator[int]:
        """Yield the offsets of all VALID pages, ascending."""
        for offset in range(self._write_ptr):
            if self.pages[offset].state is PageState.VALID:
                yield offset

    def programmed_offsets(self) -> Iterator[int]:
        """Yield offsets of all programmed (valid or invalid) pages."""
        return iter(range(self._write_ptr))

    # ------------------------------------------------------------------
    # Inline-program accounting (the untraced fast paths)
    # ------------------------------------------------------------------
    def note_programmed(self) -> None:
        """Advance the frontier counters for one in-place page program.

        The untraced fast paths (the ``maintenance_fast_path`` relocation
        loops and the batch-replay kernels) program the frontier page by
        mutating it directly instead of calling
        :meth:`repro.flash.chip.NandFlash.program_page` - they have
        already established the page is FREE and at the write pointer,
        and they skip the checks to stay cheap.  This is the sanctioned
        way for them to keep the block counters honest; it is the
        accounting half of ``program_page`` with the NAND-constraint
        checks elided.
        """
        self._write_ptr += 1
        self._valid_count += 1

    def note_programmed_run(self, write_ptr: int, added_valid: int) -> None:
        """Bulk twin of :meth:`note_programmed` for an epoch of programs.

        ``write_ptr`` is the post-run pointer; ``added_valid`` is how
        many of the newly programmed pages are VALID.
        """
        self._write_ptr = write_ptr
        self._valid_count += added_valid

    def note_invalidated(self) -> None:
        """Account one in-place VALID -> INVALID page flip.

        Fast-path twin of
        :meth:`repro.flash.chip.NandFlash.invalidate_page`: the caller
        has already checked the page was VALID and flipped its state.
        """
        self._valid_count -= 1

    def erase(self) -> None:
        """Erase the whole block, resetting every page to FREE."""
        if self._valid_count > 0:
            raise EraseError(
                f"erase of block {self.index} with {self._valid_count} valid pages"
            )
        # Pages at or past the write pointer were never programmed since
        # the last erase, so they are already FREE/None/None.
        for page in self.pages[:self._write_ptr]:
            page.state = PageState.FREE
            page.data = None
            page.oob = None
        self._write_ptr = 0
        self.erase_count += 1

    def force_erase(self) -> None:
        """Erase even if valid pages remain (test/fault tooling only)."""
        for page in self.pages:
            page.reset()
        self._write_ptr = 0
        self._valid_count = 0
        self.erase_count += 1

    def mark_bad(self) -> None:
        """Permanently retire the block (wear-out or factory mark)."""
        self.is_bad = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block({self.index}, valid={self._valid_count}, "
            f"wp={self._write_ptr}/{len(self.pages)}, erases={self.erase_count})"
        )
