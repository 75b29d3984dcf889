"""The simulated NAND flash device.

:class:`NandFlash` exposes exactly the raw operations an FTL can issue -
``read_page``, ``program_page``, ``erase_block`` plus the simulator-level
``invalidate_page`` bookkeeping - enforces NAND constraints, charges latency
per the timing model, and supports power-loss injection for recovery tests.

Every operation returns its latency in microseconds; FTLs sum these into the
service time of the host request they are working on.
"""

from __future__ import annotations

import warnings
from typing import Any, Iterable, List, Optional, Tuple

from ..obs.events import EventType
from .block import Block
from .errors import (
    BadBlockError,
    DeviceOffError,
    PowerLossError,
    ProgramError,
    ReadError,
    RedundantInvalidateWarning,
)
from .fault import PowerFault
from .geometry import FlashGeometry
from .oob import OOBData
from .page import PageState
from .stats import FlashStats
from .timing import SLC_TIMING, TimingModel

_FREE = PageState.FREE
_VALID = PageState.VALID
_INVALID = PageState.INVALID


class NandFlash:
    """A raw NAND device: geometry + timing + block array.

    Args:
        geometry: Physical layout of the device.
        timing: Per-operation latency model (defaults to the paper-era SLC
            constants).
        enforce_sequential: Enforce in-block sequential programming.  All
            shipped FTLs program sequentially; tests may relax this.
    """

    def __init__(
        self,
        geometry: Optional[FlashGeometry] = None,
        timing: TimingModel = SLC_TIMING,
        enforce_sequential: bool = True,
        endurance: Optional[int] = None,
        initial_bad_blocks: Iterable[int] = (),
    ):
        self.geometry = geometry if geometry is not None else FlashGeometry()
        self.timing = timing
        self.enforce_sequential = enforce_sequential
        if endurance is not None and endurance < 1:
            raise ValueError("endurance must be >= 1 or None")
        self.endurance = endurance
        self.blocks: List[Block] = [
            Block(i, self.geometry.pages_per_block)
            for i in range(self.geometry.num_blocks)
        ]
        for pbn in initial_bad_blocks:
            self.geometry.check_block(pbn)
            self.blocks[pbn].mark_bad()
        self.stats = FlashStats()
        self.fault = PowerFault()
        self._powered = True
        #: Optional :class:`repro.obs.tracer.Tracer` (None by default).
        self.tracer: Optional[Any] = None
        # Geometry scalars cached for the per-op address math below.
        self._pages_per_block = self.geometry.pages_per_block
        self._total_pages = self.geometry.total_pages

    def maintenance_fast_path(self) -> bool:
        """True when maintenance loops may inline raw page operations.

        GC/conversion relocation loops (and the batch-replay kernels in
        :mod:`repro.perf.batch`) can skip the per-op call overhead and
        mutate pages and stats directly - but only when nothing observes
        the per-op stream: exact :class:`NandFlash` (the flashsan
        sanitizer and the parallel device subclass it), powered, no
        tracer attached, and the power-fault injector disarmed (fault
        countdowns must see every program/erase).  Inline sequences
        replicate the raw-op methods' state and stats updates exactly,
        so eligibility changes speed, never results.
        """
        return (
            type(self) is NandFlash
            and self._powered
            and self.tracer is None
            and self.fault._remaining is None
        )

    # ------------------------------------------------------------------
    # Power management (crash simulation)
    # ------------------------------------------------------------------
    @property
    def powered(self) -> bool:
        """False after a simulated power loss, until :meth:`power_on`."""
        return self._powered

    def power_off(self) -> None:
        """Cut power immediately (explicit alternative to armed faults)."""
        self._powered = False

    def power_on(self) -> None:
        """Restore power after a crash.

        Flash contents survive (that is the point of NAND); only the power
        state is reset.  RAM-resident FTL state does *not* survive - it is
        the recovery code's job to rebuild it.
        """
        self._powered = True
        self.fault.disarm()

    # ------------------------------------------------------------------
    # Raw NAND operations
    # ------------------------------------------------------------------
    def read_page(self, ppn: int) -> Tuple[Any, Optional[OOBData], float]:
        """Read a page; returns ``(data, oob, latency_us)``."""
        if not self._powered:
            raise DeviceOffError("flash device is powered off")
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        ppb = self._pages_per_block
        page = self.blocks[ppn // ppb].pages[ppn % ppb]
        if page.state is _FREE:
            raise ReadError(
                f"read of unprogrammed page "
                f"(block {ppn // ppb}, offset {ppn % ppb})"
            )
        latency = self.timing.page_read_us
        stats = self.stats
        stats.page_reads += 1
        stats.read_us += latency
        if self.tracer is not None:
            self.tracer.flash_op(EventType.PAGE_READ, ppn, latency)
        return page.data, page.oob, latency

    def read_oob(self, ppn: int) -> Tuple[Optional[OOBData], float]:
        """Read only the spare area of a page.

        Recovery scans read OOB areas block by block; real controllers can
        fetch the spare bytes alone, but we charge a full page read to stay
        conservative (the paper's recovery cost model does the same).
        """
        data, oob, latency = self.read_page(ppn)
        del data
        return oob, latency

    def probe_page(self, ppn: int) -> Tuple[Optional[OOBData], float]:
        """Read a page's OOB, tolerating erased pages.

        Returns ``(None, latency)`` for an unprogrammed page instead of
        raising; recovery scans use this to classify blocks (real
        controllers detect erased pages as all-0xFF).  Charged as a read.
        """
        if not self._powered:
            raise DeviceOffError("flash device is powered off")
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        ppb = self._pages_per_block
        page = self.blocks[ppn // ppb].pages[ppn % ppb]
        latency = self.timing.page_read_us
        stats = self.stats
        stats.page_reads += 1
        stats.read_us += latency
        if self.tracer is not None:
            self.tracer.flash_op(EventType.PAGE_READ, ppn, latency)
        if page.state is _FREE:
            return None, latency
        return page.oob, latency

    def program_page(
        self, ppn: int, data: Any, oob: Optional[OOBData] = None
    ) -> float:
        """Program a page; returns the latency in microseconds.

        Enforces erase-before-write and (with ``enforce_sequential``)
        in-block sequential order.  Raises :class:`PowerLossError`
        (leaving the page unprogrammed) if an armed fault trips on this
        operation.
        """
        if not self._powered:
            raise DeviceOffError("flash device is powered off")
        fault = self.fault
        # _remaining is None exactly when on_program() would return False
        # (disarmed, or already tripped - tripping nulls the countdown),
        # so the common unarmed case skips the call.
        if fault._remaining is not None and fault.on_program(ppn):
            self._powered = False
            raise PowerLossError(f"power lost before programming ppn {ppn}")
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        ppb = self._pages_per_block
        pbn = ppn // ppb
        offset = ppn % ppb
        block = self.blocks[pbn]
        if block.is_bad:
            raise BadBlockError(pbn, block.erase_count)
        page = block.pages[offset]
        if page.state is not _FREE:
            raise ProgramError(
                f"program of non-free page (block {pbn}, offset {offset})"
            )
        write_ptr = block._write_ptr
        if offset != write_ptr and self.enforce_sequential:
            raise ProgramError(
                f"non-sequential program in block {pbn}: "
                f"offset {offset}, expected {write_ptr}"
            )
        page.state = _VALID
        page.data = data
        page.oob = oob
        if offset >= write_ptr:
            block._write_ptr = offset + 1
        block._valid_count += 1
        latency = self.timing.page_program_us
        stats = self.stats
        stats.page_programs += 1
        stats.program_us += latency
        if self.tracer is not None:
            self.tracer.flash_op(
                EventType.PAGE_PROGRAM, ppn, latency,
                lpn=oob.lpn if oob is not None else None,
            )
        return latency

    def erase_block(self, pbn: int) -> float:
        """Erase a block; returns the latency in microseconds.

        With an ``endurance`` limit configured, the erase that would
        exceed it *fails*: the block is marked bad (its stale contents are
        discarded, as the FTL has already relocated anything live) and
        :class:`BadBlockError` is raised after charging the erase time -
        real controllers discover wear-out exactly this way.
        """
        if not self._powered:
            raise DeviceOffError("flash device is powered off")
        fault = self.fault
        if fault._remaining is not None and fault.on_erase(pbn):
            self._powered = False
            raise PowerLossError(f"power lost before erasing block {pbn}")
        blocks = self.blocks
        if not 0 <= pbn < len(blocks):
            self.geometry.check_block(pbn)
        block = blocks[pbn]
        if block.is_bad:
            raise BadBlockError(pbn, block.erase_count)
        latency = self.timing.block_erase_us
        stats = self.stats
        stats.block_erases += 1
        stats.erase_us += latency
        endurance = self.endurance
        if endurance is not None and block.erase_count >= endurance:
            block.force_erase()  # contents are gone either way
            block.mark_bad()
            if self.tracer is not None:
                self.tracer.flash_op(EventType.BLOCK_ERASE, pbn, latency)
            raise BadBlockError(pbn, block.erase_count)
        block.erase()
        if self.tracer is not None:
            self.tracer.flash_op(EventType.BLOCK_ERASE, pbn, latency)
        return latency

    # ------------------------------------------------------------------
    # Simulator-level bookkeeping (free: models FTL RAM metadata updates)
    # ------------------------------------------------------------------
    def invalidate_page(self, ppn: int) -> None:
        """Mark a physical page stale.  Costs no simulated time.

        Invalidating a never-programmed page raises
        :class:`~repro.flash.errors.ProgramError`; invalidating an
        already-stale page is counted (``stats.redundant_invalidates``)
        and reported via :class:`RedundantInvalidateWarning` - the FTL's
        bookkeeping retired the same copy twice.  The flashsan sanitizer
        turns both into structured violations.
        """
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        ppb = self._pages_per_block
        pbn = ppn // ppb
        offset = ppn % ppb
        block = self.blocks[pbn]
        page = block.pages[offset]
        state = page.state
        if state is _VALID:
            page.state = _INVALID
            block._valid_count -= 1
            return
        if state is _FREE:
            raise ProgramError(
                f"invalidate of free page (block {pbn}, offset {offset})"
            )
        self.stats.redundant_invalidates += 1
        warnings.warn(
            RedundantInvalidateWarning(
                f"page (block {pbn}, offset {offset}) invalidated "
                "twice - double supersession in FTL bookkeeping"
            ),
            stacklevel=2,
        )

    def page_state(self, ppn: int):
        """Return the :class:`~repro.flash.page.PageState` of a page."""
        block, offset = self.geometry.split_ppn(ppn)
        return self.blocks[block].pages[offset].state

    def block(self, pbn: int) -> Block:
        """Return the :class:`Block` object for physical block ``pbn``."""
        blocks = self.blocks
        if not 0 <= pbn < len(blocks):
            self.geometry.check_block(pbn)
        return blocks[pbn]

    def erase_counts(self) -> List[int]:
        """Per-block erase counts (wear profile)."""
        return [b.erase_count for b in self.blocks]

    def bad_blocks(self) -> List[int]:
        """Indices of all retired (bad) blocks."""
        return [b.index for b in self.blocks if b.is_bad]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        g = self.geometry
        return (
            f"NandFlash({g.num_blocks} blocks x {g.pages_per_block} pages "
            f"x {g.page_size}B, ops={self.stats.total_ops})"
        )
