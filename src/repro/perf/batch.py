"""Epoch-segmented batch replay: vectorized kernels for the no-GC fast path.

PR 3/4 made the replay loop columnar; the remaining cost is one Python
call per page operation.  This module removes it for the steady state:
an FTL scheme that opts in exposes an **epoch planner** which answers,
from position ``start`` in the trace columns, *how many upcoming
requests it can service with no slow event* - no GC trigger, no
mapping-cache miss or eviction, no mapping commit, no frontier-block
exhaustion - and a **batch executor** that services that whole horizon
in bulk (map tables via :meth:`~repro.perf.maptable.MapTable.set_many`,
flash/FTL counters bulk-incremented, responses recorded through
:meth:`~repro.sim.metrics.ResponseStats.record_many`).  Requests may
span any number of pages: the planner admits one only when every page
passes, and the executor walks its pages in order.

:class:`BatchEngine` alternates vectorized epochs with the *exact*
scalar per-request logic of ``Simulator._replay_fast`` at every epoch
boundary: the request that would trigger the slow event runs scalar
(GC, commit, eviction, checkpoints and frontier-straddling writes all
happen there), then planning resumes.

Bit-identity contract (enforced by the golden-stats gate and the
differential tests in ``tests/test_batch_replay.py``):

* response times accumulate via ``np.add.accumulate`` (strictly
  sequential, unlike pairwise ``np.add.reduce``) seeded with the running
  ``device_free_at`` / busy totals, so every float is produced by the
  same additions in the same order as the scalar loop;
* bulk counter increments and multi-page request services use
  ``n * latency_us`` only when the timing model's latencies are
  integer-valued floats (all shipped models), in which case repeated
  addition and multiplication agree exactly - non-integer timings
  disable batching entirely;
* the numpy kernels and the pure ``array``/``memoryview`` fallback are
  the same arithmetic, so results are identical with or without the
  ``[perf]`` extra installed.

Eligibility is conservative: batching engages only for an exact
:class:`~repro.flash.chip.NandFlash` (sanitized subclasses replay
scalar), with no tracer attached, the power-fault injector disarmed, and
a scheme registered in :data:`PLANNERS`.  Log-block schemes (BAST, FAST,
LAST, NFTL, superblock) declare no planner and transparently stay
scalar.
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Dict, Optional, Tuple, Type

from ..core.lazyftl import LazyFTL
from ..flash.oob import PageKind, make_oob
from ..flash.page import PageState
from ..ftl.base import FlashTranslationLayer
from ..ftl.dftl import DftlFTL
from ..ftl.pure_page import PageFTL
from ..sim.metrics import ResponseStats
from ..traces.columnar import ColumnarTrace

#: Environment switch forcing the pure-Python fallback kernels even when
#: numpy is importable (used by the batchdiff gate and the parity tests).
FALLBACK_ENV = "REPRO_BATCH_FALLBACK"

try:  # pragma: no cover - exercised via both branches in CI
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None  # type: ignore[assignment]

#: Active backend: the numpy module, or None for the array/memoryview
#: fallback.  Module-global so tests can monkeypatch it and so every
#: kernel observes one consistent choice.
_np: Any = None if os.environ.get(FALLBACK_ENV) else _numpy


def set_backend(name: str) -> None:
    """Select the kernel backend: ``"numpy"``, ``"fallback"`` or ``"auto"``.

    ``"auto"`` restores the default (numpy when importable and
    :data:`FALLBACK_ENV` is unset).  Raises when ``"numpy"`` is requested
    but not installed (install the ``[perf]`` extra).
    """
    global _np
    if name == "fallback":
        _np = None
    elif name == "numpy":
        if _numpy is None:
            raise RuntimeError(
                "numpy backend requested but numpy is not installed; "
                "install the [perf] extra"
            )
        _np = _numpy
    elif name == "auto":
        _np = None if os.environ.get(FALLBACK_ENV) else _numpy
    else:
        raise ValueError(f"unknown batch backend {name!r}")


def backend_name() -> str:
    """The active backend: ``"numpy"`` or ``"fallback"``."""
    return "fallback" if _np is None else "numpy"


#: Epochs of fewer pages than this replay scalar: below ~8 page ops the
#: epoch bookkeeping (array slicing, record_many dispatch) costs more
#: than the per-op calls it saves.  Any positive value is bit-identical;
#: this only moves the crossover.
MIN_EPOCH = 8

#: Epochs of fewer requests than this use the pure ``array`` timing
#: kernels even when numpy is installed: a numpy kernel invocation has
#: ~tens of microseconds of fixed cost (array creation, ufunc dispatch,
#: masking) that only amortises over long service arrays, while the
#: fallback loop's cost is linear from the first element.  The kernels
#: hold one element per request whatever its length, so this counts
#: requests, not pages.  Both backends are bit-identical by
#: construction, so this threshold is purely a speed knob.
NUMPY_MIN_EPOCH = 64

_VALID = PageState.VALID
_INVALID = PageState.INVALID
_DATA = PageKind.DATA


# ----------------------------------------------------------------------
# Timing kernels: the closed-loop cumulative-sum recurrence and the
# open-loop max-plus recurrence.  Both consume one epoch's per-op
# service latencies and update (device_free_at, busy) exactly as the
# scalar loop would.
# ----------------------------------------------------------------------
def _timing_closed(
    ops_slice: memoryview,
    services: array,
    responses: ResponseStats,
    device_free_at: float,
    busy: float,
) -> Tuple[float, float]:
    """Closed-loop epoch timing: response == service, back-to-back.

    The scalar loop computes ``completion = device_free_at + service``
    and records ``completion - device_free_at``; with a cumulative sum
    ``acc = accumulate([dfa, s0, s1, ...])`` the recorded response is
    ``acc[k+1] - acc[k]`` - the identical subtraction of the identical
    floats, so the vectorized form is bit-exact.
    """
    h = len(services)
    if _np is not None and h >= NUMPY_MIN_EPOCH:
        acc = _np.empty(h + 1)
        acc[0] = device_free_at
        acc[1:] = services
        _np.add.accumulate(acc, out=acc)
        resp = acc[1:] - acc[:h]
        responses.record_many(ops_slice, resp)
        total = float(acc[h])
        if busy == device_free_at:
            # Pure closed-loop replay keeps busy == device_free_at at
            # every step (both accumulate exactly the same services from
            # the same start), so the second accumulate would recompute
            # the identical float.
            return total, total
        bacc = _np.empty(h + 1)
        bacc[0] = busy
        bacc[1:] = services
        _np.add.accumulate(bacc, out=bacc)
        return total, float(bacc[h])
    resp_arr = array("d", bytes(8 * h))
    if busy == device_free_at:
        for k in range(h):
            completion = device_free_at + services[k]
            resp_arr[k] = completion - device_free_at
            device_free_at = completion
        busy = device_free_at
    else:
        for k in range(h):
            service = services[k]
            completion = device_free_at + service
            resp_arr[k] = completion - device_free_at
            device_free_at = completion
            busy += service
    responses.record_many(ops_slice, resp_arr)
    return device_free_at, busy


def _timing_open(
    ops_slice: memoryview,
    arrivals: array,
    base: int,
    services: array,
    responses: ResponseStats,
    device_free_at: float,
    busy: float,
) -> Tuple[float, float]:
    """Open-loop epoch timing: the max-plus queueing recurrence.

    ``start = max(device_free_at, arrival)`` makes each step depend on
    the previous completion through a non-associative max, so this stays
    a tight Python loop over the precomputed service array on both
    backends (the services are where the batch win lives; the recurrence
    itself is cheap).  Planners only run open-loop epochs when the
    scheme's ``background_work`` is a guaranteed no-op, so skipping the
    idle-gap call below cannot diverge from the scalar loop.
    """
    h = len(services)
    resp_arr = array("d", bytes(8 * h))
    for k in range(h):
        arrival = arrivals[base + k]
        service = services[k]
        if arrival != arrival:  # NaN: closed-loop request
            arrival = device_free_at
        start = device_free_at if device_free_at > arrival else arrival
        completion = start + service
        resp_arr[k] = completion - arrival
        device_free_at = completion
        busy += service
    if _np is not None and h >= NUMPY_MIN_EPOCH:
        responses.record_many(
            ops_slice, _np.frombuffer(resp_arr, dtype=_np.float64)
        )
    else:
        responses.record_many(ops_slice, resp_arr)
    return device_free_at, busy


# ----------------------------------------------------------------------
# Per-scheme planners + executors
#
# ``plan_epoch(cols, start, limit)`` returns ``(requests, pages)``: how
# many requests from ``start`` the executor may service, and how many
# page operations they expand to.  A request is admitted only when every
# one of its pages passes the per-page checks, so a multi-page request
# is exactly its pages replayed as single-page requests in order.
# ``execute_epoch(cols, start, requests)`` applies the per-page state
# updates and returns one service time per request, in an
# ``array('d')``: its pages' services summed from 0.0 in page order,
# which is ``count * latency`` exactly because ``engine_for`` admits
# only integer-valued timing.
# ----------------------------------------------------------------------
class _PagePlanner:
    """Ideal page-mapping FTL: the whole map is in RAM, so an epoch is
    bounded only by active-block room (writes) and mappedness (reads)."""

    __slots__ = ("ftl", "flash", "read_us", "program_us", "logical_pages",
                 "idle_gaps_free")

    def __init__(self, ftl: PageFTL):
        self.ftl = ftl
        self.flash = ftl.flash
        timing = ftl.flash.timing
        self.read_us = timing.page_read_us
        self.program_us = timing.page_program_us
        self.logical_pages = ftl.logical_pages
        self.idle_gaps_free = True  # base background_work is a no-op

    # flowlint: hot
    def plan_epoch(self, cols: ColumnarTrace, start: int,
                   limit: int) -> Tuple[int, int]:
        ftl = self.ftl
        ops = cols.ops
        lpns = cols.lpns
        npages = cols.npages
        raw = ftl._map.raw
        active = ftl._active
        room = 0
        if active is not None:
            room = ftl._pages_per_block \
                - self.flash.blocks[active]._write_ptr
        logical = self.logical_pages
        written: set = set()
        pages = 0
        j = start
        while j < limit:
            lpn = lpns[j]
            count = npages[j]
            stop = lpn + count
            if lpn < 0 or stop > logical:
                break  # scalar path raises the proper range error
            if ops[j]:
                if room < count:
                    break  # active full/absent: _ensure_active may GC
                room -= count
                written.update(range(lpn, stop))
            else:
                p = lpn
                while p < stop and (raw[p] >= 0 or p in written):
                    p += 1
                if p < stop:
                    break  # unmapped read: rare; keep the epoch all-mapped
            pages += count
            j += 1
        return j - start, pages

    # flowlint: hot
    def execute_epoch(self, cols: ColumnarTrace, start: int,
                      h: int) -> array:
        ftl = self.ftl
        flash = self.flash
        ops = cols.ops
        lpns = cols.lpns
        npages = cols.npages
        read_us = self.read_us
        program_us = self.program_us
        ppb = ftl._pages_per_block
        blocks = flash.blocks
        active = ftl._active
        if active is not None:
            block = blocks[active]
            pages = block.pages
            write_ptr = block._write_ptr
            base = active * ppb
        else:  # planner guarantees a write-free epoch
            block = None
            pages = ()
            write_ptr = 0
            base = 0
        raw = ftl._map.raw
        seq = ftl._seq
        seq_val = seq._next
        invalidate_page = flash.invalidate_page
        make = make_oob
        last: Dict[int, int] = {}  # lpn -> ppn of its newest epoch write
        services = array("d", bytes(8 * h))
        n_writes = 0
        n_reads = 0
        end = start + h
        j = start
        k = 0
        while j < end:
            lpn = lpns[j]
            count = npages[j]
            if ops[j]:
                for p in range(lpn, lpn + count):
                    page = pages[write_ptr]
                    page.state = _VALID
                    page.data = None
                    page.oob = make((p, seq_val, _DATA, False))
                    seq_val += 1
                    ppn = base + write_ptr
                    write_ptr += 1
                    old = last.get(p, -1)
                    if old < 0:
                        old = raw[p]
                    if old >= 0:
                        old_block = blocks[old // ppb]
                        old_page = old_block.pages[old % ppb]
                        if old_page.state is _VALID:
                            old_page.state = _INVALID
                            old_block.note_invalidated()
                        else:  # preserve redundant-invalidate accounting
                            invalidate_page(old)
                    last[p] = ppn
                n_writes += count
                services[k] = count * program_us
            else:
                n_reads += count
                services[k] = count * read_us
            j += 1
            k += 1
        stats = ftl.stats
        fstats = flash.stats
        if n_writes:
            block.note_programmed_run(write_ptr, n_writes)
            seq._next = seq_val
            ftl._map.set_many(last.items())
            fstats.page_programs += n_writes
            fstats.program_us += n_writes * program_us
        if n_reads:
            fstats.page_reads += n_reads
            fstats.read_us += n_reads * read_us
        stats.host_writes += n_writes
        stats.host_reads += n_reads
        return services


class _DftlPlanner:
    """DFTL: an epoch must stay entirely inside the CMT (a miss fetches a
    translation page and may evict) and inside the data frontier block."""

    __slots__ = ("ftl", "flash", "read_us", "program_us", "logical_pages",
                 "idle_gaps_free")

    def __init__(self, ftl: DftlFTL):
        self.ftl = ftl
        self.flash = ftl.flash
        timing = ftl.flash.timing
        self.read_us = timing.page_read_us
        self.program_us = timing.page_program_us
        self.logical_pages = ftl.logical_pages
        self.idle_gaps_free = True  # base background_work is a no-op

    # flowlint: hot
    def plan_epoch(self, cols: ColumnarTrace, start: int,
                   limit: int) -> Tuple[int, int]:
        ftl = self.ftl
        ops = cols.ops
        lpns = cols.lpns
        npages = cols.npages
        cmt = ftl._cmt
        active = ftl._data_active
        room = 0
        if active is not None:
            room = ftl._pages_per_block \
                - self.flash.blocks[active]._write_ptr
        logical = self.logical_pages
        pages = 0
        j = start
        while j < limit:
            lpn = lpns[j]
            count = npages[j]
            stop = lpn + count
            if lpn < 0 or stop > logical:
                break
            if ops[j]:
                if room < count:
                    break  # frontier exhausted: allocation may GC
                room -= count
            p = lpn
            while p < stop and p in cmt:
                p += 1
            if p < stop:
                break  # CMT miss: _make_room may evict + flash fetch
            pages += count
            j += 1
        return j - start, pages

    # flowlint: hot
    def execute_epoch(self, cols: ColumnarTrace, start: int,
                      h: int) -> array:
        ftl = self.ftl
        flash = self.flash
        ops = cols.ops
        lpns = cols.lpns
        npages = cols.npages
        read_us = self.read_us
        program_us = self.program_us
        ppb = ftl._pages_per_block
        blocks = flash.blocks
        cmt = ftl._cmt
        move_to_end = cmt.move_to_end
        active = ftl._data_active
        if active is not None:
            block = blocks[active]
            pages = block.pages
            write_ptr = block._write_ptr
            base = active * ppb
        else:  # planner guarantees a write-free epoch
            block = None
            pages = ()
            write_ptr = 0
            base = 0
        seq = ftl._seq
        seq_val = seq._next
        invalidate_page = flash.invalidate_page
        make = make_oob
        services = array("d", bytes(8 * h))
        n_writes = 0
        n_reads = 0
        data_reads = 0  # reads of mapped pages: unmapped ones cost 0.0
        end = start + h
        j = start
        k = 0
        while j < end:
            lpn = lpns[j]
            count = npages[j]
            if ops[j]:
                for p in range(lpn, lpn + count):
                    entry = cmt[p]
                    old = entry.ppn
                    page = pages[write_ptr]
                    page.state = _VALID
                    page.data = None
                    page.oob = make((p, seq_val, _DATA, False))
                    seq_val += 1
                    ppn = base + write_ptr
                    write_ptr += 1
                    if old is not None:
                        old_block = blocks[old // ppb]
                        old_page = old_block.pages[old % ppb]
                        if old_page.state is _VALID:
                            old_page.state = _INVALID
                            old_block.note_invalidated()
                        else:
                            invalidate_page(old)
                    entry.ppn = ppn
                    entry.dirty = True
                    move_to_end(p)
                n_writes += count
                services[k] = count * program_us
            else:
                mapped = 0
                for p in range(lpn, lpn + count):
                    if cmt[p].ppn is not None:
                        mapped += 1
                    move_to_end(p)
                n_reads += count
                data_reads += mapped
                services[k] = mapped * read_us
            j += 1
            k += 1
        stats = ftl.stats
        fstats = flash.stats
        if n_writes:
            block.note_programmed_run(write_ptr, n_writes)
            seq._next = seq_val
            fstats.page_programs += n_writes
            fstats.program_us += n_writes * program_us
        if data_reads:
            fstats.page_reads += data_reads
            fstats.read_us += data_reads * read_us
        stats.host_writes += n_writes
        stats.host_reads += n_reads
        return services


class _LazyPlanner:
    """LazyFTL: the UMT-hit horizon, bounded by UBA frontier room and the
    periodic-checkpoint budget.  This is where the paper's structure pays
    off: writes touch RAM + the update frontier only, reads of deferred
    pages hit the UMT, and translation reads happen only on a miss - all
    of which the planner can certify in advance, page by page, for
    requests of any length.

    GMT-resident reads stay batchable when the ablation cache is off
    (a stateless GTD probe + at most two flash reads), so with the cache
    off a read request never ends an epoch; with the cache enabled,
    cached pages replay their recency via ``touch_many`` and a cache
    *miss* on any page ends the epoch (``put`` mutates the LRU)."""

    __slots__ = ("ftl", "flash", "read_us", "program_us", "logical_pages",
                 "entries_per_page", "idle_gaps_free")

    def __init__(self, ftl: LazyFTL):
        self.ftl = ftl
        self.flash = ftl.flash
        timing = ftl.flash.timing
        self.read_us = timing.page_read_us
        self.program_us = timing.page_program_us
        self.logical_pages = ftl.logical_pages
        self.entries_per_page = ftl.entries_per_page
        # With background GC enabled, open-loop idle gaps do real work;
        # the engine then replays timestamped traces entirely scalar.
        self.idle_gaps_free = not ftl.config.background_gc

    # flowlint: hot
    def plan_epoch(self, cols: ColumnarTrace, start: int,
                   limit: int) -> Tuple[int, int]:
        ftl = self.ftl
        ops = cols.ops
        lpns = cols.lpns
        npages = cols.npages
        umt_ppn = ftl._umt._ppn
        umt_len = len(umt_ppn)
        maps = ftl._maps
        cache_on = maps.cache_pages > 0
        cache_data = maps._cache._data
        entries_per_page = self.entries_per_page
        frontier = ftl._uba.frontier
        room = 0
        if frontier is not None:
            room = ftl._pages_per_block \
                - self.flash.blocks[frontier]._write_ptr
        interval = ftl._ckpt_interval
        if interval > 0:
            # _periodic_checkpoint increments *then* compares, so the
            # last free write is the one landing the counter at
            # interval - 1.
            budget = interval - ftl._writes_since_checkpoint - 1
            if budget < room:
                room = budget
        logical = self.logical_pages
        written: set = set()  # only consulted when the cache is on
        pages = 0
        j = start
        while j < limit:
            lpn = lpns[j]
            count = npages[j]
            stop = lpn + count
            if lpn < 0 or stop > logical:
                break
            if ops[j]:
                if room < count:
                    break  # frontier full / conversion / checkpoint due
                room -= count
                if cache_on:
                    written.update(range(lpn, stop))
            elif cache_on:
                # A GMT-path page is stateless unless the ablation cache
                # would admit a new translation page.
                p = lpn
                while p < stop and (
                        (p < umt_len and umt_ppn[p] >= 0) or p in written
                        or (p // entries_per_page) in cache_data):
                    p += 1
                if p < stop:
                    break
            pages += count
            j += 1
        return j - start, pages

    # flowlint: hot
    def execute_epoch(self, cols: ColumnarTrace, start: int,
                      h: int) -> array:
        ftl = self.ftl
        flash = self.flash
        ops = cols.ops
        lpns = cols.lpns
        npages = cols.npages
        read_us = self.read_us
        program_us = self.program_us
        ppb = ftl._pages_per_block
        blocks = flash.blocks
        umt = ftl._umt
        umt_ppn = umt._ppn
        umt_len = len(umt_ppn)
        maps = ftl._maps
        gtd_raw = maps.gtd._entries.raw  # -1: GMT page never written
        cache_on = maps.cache_pages > 0
        cache_data = maps._cache._data
        entries_per_page = self.entries_per_page
        frontier = ftl._uba.frontier
        if frontier is not None:
            block = blocks[frontier]
            pages = block.pages
            write_ptr = block._write_ptr
            base = frontier * ppb
        else:  # planner guarantees a write-free epoch
            block = None
            pages = ()
            write_ptr = 0
            base = 0
        seq = ftl._seq
        seq_val = seq._next
        invalidate_page = flash.invalidate_page
        make = make_oob
        last: Dict[int, int] = {}  # lpn -> ppn of its newest epoch write
        touched_tvpns: list = []  # cache hits, in access order
        services = array("d", bytes(8 * h))
        n_writes = 0
        n_reads = 0
        map_reads = 0
        flash_reads = 0
        end = start + h
        j = start
        k = 0
        while j < end:
            lpn = lpns[j]
            count = npages[j]
            if ops[j]:
                for p in range(lpn, lpn + count):
                    old = last.get(p, -1)
                    if old < 0 and p < umt_len:
                        old = umt_ppn[p]
                    page = pages[write_ptr]
                    page.state = _VALID
                    page.data = None
                    page.oob = make((p, seq_val, _DATA, False))
                    seq_val += 1
                    ppn = base + write_ptr
                    write_ptr += 1
                    if old >= 0:
                        # Old copy in UBA/CBA: invalidate immediately (GMT
                        # copies are invalidated lazily at commit, exactly
                        # as the scalar path defers them).
                        old_block = blocks[old // ppb]
                        old_page = old_block.pages[old % ppb]
                        if old_page.state is _VALID:
                            old_page.state = _INVALID
                            old_block.note_invalidated()
                        else:
                            invalidate_page(old)
                    last[p] = ppn
                n_writes += count
                services[k] = count * program_us
                j += 1
                k += 1
                continue
            # Every page read costs read_us per flash read it issues: one
            # data read on a UMT hit, a translation read plus a data read
            # through the GMT, nothing for an unmapped page.
            before = flash_reads
            for p in range(lpn, lpn + count):
                if p in last or (p < umt_len and umt_ppn[p] >= 0):
                    flash_reads += 1  # UMT hit: one data read
                    continue
                tvpn = p // entries_per_page
                if cache_on:
                    content = cache_data[tvpn]  # planner-certified hit
                    touched_tvpns.append(tvpn)
                    if content[p % entries_per_page] is not None:
                        flash_reads += 1
                else:
                    tppn = gtd_raw[tvpn]
                    if tppn >= 0:
                        content = blocks[tppn // ppb].pages[tppn % ppb].data
                        map_reads += 1
                        flash_reads += 1
                        if content[p % entries_per_page] is not None:
                            flash_reads += 1
            n_reads += count
            services[k] = (flash_reads - before) * read_us
            j += 1
            k += 1
        stats = ftl.stats
        fstats = flash.stats
        if n_writes:
            block.note_programmed_run(write_ptr, n_writes)
            seq._next = seq_val
            umt.set_many(last.items())
            if ftl._ckpt_interval > 0:
                ftl._writes_since_checkpoint += n_writes
            fstats.page_programs += n_writes
            fstats.program_us += n_writes * program_us
        if touched_tvpns:
            maps._cache.touch_many(touched_tvpns)
        if flash_reads:
            fstats.page_reads += flash_reads
            fstats.read_us += flash_reads * read_us
        stats.host_writes += n_writes
        stats.host_reads += n_reads
        stats.map_reads += map_reads
        return services


#: Scheme -> planner, keyed by *exact* type: subclasses may override
#: read/write and silently diverge from the executor's bulk replay, so
#: they replay scalar unless they register their own planner.
PLANNERS: Dict[Type[FlashTranslationLayer], type] = {
    PageFTL: _PagePlanner,
    DftlFTL: _DftlPlanner,
    LazyFTL: _LazyPlanner,
}


def engine_for(ftl: FlashTranslationLayer) -> Optional["BatchEngine"]:
    """A :class:`BatchEngine` for ``ftl``, or None when ineligible.

    Ineligible (replay stays scalar): unregistered scheme, a flash
    subclass (the sanitizer wraps every raw op), an attached tracer, an
    armed power-fault injector (program counting must see every op), a
    powered-off device, a multi-unit geometry (striped frontiers break
    the planners' single-frontier arithmetic), or a timing model with
    non-integer-valued latencies (bulk ``n * latency`` counters and the
    ``count * latency`` service of a multi-page request would not be
    bit-exact).  Request length plays no part: the planners take
    requests of any number of pages.
    """
    planner_cls = PLANNERS.get(type(ftl))
    if planner_cls is None:
        return None
    flash = ftl.flash
    if not flash.maintenance_fast_path():
        return None
    if flash.geometry.parallel_units > 1:
        # Striped FTLs rotate writes across several open frontier
        # blocks; the planners model a single frontier per area.
        # (ParallelNandFlash is already excluded as a subclass above -
        # this also covers a plain NandFlash on a multi-unit geometry.)
        return None
    if ftl._tracer is not None:
        return None
    timing = flash.timing
    if not (float(timing.page_read_us).is_integer()
            and float(timing.page_program_us).is_integer()):
        return None
    return BatchEngine(ftl, planner_cls(ftl))


class _DiscardedResponses(ResponseStats):
    """Response sink of :meth:`BatchEngine.warm`: records nothing."""

    __slots__ = ()

    def record(self, is_write: bool, response_us: float) -> None:
        pass

    def record_many(self, ops: Any, responses: Any) -> None:
        pass


class BatchEngine:
    """Alternates vectorized epochs with exact scalar boundary steps."""

    __slots__ = ("ftl", "planner")

    def __init__(self, ftl: FlashTranslationLayer, planner: Any):
        self.ftl = ftl
        self.planner = planner

    def supports(self, cols: ColumnarTrace) -> bool:
        """True when this trace's arrival pattern can use epochs at all.

        Timestamped traces hand idle gaps to ``background_work``; if the
        scheme actually uses them (LazyFTL with background GC), every
        request must flow through the scalar path.
        """
        return cols.arrivals is None or self.planner.idle_gaps_free

    # flowlint: hot
    def replay(self, cols: ColumnarTrace, responses: ResponseStats) -> float:
        """The batched twin of ``Simulator._replay_fast``; returns busy.

        Epochs of at least :data:`MIN_EPOCH` pages run through the
        executor + timing kernels; everything else - including the
        boundary request that would trigger the slow event - runs the
        verbatim scalar per-request logic below, so GC, conversions,
        evictions, checkpoints and frontier-straddling writes behave (and
        accumulate floats) exactly as in the scalar loop.
        """
        ftl = self.ftl
        plan = self.planner.plan_epoch
        execute = self.planner.execute_epoch
        ftl_write = ftl.write
        ftl_read = ftl.read
        background_work = ftl.background_work
        record = responses.record
        ops = cols.ops
        lpns = cols.lpns
        npages = cols.npages
        arrivals = cols.arrivals
        ops_mv = memoryview(ops)
        n = len(ops)
        device_free_at = 0.0
        busy = 0.0
        i = 0
        while i < n:
            h, pages = plan(cols, i, n)
            if pages >= MIN_EPOCH:
                services = execute(cols, i, h)
                if arrivals is None:
                    device_free_at, busy = _timing_closed(
                        ops_mv[i:i + h], services, responses,
                        device_free_at, busy,
                    )
                else:
                    device_free_at, busy = _timing_open(
                        ops_mv[i:i + h], arrivals, i, services,
                        responses, device_free_at, busy,
                    )
                i += h
                continue
            # Scalar through the short horizon plus the boundary request.
            stop = i + h + 1
            if stop > n:
                stop = n
            while i < stop:
                op = ops[i]
                lpn = lpns[i]
                count = npages[i]
                if arrivals is None:
                    arrival = device_free_at
                else:
                    arrival = arrivals[i]
                    if arrival != arrival:  # NaN: closed-loop request
                        arrival = device_free_at
                    elif arrival > device_free_at:
                        used = background_work(arrival - device_free_at)
                        if used > 0:
                            device_free_at += used
                            busy += used
                start = device_free_at if device_free_at > arrival \
                    else arrival
                if op:
                    if count == 1:
                        service = ftl_write(lpn, None).latency_us
                    else:
                        service = 0.0
                        for p in range(lpn, lpn + count):
                            service += ftl_write(p, None).latency_us
                elif count == 1:
                    service = ftl_read(lpn).latency_us
                else:
                    service = 0.0
                    for p in range(lpn, lpn + count):
                        service += ftl_read(p).latency_us
                completion = start + service
                record(op, completion - arrival)
                device_free_at = completion
                busy += service
                i += 1
        return busy

    def warm(self, cols: ColumnarTrace) -> None:
        """The batched twin of ``Simulator.warm_up``: :meth:`replay` run
        closed-loop (arrival times are ignored, as in the scalar warm-up)
        with every response discarded - just state."""
        closed = ColumnarTrace(cols.ops, cols.lpns, cols.npages,
                               validate=False)
        self.replay(closed, _DiscardedResponses())
