"""LazyFTL: the paper's page-level, merge-free flash translation layer.

Control flow in one paragraph: host writes append to the *update frontier*
(newest UBA block) and only touch RAM (a UMT insert).  When the UBA is at
capacity, its **oldest block is converted**: every mapping update it carries
is committed to the in-flash GMT in batch, grouped per GMT page, and the
block - without moving a byte of data - becomes an ordinary DBA block.
Garbage collection picks a DBA (or MBA) victim, relocates its truly-valid
pages into the *cold frontier* (CBA) with mappings again deferred through
the UMT, and erases it.  Cold blocks convert exactly like update blocks.
There is no merge operation anywhere; that is the paper's headline claim
and it holds here by construction (asserted by the test suite).

Deferred invalidation: when a host write supersedes a page whose mapping
already lives in the GMT, the old flash copy is *not* invalidated
immediately (that would need a GMT read); it is invalidated when the new
mapping is committed at conversion time, or sooner if GC stumbles on it
(the UMT reveals the supersession for free).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, List, Optional

from ..flash.chip import NandFlash
from ..flash.errors import BadBlockError
from ..flash.oob import PageKind, SequenceCounter, make_oob
from ..flash.page import PageState
from ..ftl.base import UNMAPPED_READ_US, FlashTranslationLayer, HostResult
from ..obs.events import Cause, EventType
from ..obs.tracer import Tracer
from ..ftl.gc_policy import select_greedy
from ..ftl.pool import BlockPool, OutOfBlocksError
from ..ftl.stripe import StripedFrontier, stripe_ways
from .areas import BlockArea, DataBlockSet
from .config import LazyConfig
from .mapping import MappingStore
from .umt import UpdateMappingTable, group_by_tvpn

#: Physical blocks reserved as checkpoint anchors (ping-pong pair).  They
#: are never part of the allocation pool, so recovery can always find the
#: latest checkpoint at a fixed location.
ANCHOR_BLOCKS = (0, 1)

#: Enum members pre-resolved for the per-page identity check in
#: :meth:`LazyFTL._deferred_invalidate` (called once per displaced GMT
#: entry - a commit-path hot spot).
_VALID = PageState.VALID
_INVALID = PageState.INVALID
_DATA = PageKind.DATA


class LazyFTL(FlashTranslationLayer):
    """The LazyFTL scheme (paper's primary contribution).

    Args:
        flash: Raw device (managed exclusively).
        logical_pages: Exported logical address space.
        config: Area sizes and optional features; see
            :class:`~repro.core.config.LazyConfig`.
    """

    name = "LazyFTL"

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        config: Optional[LazyConfig] = None,
    ):
        super().__init__(flash, logical_pages)
        self.config = config if config is not None else LazyConfig()
        geometry = flash.geometry
        pages = geometry.pages_per_block
        self.entries_per_page = geometry.map_entries_per_page
        self.num_tvpns = (
            logical_pages + self.entries_per_page - 1
        ) // self.entries_per_page
        map_blocks = (self.num_tvpns + pages - 1) // pages + 1
        required = (
            (logical_pages + pages - 1) // pages
            + self.config.uba_blocks
            + self.config.cba_blocks
            + map_blocks
            + self.config.gc_free_threshold
            + len(ANCHOR_BLOCKS)
            + 2
        )
        if geometry.num_blocks < required:
            raise ValueError(
                f"device too small: LazyFTL needs >= {required} blocks for "
                f"{logical_pages} logical pages with this configuration"
            )
        for anchor in ANCHOR_BLOCKS:
            if flash.block(anchor).is_bad:
                raise ValueError(
                    f"checkpoint anchor block {anchor} is factory-bad; "
                    "this device cannot host LazyFTL's recovery design"
                )
        #: Cached geometry scalar so the per-write address math below is a
        #: multiply-add instead of a method call through the geometry object.
        self._pages_per_block = geometry.pages_per_block
        self._seq = SequenceCounter()
        self._pool = BlockPool(
            b for b in range(geometry.num_blocks)
            if b not in ANCHOR_BLOCKS and not flash.block(b).is_bad
        )
        self._umt = UpdateMappingTable(self.entries_per_page)
        self._uba = BlockArea("UBA", self.config.uba_blocks)
        self._cba = BlockArea("CBA", self.config.cba_blocks)
        self._dba = DataBlockSet()
        self._maps = MappingStore(
            flash,
            self._pool,
            self.stats,
            self._seq,
            self.num_tvpns,
            cache_pages=self.config.map_cache_pages,
        )
        # Striped frontiers: on a multi-channel device keep several
        # blocks open per area and rotate programs across parallel units
        # so bursts overlap.  At 1x1x1 the stripes stay None and every
        # code path below is the pre-existing single-frontier one.
        units = geometry.parallel_units
        self._parallel_units = units
        if units > 1:
            self._uba_stripe: Optional[StripedFrontier] = StripedFrontier(
                units, stripe_ways(units, self.config.uba_blocks)
            )
            self._cba_stripe: Optional[StripedFrontier] = StripedFrontier(
                units, stripe_ways(units, self.config.cba_blocks)
            )
            self._maps.stripe = StripedFrontier(units, stripe_ways(units))
            self._maps.stripe_reserve = self.config.gc_free_threshold
            self._begin_op = getattr(flash, "begin_host_op", None)
        else:
            self._uba_stripe = None
            self._cba_stripe = None
            self._begin_op = None
        self._in_maintenance = False
        self._writes_since_checkpoint = 0
        #: Hoisted from the (frozen) config: write() skips the periodic-
        #: checkpoint call entirely when checkpointing is off (the default).
        self._ckpt_interval = self.config.checkpoint_interval
        # Imported here to avoid a module cycle (recovery imports LazyFTL).
        from .recovery import CheckpointScribe

        self._scribe = CheckpointScribe(flash, ANCHOR_BLOCKS, self._seq,
                                        self.stats)

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def read(self, lpn: int) -> HostResult:
        if not 0 <= lpn < self.logical_pages:
            self._check_lpn(lpn)
        if self._begin_op is not None:
            self._begin_op()
        self.stats.host_reads += 1
        umt_ppn = self._umt.ppn_at(lpn)
        if umt_ppn >= 0:
            data, _, latency = self.flash.read_page(umt_ppn)
            return HostResult(latency, data)
        ppn, latency = self._maps.lookup(lpn)
        if ppn is None:
            return HostResult(latency + UNMAPPED_READ_US)
        data, _, read_lat = self.flash.read_page(ppn)
        return HostResult(latency + read_lat, data)

    def write(self, lpn: int, data: Any = None) -> HostResult:
        if not 0 <= lpn < self.logical_pages:
            self._check_lpn(lpn)
        if self._begin_op is not None:
            self._begin_op()
        self.stats.host_writes += 1
        flash = self.flash
        stripe = self._uba_stripe
        if stripe is None:
            frontier = self._uba.frontier
            if frontier is None or \
                    flash.blocks[frontier]._write_ptr >= \
                    self._pages_per_block:
                latency = self._ensure_update_frontier()
                frontier = self._uba.frontier
            else:
                latency = 0.0
        else:
            frontier = stripe.next_slot(flash)
            if frontier is None or self._may_widen(stripe):
                latency = self._open_update_block()
                frontier = stripe.open_blocks[-1]
            else:
                latency = 0.0
        # Resolve the superseded copy only now: the frontier work above may
        # have converted the block holding it (removing its UMT entry).
        old_ppn = self._umt.ppn_at(lpn)
        ppn = frontier * self._pages_per_block + \
            flash.blocks[frontier]._write_ptr
        latency += flash.program_page(
            ppn, data, make_oob((lpn, self._seq.next(), PageKind.DATA, False))
        )
        if old_ppn >= 0:
            # The old copy lives in the UBA/CBA: invalidate immediately.
            # (GMT-resident old copies are invalidated lazily at commit.)
            flash.invalidate_page(old_ppn)
        self._umt.set(lpn, ppn, cold=False)
        if self._ckpt_interval > 0:
            latency += self._periodic_checkpoint()
        return HostResult(latency)

    def ram_bytes(self) -> int:
        """UMT + GTD (+ optional GMT cache): the paper's RAM story."""
        return self._umt.ram_bytes() + self._maps.ram_bytes()

    def attach_tracer(self, tracer: Tracer) -> Tracer:
        super().attach_tracer(tracer)
        self._maps.tracer = tracer
        return tracer

    def detach_tracer(self) -> None:
        super().detach_tracer()
        self._maps.tracer = None

    # ------------------------------------------------------------------
    # Introspection used by benchmarks, analysis and recovery
    # ------------------------------------------------------------------
    @property
    def umt(self) -> UpdateMappingTable:
        return self._umt

    @property
    def mapping_store(self) -> MappingStore:
        return self._maps

    @property
    def uba_blocks(self) -> List[int]:
        return self._uba.snapshot()

    @property
    def cba_blocks(self) -> List[int]:
        return self._cba.snapshot()

    @property
    def dba_blocks(self) -> List[int]:
        return self._dba.snapshot()

    def _rebuild_stripes(self) -> None:
        """Re-derive striped-frontier rotations after recovery/restore.

        Rotation state is never persisted: the open blocks of each area
        are exactly its non-full members, so recovery (which restores
        the area deques) can always reconstruct an equivalent rotation.
        The mapping store keeps at most its single recovered frontier -
        extra pre-crash open mapping blocks were retired as full, which
        wastes their free pages but stays correct.
        """
        if self._uba_stripe is None:
            return
        blocks = self.flash.blocks
        ppb = self._pages_per_block

        def open_of(members: List[int]) -> List[int]:
            return [b for b in members if blocks[b]._write_ptr < ppb]

        self._uba_stripe.reset(open_of(self._uba.snapshot()))
        self._cba_stripe.reset(open_of(self._cba.snapshot()))
        maps = self._maps
        if maps.stripe is not None:
            frontier = maps._frontier
            maps.stripe.reset([] if frontier is None else [frontier])

    # ------------------------------------------------------------------
    # Frontier management and conversion
    # ------------------------------------------------------------------
    def _may_widen(self, stripe: StripedFrontier) -> bool:
        """True when a striped UBA/CBA may open one more way.

        Extra ways open only while the pool can spare blocks beyond the
        GC reserve (the rule :class:`MappingStore` applies to its own
        stripe), so striping never drains the free blocks GC relocates
        into.  Callers still open a block when no open way has a free
        page.
        """
        return (
            len(stripe.open_blocks) < stripe.ways
            and len(self._pool) > self.config.gc_free_threshold
        )

    def _ensure_update_frontier(self) -> float:
        """Guarantee the UBA frontier has a free page."""
        stripe = self._uba_stripe
        if stripe is not None:
            if stripe.next_slot(self.flash) is not None and \
                    not self._may_widen(stripe):
                return 0.0
            return self._open_update_block()
        frontier = self._uba.frontier
        if frontier is not None and not self.flash.block(frontier).is_full:
            return 0.0
        return self._open_update_block()

    def _open_update_block(self) -> float:
        """Allocate and push a fresh UBA block (conversion pressure first)."""
        latency = self._reclaim_if_needed()
        if self._uba.is_at_capacity:
            latency += self._convert_oldest(self._uba)
        stripe = self._uba_stripe
        if stripe is None:
            self._uba.push(self._pool.allocate())
        else:
            pbn = self._pool.allocate_on(
                stripe.uncovered_unit(), stripe.units
            )
            self._uba.push(pbn)
            stripe.note_open(pbn)
        return latency

    def _ensure_cold_frontier(self) -> float:
        """Guarantee the CBA frontier has a free page (GC destination)."""
        stripe = self._cba_stripe
        if stripe is not None:
            if stripe.next_slot(self.flash) is not None and \
                    not self._may_widen(stripe):
                return 0.0
            return self._open_cold_block()
        frontier = self._cba.frontier
        if frontier is not None and not self.flash.block(frontier).is_full:
            return 0.0
        return self._open_cold_block()

    def _open_cold_block(self) -> float:
        """Allocate and push a fresh CBA block (GC destination)."""
        latency = 0.0
        if self._cba.is_at_capacity:
            latency += self._convert_oldest(self._cba)
        stripe = self._cba_stripe
        if stripe is None:
            self._cba.push(self._pool.allocate())
        else:
            pbn = self._pool.allocate_on(
                stripe.uncovered_unit(), stripe.units
            )
            self._cba.push(pbn)
            stripe.note_open(pbn)
        return latency

    def _convert_oldest(self, area: BlockArea) -> float:
        """Convert one of the area's blocks into an ordinary data block.

        FIFO policy converts the oldest block; the "cheapest" policy
        converts the full block whose pending UMT entries span the fewest
        distinct GMT pages (fewest read-modify-writes right now).
        """
        if self.config.convert_policy == "cheapest" and len(area) > 1:
            pbn = self._cheapest_convert_victim(area)
            area.remove(pbn)
        else:
            pbn = area.pop_oldest()
        latency = self._convert_block(pbn)
        self._dba.add(pbn)
        return latency

    def _cheapest_convert_victim(self, area: BlockArea) -> int:
        """Full block in ``area`` whose commit touches fewest GMT pages."""
        geometry = self.flash.geometry
        frontier = area.frontier
        best_pbn = None
        best_cost = None
        for pbn in area:
            if pbn == frontier and len(area) > 1:
                continue  # keep absorbing writes in the frontier
            block = self.flash.block(pbn)
            tvpns = set()
            for offset in block.valid_offsets():
                page = block.pages[offset]
                if self._umt.points_to(
                    page.oob.lpn, geometry.ppn_of(pbn, offset)
                ):
                    tvpns.add(page.oob.lpn // self.entries_per_page)
            cost = len(tvpns)
            if best_cost is None or cost < best_cost:
                best_pbn = pbn
                best_cost = cost
        return best_pbn if best_pbn is not None else area.oldest

    def _convert_block(self, pbn: int) -> float:
        """Commit a block's deferred mappings to the GMT, in batch.

        No data moves: this is the whole point of LazyFTL.  Cost is one GMT
        page read-modify-write per *distinct GMT page* referenced by the
        block's valid pages.
        """
        self.stats.converts += 1
        if self._uba_stripe is not None:
            # A still-open striped frontier block can be converted (flush
            # and capacity pressure both do it); drop it from rotation
            # before its pages are committed.
            self._uba_stripe.discard(pbn)
            self._cba_stripe.discard(pbn)
        tracer = self._tracer
        if tracer is not None:
            tracer.span_start(None, Cause.CONVERT)
        block = self.flash.blocks[pbn]
        base = pbn * self._pages_per_block
        umt = self._umt
        pages = block.pages
        VALID = PageState.VALID
        # Inline umt.points_to: the pair scan mutates nothing, so the
        # flat ppn array and its length are loop invariants (lpns from
        # OOB are non-negative by construction).
        uppn = umt._ppn
        ulen = len(uppn)
        pairs = []
        for offset in range(block._write_ptr):
            page = pages[offset]
            if page.state is not VALID:
                continue
            lpn = page.oob.lpn
            ppn = base + offset
            if lpn < ulen and uppn[lpn] == ppn:
                pairs.append((lpn, ppn))
            # A valid page the UMT does not point to was committed early by
            # a previous conversion's global batching (below); its mapping
            # is already exact in the GMT.
        groups = group_by_tvpn(pairs, self.entries_per_page)
        # Global batching: a GMT page we are going to rewrite anyway also
        # absorbs every other UMT entry it covers - entries from blocks
        # that have not converted yet.  Their blocks will later skip them.
        batched = self.config.global_batching
        n_committed = len(pairs)
        if batched:
            lpns_in_tvpn = umt.lpns_in_tvpn
            for tvpn, group in groups.items():
                in_group = {lpn for lpn, _ in group}
                for lpn in lpns_in_tvpn(tvpn):
                    if lpn in in_group:
                        continue
                    # Inline umt.ppn_at: every lpn in the tvpn index was
                    # inserted through set(), so it is always in range.
                    group.append((lpn, uppn[lpn]))
                    n_committed += 1
        on_superseded = self._deferred_invalidate
        if tracer is None and self.flash.maintenance_fast_path():
            # Prebound twin of _deferred_invalidate: same page-identity
            # check, with the known-VALID invalidation done inline (one
            # call per displaced entry is the commit-path hot spot).
            blocks = self.flash.blocks
            ppb = self._pages_per_block

            def on_superseded(lpn, old_ppn, _blocks=blocks, _ppb=ppb):
                oblock = _blocks[old_ppn // _ppb]
                opage = oblock.pages[old_ppn % _ppb]
                oob = opage.oob
                if (
                    opage.state is _VALID
                    and oob is not None
                    and oob.kind is _DATA
                    and oob.lpn == lpn
                ):
                    opage.state = _INVALID
                    oblock.note_invalidated()

        latency = self._maps.commit(groups, on_superseded)
        if batched:
            # With global batching every UMT entry covered by a committed
            # GMT page was just committed, so retire them per page in bulk.
            discard_tvpn = umt.discard_tvpn
            for tvpn in groups:
                discard_tvpn(tvpn)
        else:
            discard = umt.discard
            for lpn, _ in pairs:
                discard(lpn)
        if tracer is not None:
            tracer.span_end(
                EventType.CONVERT, ppn=pbn,
                entries=n_committed, gmt_pages=len(groups),
            )
        return latency

    def _deferred_invalidate(self, lpn: int, old_ppn: int) -> None:
        """Retire a data page displaced by a GMT commit (lazily).

        The GMT may hold a stale address whose block was erased and reused
        since; the page-identity check (state + OOB lpn) makes the
        invalidation safe in that case.
        """
        ppb = self._pages_per_block
        page = self.flash.blocks[old_ppn // ppb].pages[old_ppn % ppb]
        oob = page.oob
        if (
            page.state is _VALID
            and oob is not None
            and oob.kind is _DATA
            and oob.lpn == lpn
        ):
            self.flash.invalidate_page(old_ppn)

    # ------------------------------------------------------------------
    # Garbage collection (merge-free)
    # ------------------------------------------------------------------
    def _reclaim_if_needed(self) -> float:
        latency = 0.0
        while len(self._pool) <= self.config.gc_free_threshold:
            latency += self._collect_one()
        if self.config.wear_threshold is not None:
            latency += self._maybe_wear_level()
        return latency

    def _collect_one(self, forced_victim: Optional[int] = None) -> float:
        blocks = self.flash.blocks
        if forced_victim is not None:
            victim = self.flash.block(forced_victim)
        else:
            # select_greedy's order is total (fewest valid, then lowest
            # index), so a lazy candidate iterator picks the same victim
            # as a materialised list.
            victim = select_greedy(map(
                blocks.__getitem__,
                chain(self._dba, self._maps.full_blocks),
            ))
        if victim is None:
            raise OutOfBlocksError("LazyFTL GC found no victim")
        if forced_victim is None and \
                victim.valid_count >= victim.pages_per_block:
            raise OutOfBlocksError(
                "LazyFTL GC victim fully valid - no reclaimable slack "
                "(reduce logical_pages or enlarge the device)"
            )
        self.stats.gc_runs += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.span_start(EventType.GC_START, Cause.GC,
                              ppn=victim.index)
        try:
            self._in_maintenance = True
            try:
                if victim.index in self._maps.full_blocks:
                    latency = self._maps.collect(victim.index)
                else:
                    latency = self._collect_data_block(victim.index)
            finally:
                self._in_maintenance = False
            self._dba.discard(victim.index)
            try:
                latency += self.flash.erase_block(victim.index)
            except BadBlockError:
                # The block wore out on this erase.  Its live pages were
                # already relocated above, so nothing is lost - retire it
                # (never returned to the pool) and keep collecting.
                self.stats.bad_blocks_retired += 1
                return latency
            self.stats.gc_erases += 1
            self._pool.release(victim.index)
            return latency
        finally:
            if tracer is not None:
                tracer.span_end(EventType.GC_END, ppn=victim.index)

    # flowlint: hot
    def _collect_data_block(self, pbn: int) -> float:
        """Relocate a DBA victim's live pages into the cold area."""
        latency = 0.0
        flash = self.flash
        blocks = flash.blocks
        read_page = flash.read_page
        program_page = flash.program_page
        invalidate_page = flash.invalidate_page
        umt = self._umt
        ppn_at = umt.ppn_at
        seq_next = self._seq.next
        stats = self.stats
        cba = self._cba
        ppb = self._pages_per_block
        base = pbn * ppb
        block = blocks[pbn]
        pages = block.pages
        VALID = PageState.VALID
        DATA = PageKind.DATA
        offsets = [
            o for o in range(block._write_ptr)
            if pages[o].state is VALID
        ]
        # The CBA frontier only changes through _ensure_cold_frontier (no
        # host writes run mid-GC), so it is tracked in a local and
        # re-fetched only after that call instead of through the property
        # on every relocated page.  On a striped CBA the destination
        # instead rotates across the open blocks every copy.
        stripe = self._cba_stripe
        frontier = cba.frontier
        if flash.maintenance_fast_path():
            # Inline twin of the loop below: replicates the NandFlash
            # raw-op methods' page/stats mutations (see
            # NandFlash.maintenance_fast_path) without a Python call per
            # page; float accumulation order matches, so both produce
            # bit-identical results.
            fstats = flash.stats
            timing = flash.timing
            read_us = timing.page_read_us
            program_us = timing.page_program_us
            seq = self._seq
            uppn = umt._ppn
            ucold = umt._cold
            by_tvpn = umt._by_tvpn
            epp = umt.entries_per_page
            umt_set = umt.set
            INVALID = PageState.INVALID
            note_invalidated = block.note_invalidated
            for offset in offsets:
                page = pages[offset]
                if page.state is not VALID:
                    # Mid-pass conversion invalidated it (see the slow
                    # loop's comment) - skip the dead page.
                    continue
                src = base + offset
                lpn = page.oob.lpn
                umt_ppn = uppn[lpn] if lpn < len(uppn) else -1
                if umt_ppn >= 0 and umt_ppn != src:
                    # Superseded: deferred invalidation resolves for free.
                    page.state = INVALID
                    note_invalidated()
                    continue
                data = page.data
                fstats.page_reads += 1
                fstats.read_us += read_us
                latency += read_us
                if stripe is not None:
                    frontier = stripe.next_slot(flash)
                    if frontier is None or self._may_widen(stripe):
                        latency += self._open_cold_block()
                        frontier = stripe.open_blocks[-1]
                elif frontier is None or \
                        blocks[frontier]._write_ptr >= ppb:
                    latency += self._ensure_cold_frontier()
                    frontier = cba.frontier
                fblock = blocks[frontier]
                wp = fblock._write_ptr
                dst = frontier * ppb + wp
                dpage = fblock.pages[wp]
                dpage.state = VALID
                dpage.data = data
                # seq re-read per page: _ensure_cold_frontier may have
                # programmed mapping pages, advancing the counter.
                s = seq._next
                seq._next = s + 1
                dpage.oob = make_oob((lpn, s, DATA, True))
                fblock.note_programmed()
                fstats.page_programs += 1
                fstats.program_us += program_us
                latency += program_us
                # Inline umt.set(lpn, dst, cold=True): the flat arrays
                # only grow through _grow_to (array.extend, in place), so
                # the aliases stay valid; growth falls back to the method.
                if lpn < len(uppn):
                    if uppn[lpn] < 0:
                        umt._count += 1
                        tvpn = lpn // epp
                        peers = by_tvpn.get(tvpn)
                        if peers is None:
                            by_tvpn[tvpn] = {lpn}
                        else:
                            peers.add(lpn)
                    uppn[lpn] = dst
                    ucold[lpn] = 1
                else:
                    umt_set(lpn, dst, cold=True)
                if page.state is VALID:
                    page.state = INVALID
                    note_invalidated()
                else:
                    # A conversion inside _ensure_cold_frontier resolved
                    # this page's deferred invalidation first; keep the
                    # redundant-invalidate accounting of the slow loop.
                    invalidate_page(src)
                stats.gc_page_copies += 1
            return latency
        for offset in offsets:
            page = pages[offset]
            if page.state is not VALID:
                # A cold-block conversion triggered earlier in this very
                # loop can commit a UMT entry whose displaced GMT value is
                # this page (deferred invalidation resolving mid-pass);
                # the snapshot above is then stale - skip the dead page.
                continue
            src = base + offset
            lpn = page.oob.lpn
            umt_ppn = ppn_at(lpn)
            if umt_ppn >= 0 and umt_ppn != src:
                # Superseded by a later write whose mapping is still in the
                # UMT: the deferred invalidation resolves here, for free.
                invalidate_page(src)
                continue
            data, _, read_lat = read_page(src)
            latency += read_lat
            if stripe is not None:
                frontier = stripe.next_slot(flash)
                if frontier is None or self._may_widen(stripe):
                    latency += self._open_cold_block()
                    frontier = stripe.open_blocks[-1]
            elif frontier is None or blocks[frontier]._write_ptr >= ppb:
                latency += self._ensure_cold_frontier()
                frontier = cba.frontier
            dst = frontier * ppb + blocks[frontier]._write_ptr
            latency += program_page(
                dst, data, make_oob((lpn, seq_next(), DATA, True)),
            )
            umt.set(lpn, dst, cold=True)
            invalidate_page(src)
            stats.gc_page_copies += 1
        return latency

    def background_work(self, budget_us: float) -> float:
        """Idle-time GC: opportunistically refill the free pool.

        Runs GC passes while the pool is below twice the foreground
        threshold and budget remains.  A started pass runs to completion
        (slight budget overrun models a real controller finishing its
        current erase when a request arrives).
        """
        if not self.config.background_gc or budget_us <= 0:
            return 0.0
        soft_threshold = 2 * self.config.gc_free_threshold
        used = 0.0
        blocks = self.flash.blocks
        while used < budget_us and len(self._pool) <= soft_threshold:
            victim = select_greedy(map(
                blocks.__getitem__,
                chain(self._dba, self._maps.full_blocks),
            ))
            if victim is None or \
                    victim.valid_count >= victim.pages_per_block:
                break  # nothing profitably reclaimable right now
            used += self._collect_one()
        return used

    def _maybe_wear_level(self) -> float:
        """Static wear leveling: recycle the coldest block when the erase
        spread exceeds the configured threshold."""
        counts = self.flash.erase_counts()
        usable = [b for b in range(len(counts)) if b not in ANCHOR_BLOCKS]
        max_wear = max(counts[b] for b in usable)
        coldest = min(
            (b for b in self._dba),
            key=lambda b: (counts[b], b),
            default=None,
        )
        if coldest is None:
            return 0.0
        if max_wear - counts[coldest] <= self.config.wear_threshold:
            return 0.0
        return self._collect_one(forced_victim=coldest)

    # ------------------------------------------------------------------
    # Flush and checkpointing
    # ------------------------------------------------------------------
    def flush(self) -> float:
        """Convert every UBA/CBA block, committing the whole UMT.

        After a flush the GMT is exact and the UMT empty - the state a
        clean shutdown leaves behind.
        """
        latency = 0.0
        while len(self._uba):
            latency += self._convert_oldest(self._uba)
        while len(self._cba):
            latency += self._convert_oldest(self._cba)
        return latency

    def checkpoint(self) -> float:
        """Persist recovery metadata to the anchor blocks.

        Captures the GTD, area membership and the free list.  The UMT is
        deliberately *not* trusted for recovery (it changes with every
        write); recovery rebuilds it by scanning the UBA/CBA - the paper's
        basic recovery design.
        """
        state = {
            "seq": self._seq.current,
            "maps": self._maps.snapshot(),
            "uba": self._uba.snapshot(),
            "cba": self._cba.snapshot(),
            "dba": self._dba.snapshot(),
            "free": self._pool.snapshot(),
        }
        if self.config.checkpoint_umt:
            state["umt"] = self._umt.snapshot()
        self._writes_since_checkpoint = 0
        tracer = self._tracer
        if tracer is not None:
            tracer.push_cause(Cause.RECOVERY)
        try:
            return self._scribe.write(state)
        finally:
            if tracer is not None:
                tracer.pop_cause()

    def _periodic_checkpoint(self) -> float:
        if self.config.checkpoint_interval <= 0:
            return 0.0
        self._writes_since_checkpoint += 1
        if self._writes_since_checkpoint < self.config.checkpoint_interval:
            return 0.0
        return self.checkpoint()
