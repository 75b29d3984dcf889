"""Outside-in layer tracing: spans around the simulator's public calls.

Nothing in the simulator changes.  After setup, :class:`Instrument`
replaces public methods on the live instances (and, where no instance is
reachable before the replay starts, on the class) with wrappers that
record one span per call: name, start, end and parent span.  Spans are
kept in memory and written out at the end; a layer's self time is its
spans' duration minus the time covered by their child spans.

The wrappers leave ``NandFlash.maintenance_fast_path()`` and
``repro.perf.batch.engine_for``'s eligibility test unchanged, so the
traced replay takes the same code path as the timed one.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

FLASH_API = ("read_page", "program_page", "erase_block", "invalidate_page",
             "probe_page")


class Spans:
    """An in-memory span store with per-name running totals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack: List[int] = []
        self._child_time: List[float] = []
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = [0, 0.0, 0.0]
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        nid = self._id(name)
        agg = self.totals[name]
        clock = time.perf_counter
        stack = self._stack
        child_time = self._child_time
        name_col = self.name_col
        parent_col = self.parent_col
        start_col = self.start_col
        end_col = self.end_col

        def span(*args: Any, **kwargs: Any) -> Any:
            index = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1] if stack else -1)
            start_col.append(0.0)
            end_col.append(0.0)
            stack.append(index)
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                covered = child_time.pop()
                duration = end - start
                start_col[index] = start
                end_col[index] = end
                if child_time:
                    child_time[-1] += duration
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - covered

        return span

    def __len__(self) -> int:
        return len(self.name_col)

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the four columns.

        The columns follow the header as raw native-endian arrays, in the
        order name id (int32), parent index (int32, -1 for a root), start
        and end (float64, ``time.perf_counter`` seconds).
        """
        header = {"names": self.names, "count": len(self),
                  "columns": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as stream:
            stream.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_col, self.parent_col, self.start_col,
                           self.end_col):
                column.tofile(stream)


class _PlannerProxy:
    """Stands in for a batch planner so its epoch calls can be counted."""

    def __init__(self, planner: Any, plan: Callable, execute: Callable):
        self._planner = planner
        self.plan_epoch = plan
        self.execute_epoch = execute

    def __getattr__(self, name: str) -> Any:
        return getattr(self._planner, name)


class Instrument:
    """Installs the layer wrappers and keeps the counters they feed.

    One instance instruments one replay process.  :meth:`attach` runs per
    scheme, after ``standard_setup`` and before the replay;
    :meth:`detach` runs after it and undoes the class-level patches.
    """

    def __init__(self, spans: Spans):
        self.spans = spans
        self._restore: List[Callable[[], None]] = []
        self._ftl: Any = None
        #: scheme -> counters reconciled against the program's own stats.
        self.per_scheme: Dict[str, Dict[str, Any]] = {}
        self.pool_calls = 0
        self.pool_min_free: Optional[int] = None
        #: [host page ops so far, pool length] after each pool call.
        self.pool_trace: List[List[int]] = []
        self._pool_depth = 0
        self._flash_depth = 0
        self.write_gc_calls = 0
        self.write_gc_s = 0.0

    def _host_ops(self) -> int:
        stats = self._ftl.stats
        return stats.host_reads + stats.host_writes

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, value)
        self._restore.append(lambda: setattr(owner, name, original))

    # ------------------------------------------------------------------
    def attach(self, ftl: Any, simulator: Any) -> None:
        """Wrap one scheme's live FTL, flash device and simulator."""
        self._ftl = ftl
        counters = self.per_scheme[ftl.name] = {
            "write_calls": 0, "read_calls": 0, "vec_writes": 0,
            "vec_reads": 0, "vec_requests": 0, "epochs": 0,
            "plan_calls": 0, "api_calls": 0, "api_programs": 0,
            "api_reads": 0, "engaged": False,
        }
        self._patch_classes(counters)
        spans = self.spans
        core = ftl.name == "LazyFTL"
        prefix = "core" if core else f"ftl.{ftl.name}"

        simulator.warm_up = spans.wrap("sim.warm_up", simulator.warm_up)
        simulator.run = spans.wrap("sim.run", simulator.run)

        write = spans.wrap(f"{prefix}.write", ftl.write)
        read = spans.wrap(f"{prefix}.read", ftl.read)
        stats = ftl.stats
        clock = time.perf_counter
        inst = self

        if core:
            def write_op(lpn: int, data: Any = None) -> Any:
                counters["write_calls"] += 1
                before = stats.gc_runs + stats.converts
                start = clock()
                result = write(lpn, data)
                if stats.gc_runs + stats.converts != before:
                    inst.write_gc_calls += 1
                    inst.write_gc_s += clock() - start
                return result
        else:
            def write_op(lpn: int, data: Any = None) -> Any:
                counters["write_calls"] += 1
                return write(lpn, data)

        def read_op(lpn: int) -> Any:
            counters["read_calls"] += 1
            return read(lpn)

        ftl.write = write_op
        ftl.read = read_op

        if core:
            maps = ftl.mapping_store
            for name in ("lookup", "commit", "collect"):
                setattr(maps, name, spans.wrap(f"core.mapping.{name}",
                                               getattr(maps, name)))

        flash = ftl.flash
        for name in FLASH_API:
            setattr(flash, name,
                    self._flash_call(name, getattr(flash, name), counters))

    def detach(self) -> None:
        """Undo the class-level patches and forget the scheme's FTL."""
        while self._restore:
            self._restore.pop()()
        self._ftl = None

    # ------------------------------------------------------------------
    def _patch_classes(self, counters: Dict[str, Any]) -> None:
        """Class-level wrappers for objects created during the replay."""
        from repro.ftl.pool import BlockPool
        from repro.perf import batch
        from repro.sim.metrics import ResponseStats

        spans = self.spans
        for name in ("record", "record_many"):
            self._patch(ResponseStats, name,
                        spans.wrap("sim.record", getattr(ResponseStats, name)))

        inst = self

        def pool_call(name: str) -> Callable:
            inner = spans.wrap("ftl.pool.allocate", getattr(BlockPool, name))

            def allocate(pool: Any, *args: Any) -> int:
                outer = inst._pool_depth == 0
                if outer:
                    inst.pool_calls += 1
                inst._pool_depth += 1
                try:
                    return inner(pool, *args)
                finally:
                    inst._pool_depth -= 1
                    if outer:
                        free = len(pool)
                        if inst.pool_min_free is None \
                                or free < inst.pool_min_free:
                            inst.pool_min_free = free
                        inst.pool_trace.append([inst._host_ops(), free])

            return allocate

        for name in ("allocate", "allocate_on"):
            self._patch(BlockPool, name, pool_call(name))

        engine_for = batch.engine_for

        def wrapped_engine_for(ftl: Any) -> Any:
            engine = engine_for(ftl)
            counters["engaged"] = engine is not None
            if engine is not None:
                engine.planner = self._proxy(engine.planner, counters)
            return engine

        self._patch(batch, "engine_for",
                    spans.wrap("perf.batch.engine_for", wrapped_engine_for))

    def _proxy(self, planner: Any, counters: Dict[str, Any]) -> _PlannerProxy:
        plan_span = self.spans.wrap("perf.batch.plan", planner.plan_epoch)
        exec_span = self.spans.wrap("perf.batch.execute",
                                    planner.execute_epoch)

        def plan(cols: Any, start: int, limit: int) -> int:
            counters["plan_calls"] += 1
            return plan_span(cols, start, limit)

        def execute(cols: Any, start: int, h: int) -> Any:
            counters["epochs"] += 1
            counters["vec_requests"] += h
            # FtlStats counts host pages, so weight each request by its size.
            pages = cols.npages[start:start + h]
            writes = sum(n for op, n in zip(cols.ops[start:start + h], pages)
                         if op)
            counters["vec_writes"] += writes
            counters["vec_reads"] += sum(pages) - writes
            return exec_span(cols, start, h)

        return _PlannerProxy(planner, plan, execute)

    def _flash_call(self, name: str, fn: Callable,
                    counters: Dict[str, Any]) -> Callable:
        inner = self.spans.wrap("flash.api", fn)
        inst = self
        program = name == "program_page"
        read = name in ("read_page", "probe_page")  # both count as reads

        def call(*args: Any, **kwargs: Any) -> Any:
            if inst._flash_depth == 0:
                counters["api_calls"] += 1
                if program:
                    counters["api_programs"] += 1
                elif read:
                    counters["api_reads"] += 1
            inst._flash_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                inst._flash_depth -= 1

        return call
