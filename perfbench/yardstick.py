"""A fixed yardstick job that measures how fast the machine runs right now.

Usage: ``python3 yardstick.py`` prints one JSON object,
``{"setup_s": ..., "ftl_s": ..., "memory_s": ..., "slowdown": ...}``.

The job imports nothing from ``repro`` and never changes with the seed or
the simulator, so its times move only with the machine.  It does the same
kinds of work as a replay, in plain Python, on its own data:

* set-up: parse a trace-like text and build per-page slotted objects and
  per-block lists for a 65,536-page device, in a fresh process (first
  touch of fresh memory, as a replay's set-up has);
* ftl: a page-mapping table over a 262,144-page device takes random
  overwrites (dict lookups, list indexing, attribute updates scattered
  over more than 10 MiB, as a replay's are);
* memory: random reads from a 32 MiB array (cache and memory latency).

Each part's time divided by its :data:`NOMINAL` time gives a slowdown;
the job reports their mean.  ``run.py`` runs the job in its own process
before every timed replay and after the last, and rescales the replays'
host times by the median slowdown of the run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array
from typing import Dict, List

#: Times (seconds) of each part on a 2-vCPU Intel Xeon guest in its
#: typical regime; a slowdown of 1.0 means the machine runs at that speed.
NOMINAL = {"setup_s": 0.15, "ftl_s": 0.15, "memory_s": 0.12}

PAGES_PER_BLOCK = 64
SETUP_BLOCKS = 1024
SETUP_LOGICAL = SETUP_BLOCKS * PAGES_PER_BLOCK * 4 // 5
FTL_BLOCKS = 4096
FTL_LOGICAL = 200_000
WRITES = 200_000
MEMORY_WORDS = 4 * 1024 * 1024
MEMORY_READS = 600_000
ROUNDS = 3


class _Page:
    __slots__ = ("lpn", "state", "oob")

    def __init__(self) -> None:
        self.lpn = -1
        self.state = 0
        self.oob = None


class _Block:
    __slots__ = ("owner", "valid", "wp")

    def __init__(self) -> None:
        self.owner = [-1] * PAGES_PER_BLOCK
        self.valid = 0
        self.wp = 0


def setup_part(text: str) -> float:
    start = time.perf_counter()
    lines = []
    for line in text.splitlines():
        op, lpn, npages = line.split()
        lines.append((op == "W", int(lpn), int(npages)))
    pages = [_Page() for _ in range(SETUP_BLOCKS * PAGES_PER_BLOCK)]
    blocks = [_Block() for _ in range(SETUP_BLOCKS)]
    table = {i: -1 for i in range(SETUP_LOGICAL)}
    elapsed = time.perf_counter() - start
    del lines, pages, blocks, table
    return elapsed


def ftl_part(lpns: List[int]) -> float:
    start = time.perf_counter()
    blocks = [_Block() for _ in range(FTL_BLOCKS)]
    active = 0
    l2p: Dict[int, int] = {}
    for lpn in lpns:
        old = l2p.get(lpn)
        if old is not None:
            block = blocks[old // PAGES_PER_BLOCK]
            block.owner[old % PAGES_PER_BLOCK] = -1
            block.valid -= 1
        block = blocks[active]
        if block.wp == PAGES_PER_BLOCK:
            active += 1
            block = blocks[active]
        block.owner[block.wp] = lpn
        block.valid += 1
        l2p[lpn] = active * PAGES_PER_BLOCK + block.wp
        block.wp += 1
    return time.perf_counter() - start


def memory_part(words: array, where: List[int]) -> float:
    start = time.perf_counter()
    total = 0
    for i in where:
        total += words[i]
    return time.perf_counter() - start


def _scatter(n: int, size: int) -> List[int]:
    """``n`` fixed pseudo-random indices below ``size`` (hashed counter)."""
    out = []
    for i in range(n):
        h = (i * 2654435761) & 0xFFFFFFFF
        out.append((h ^ (h >> 15)) % size)
    return out


def measure() -> Dict[str, float]:
    """Time the set-up part once and the others ROUNDS times each.

    ``slowdown`` is the mean over parts of the part's (median) time over
    its NOMINAL time.
    """
    lpns = _scatter(WRITES, FTL_LOGICAL)
    text = "\n".join(f"{'W' if lpn & 3 else 'R'} {lpn % SETUP_LOGICAL} "
                     f"{1 + (lpn & 1)}" for lpn in lpns[:90_000])
    where = _scatter(MEMORY_READS, MEMORY_WORDS)
    words = array("q", bytes(8 * MEMORY_WORDS))
    out = {"setup_s": setup_part(text),
           "ftl_s": statistics.median(
               ftl_part(lpns) for _ in range(ROUNDS)),
           "memory_s": statistics.median(
               memory_part(words, where) for _ in range(ROUNDS))}
    out["slowdown"] = statistics.mean(out[k] / v for k, v in NOMINAL.items())
    return out


if __name__ == "__main__":
    print(json.dumps(measure()))
    sys.exit(0)
