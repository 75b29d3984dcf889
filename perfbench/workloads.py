"""Workload definitions and seeded input generation for the benchmark.

This module imports nothing from ``repro``: the inputs are generated here,
from the seed alone, and written as plain ``repro-trace v1`` text files, so
the simulator under test receives only those files and a change to the
simulator can never change the benchmark's inputs.

The two request streams are calibrated to the same published shapes the
simulator's own generators target (UMass Financial1 and Websearch):

* Financial1-like: 77 % writes, 1-page requests (10 % are 2 pages), 80 % of
  accesses land in 4 of 16 equal "tablespace" regions;
* Websearch-like: 99 % reads, 4 to 16 page requests, zipf-skewed (theta
  0.8) ranks scattered over the footprint.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

#: Share of the physical pages exposed as logical space, on every device.
LOGICAL_FRACTION = 0.8

#: Every scheme of the simulator's zoo, in the simulator's order.
ALL_SCHEMES = ("NFTL", "BAST", "FAST", "LAST", "superblock", "DFTL",
               "LazyFTL", "ideal")


@dataclass(frozen=True)
class Device:
    """Device geometry handed to ``repro.sim.factory.standard_setup``."""

    num_blocks: int
    pages_per_block: int
    page_size: int
    channels: int = 1

    @property
    def physical_pages(self) -> int:
        return self.num_blocks * self.pages_per_block

    @property
    def logical_pages(self) -> int:
        # Same truncation as standard_setup.
        return int(self.physical_pages * LOGICAL_FRACTION)

    def label(self) -> str:
        return (f"{self.num_blocks} blocks x {self.pages_per_block} pages x "
                f"{self.page_size} B, {self.channels}x1x1")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: schemes, device, request stream, warm-up."""

    name: str
    why: str
    schemes: Tuple[str, ...]
    device: Device
    stream: str          # "financial1" or "websearch"
    requests: int
    precondition: str    # "fill" or "steady"
    #: The workload replaying the same inputs on the other geometry
    #: (serial <-> 4-channel); empty when there is none.
    sibling: str = ""


#: The paper's headline device, scaled: 1024 x 64 x 512 B = 65,536 pages.
HEADLINE = Device(num_blocks=1024, pages_per_block=64, page_size=512)

#: A 1 GiB device: 8192 x 64 x 2 KiB = 524,288 pages.
ONE_GIB = Device(num_blocks=8192, pages_per_block=64, page_size=2048)

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="oltp-steady",
            why="LazyFTL at steady state on the headline device: GC, "
                "conversion and batched GMT commits do most of the work",
            schemes=("LazyFTL",),
            device=HEADLINE,
            stream="financial1",
            requests=50_000,
            precondition="steady",
            sibling="oltp-4ch",
        ),
        Workload(
            name="websearch-1g",
            why="LazyFTL reads on a 1 GiB device: no GC, multi-page reads "
                "take the translation path, device state sets setup and "
                "memory",
            schemes=("LazyFTL",),
            device=ONE_GIB,
            stream="websearch",
            requests=40_000,
            precondition="fill",
        ),
        Workload(
            name="oltp-4ch",
            why="the oltp-steady inputs on the same device at 4x1x1: "
                "parallel flash and striped frontiers, batch engine declined",
            schemes=("LazyFTL",),
            device=replace(HEADLINE, channels=4),
            stream="financial1",
            requests=50_000,
            precondition="steady",
            sibling="oltp-steady",
        ),
        Workload(
            name="zoo-oltp",
            why="all eight schemes on the Financial1-like trace: the only "
                "workload that runs the log-block merge paths and the "
                "DFTL and pure-page baselines",
            schemes=ALL_SCHEMES,
            device=HEADLINE,
            stream="financial1",
            requests=6_000,
            precondition="fill",
        ),
    )
}

#: Workloads listed in BENCHMARK.json.  ``oltp-4ch`` stays runnable by name
#: as the reproducer of the striped-LazyFTL pool exhaustion (see NOTES.md):
#: every page op of it fails today, so it cannot be a timed workload.
BENCHMARK_WORKLOADS = ("oltp-steady", "websearch-1g", "zoo-oltp")

# A trace line is (is_write, lpn, npages).
Line = Tuple[int, int, int]


def financial1_like(rng: random.Random, n: int,
                    footprint: int) -> List[Line]:
    """Skewed small OLTP I/O: 4 hot regions of 16 take 80 % of accesses."""
    write_ratio = 0.77
    regions = 16
    size = footprint // regions
    if size < 2:
        raise ValueError("footprint too small for the OLTP layout")
    hot = (1, 4, 7, 11)
    cold = tuple(r for r in range(regions) if r not in hot)
    lines = []
    for _ in range(n):
        region = rng.choice(hot) if rng.random() < 0.8 else rng.choice(cold)
        npages = 2 if rng.random() < 0.1 else 1
        lpn = region * size + rng.randrange(size - npages + 1)
        lines.append((1 if rng.random() < write_ratio else 0, lpn, npages))
    return lines


def websearch_like(rng: random.Random, n: int,
                   footprint: int) -> List[Line]:
    """Read-dominant zipf requests (theta 0.8) of 4 to 16 pages."""
    write_ratio = 0.01
    theta = 0.8
    exponent = 1.0 / (1.0 - theta)
    scatter = (2654435761 % footprint) | 1
    lines = []
    for _ in range(n):
        rank = min(int(footprint * rng.random() ** exponent), footprint - 1)
        lpn = rank * scatter % footprint
        npages = min(rng.choice((4, 4, 8, 8, 8, 16)), footprint - lpn)
        lines.append((1 if rng.random() < write_ratio else 0, lpn, npages))
    return lines


def fill(footprint: int) -> List[Line]:
    """Sequentially write the whole footprint once, 8 pages a request."""
    request_pages = 8
    return [(1, lpn, min(request_pages, footprint - lpn))
            for lpn in range(0, footprint, request_pages)]


def random_overwrites(rng: random.Random, n: int,
                      footprint: int) -> List[Line]:
    """Uniform single-page overwrites (steady-state preconditioning)."""
    return [(1, rng.randrange(footprint), 1) for _ in range(n)]


STREAMS = {"financial1": financial1_like, "websearch": websearch_like}


def generate(workload: Workload, seed: int) -> Dict[str, List[Line]]:
    """The workload's warm-up and measured request streams for ``seed``.

    The footprint is the device's whole logical space.  Steady
    preconditioning is a fill plus 0.7 x footprint random overwrites, the
    methodology of the E3/E4 experiments.  Each stream draws from its own
    seeded generator, so the warm-up does not shift the measured trace.
    """
    footprint = workload.device.logical_pages
    warmup = fill(footprint)
    if workload.precondition == "steady":
        warmup += random_overwrites(random.Random(f"{seed}:warmup"),
                                    int(footprint * 0.7), footprint)
    elif workload.precondition != "fill":
        raise ValueError(f"unknown precondition {workload.precondition!r}")
    measured = STREAMS[workload.stream](
        random.Random(f"{seed}:measured"), workload.requests, footprint)
    return {"warmup": warmup, "measured": measured}


def page_ops(lines: List[Line]) -> int:
    return sum(npages for _, _, npages in lines)


def write_trace(lines: List[Line], path: str, name: str) -> None:
    """Write ``lines`` in the simulator's ``repro-trace v1`` text format."""
    body = "\n".join(f"{'W' if op else 'R'} {lpn} {npages}"
                     for op, lpn, npages in lines)
    with open(path, "w", encoding="ascii") as stream:
        stream.write(f"# repro-trace v1 name={name}\n{body}\n")


def write_inputs(workload: Workload, seed: int, directory: str) -> dict:
    """Generate the inputs for ``seed`` into ``directory``.

    Returns the file paths and page-op counts the replay children need.
    """
    streams = generate(workload, seed)
    files = {}
    for kind, lines in streams.items():
        path = os.path.join(directory, f"{workload.name}-{kind}.trace")
        write_trace(lines, path, f"{workload.name}-{kind}")
        files[kind] = path
    return {
        "files": files,
        "requests": {k: len(v) for k, v in streams.items()},
        "page_ops": {k: page_ops(v) for k, v in streams.items()},
    }
