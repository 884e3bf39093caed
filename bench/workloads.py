"""Workload definitions shared by run.py and its child
processes: the known answers, the seeded inputs and the answer gates.

Why these three workloads:

* enumerate-g4 runs the paper's headline computation through the CLI,
  one fresh process per job.  Enumeration, validation and classification
  do the work; `diagram`, `gluing` and `zpiece` do none, so a per-pair
  kernel change must leave it unchanged.  It is the only place that
  records `--jobs 1` against `--jobs 2`.
* census-g4 reads invariants off a seeded sample of the genus-4
  solutions (`reconstruct`, `diagram_of`, the round trip, `t1`, the
  Euler genus, piece detection).  Enumeration runs only in set-up.
* splice-search writes new pairs through the same `diagram` layer: the
  genus 3 -> 5 splice at every vertex, seeded L_21 attachment builds up
  to n = 164, and the small gluing-pattern searches.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Iterable

WORKLOADS = ("enumerate-g4", "census-g4", "splice-search")

# The CLI jobs of enumerate-g4, run in this order, one process each.
CLI_JOBS = {
    "enumerate": ["enumerate", "--genus", "4", "--classes", "--jobs", "1"],
    "bounds_j1": ["bounds", "--genus", "4", "--exact", "--jobs", "1"],
    "bounds_j2": ["bounds", "--genus", "4", "--exact", "--jobs", "2"],
}

CENSUS_ITEMS = 8192
LSEQ_GENUS = 21
LSEQ_ITEMS = 500

# Known answers every run is checked against.
EXPECTED = {
    "g4_roots": 645_120,
    "g4_solutions": 65_856,
    "g4_classes": 168,
    "g4_vertex_classes": 7,      # 2g - 1 crossings
    "g4_t1_max": 14,             # 2i arcs at i = 7
    "g3_solutions": 600,
    "template_order": (1, 3, 2, 5, 4),
    "template_signs": (1, -1, -1, -1, -1),
    "g5_splices": 3000,          # 600 solutions x 5 vertices
    "lseq_count": 27_343_888,    # |L_21|
    "patterns_2_6": 13,
    "patterns_3_5": 5,           # N(3)
}


class Gate:
    """Counts checked operations and keeps the first few failures."""

    KEEP = 10

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.KEEP:
                self.failures.append(what)
        return ok


def gate_cli(job: str, code: int, payload: dict, gate: Gate,
             expected: dict = EXPECTED) -> None:
    """One operation per CLI job: every field of its answer must match."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if payload.get("root_count") != expected["g4_roots"]:
        problems.append(f"root_count {payload.get('root_count')}")
    if job == "enumerate":
        results = payload.get("results", [])
        if payload.get("filling_count") != expected["g4_solutions"]:
            problems.append(f"filling_count {payload.get('filling_count')}")
        if payload.get("class_count") != expected["g4_classes"]:
            problems.append(f"class_count {payload.get('class_count')}")
        if len(results) != expected["g4_classes"]:
            problems.append(f"{len(results)} results")
        orbit_total = sum(r.get("orbit_size", 0) for r in results)
        if orbit_total != expected["g4_solutions"]:
            problems.append(f"orbit sizes sum to {orbit_total}")
    elif payload.get("exact_N") != expected["g4_classes"]:
        problems.append(f"exact_N {payload.get('exact_N')}")
    gate.check(not problems, f"{job}: " + ", ".join(problems))


def census_indices(seed: int, population: int, k: int = CENSUS_ITEMS) -> list[int]:
    """Positions sampled from the solutions sorted by image tuple, so the
    sample does not depend on the order enumeration produced them in."""
    return random.Random(seed).sample(range(population), k)


def lseq_suffix_counts(g: int) -> list[dict[int, int]]:
    """counts[i][v]: ways to finish an attachment sequence whose entry
    i (0-based) is v, under a_1 < a_2 < ... with a_i <= 4i - 3."""
    length = (g - 1) // 2
    caps = [4 * i - 3 for i in range(1, length + 1)]
    counts: list[dict[int, int]] = [{} for _ in range(length)]
    counts[-1] = {v: 1 for v in range(1, caps[-1] + 1)}
    for i in range(length - 2, -1, -1):
        nxt = counts[i + 1]
        counts[i] = {v: sum(c for w, c in nxt.items() if w > v)
                     for v in range(1, caps[i] + 1)}
    return counts


def unrank_lseq(counts: list[dict[int, int]], rank: int) -> tuple[int, ...]:
    """The attachment sequence of the given rank in lexicographic order."""
    out: list[int] = []
    prev = 0
    for level in counts:
        for v in sorted(level):
            if v <= prev:
                continue
            if rank < level[v]:
                out.append(v)
                prev = v
                break
            rank -= level[v]
        else:
            raise ValueError("rank out of range")
    return tuple(out)


def lseq_total(counts: list[dict[int, int]]) -> int:
    """Number of sequences: the first entry is capped at 1."""
    return counts[0][1]


def lseq_sample(seed: int, k: int = LSEQ_ITEMS, g: int = LSEQ_GENUS) -> list[tuple[int, ...]]:
    """k distinct attachment sequences at genus g, uniform by rank."""
    counts = lseq_suffix_counts(g)
    ranks = random.Random(seed).sample(range(lseq_total(counts)), k)
    return [unrank_lseq(counts, r) for r in ranks]


def checksum(inputs: Iterable) -> str:
    """Short digest of a workload's generated inputs."""
    h = hashlib.sha256()
    for item in inputs:
        h.update(json.dumps(list(item)).encode())
    return h.hexdigest()[:16]
