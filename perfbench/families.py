"""Seeded instance families for the benchmark workloads.

Every workload draws its graphs from a fixed family: random connected graphs
generated from ``FAMILY_SEED``, the same in every run.  The bench ``--seed``
draws a *presentation* of each family member: fresh node ids and a shuffled,
randomly oriented edge list (see :func:`present`).  The program sees different
files on every seed, while the work per op stays that of the family.

Why not fresh graphs per seed: at these sizes the time of one op varies by
about +-35% between random graphs of the same size, so the medians of a run of
20-40 ops on fresh graphs spread by 15-30% from seed to seed, wider than any
useful regression bound.  Profiles are invariant under relabeling, so the
reference profile of a family member is computed once on its canonical labels
and mapped through the presentation.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

FAMILY_SEED = 200202749

Edge = tuple[str, str]


def _pair(u: str, v: str) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Base:
    """A family member on its canonical labels."""

    name: str
    peaks: dict[str, int]
    edges: tuple[Edge, ...]

    def key(self) -> str:
        text = json.dumps([self.peaks, self.edges], sort_keys=True)
        return f"{self.name}:{hashlib.sha256(text.encode()).hexdigest()[:16]}"


@dataclass(frozen=True)
class Shown:
    """One presentation of a family member: the instance the program receives."""

    base: Base
    mapping: dict[str, str]  # canonical label -> presented label
    peaks: dict[str, int]  # presented labels
    edges: frozenset[Edge]  # presented labels, canonical orientation
    text: str  # the instance file

    def to_shown(self, values: dict[str, object]) -> dict[str, object]:
        """Map a per-node dict from canonical to presented labels."""
        return {self.mapping[node]: value for node, value in values.items()}


def random_connected(rng: random.Random, name: str, n: int, peak_lo: int, peak_hi: int) -> Base:
    """Random spanning tree plus uniform extra edges up to average degree 3."""
    nodes = [f"v{i}" for i in range(n)]
    order = nodes[:]
    rng.shuffle(order)
    edges = {_pair(order[i], order[rng.randrange(i)]) for i in range(1, n)}
    target = min(n * (n - 1) // 2, max(n - 1, round(3 * n / 2)))
    while len(edges) < target:
        u, v = rng.sample(nodes, 2)
        edges.add(_pair(u, v))
    peaks = {node: rng.randint(peak_lo, peak_hi) for node in nodes}
    return Base(name, peaks, tuple(sorted(edges)))


def present(base: Base, rng: random.Random) -> Shown:
    """Fresh node ids that sort like the family's, the family's node order, and
    a shuffled, randomly oriented edge list.

    Id order and node order decide the vertex order of blossom and the
    tie-breaking of the flow searches: over 5 random relabelings, one
    big-peaks member's indivisible time ranged over 0.17-0.72 s.  A random
    order would make every run's medians depend on it, so it stays fixed.
    """
    ids = sorted(rng.sample(range(100000, 1000000), len(base.peaks)))
    mapping = {node: f"n{label}" for node, label in zip(sorted(base.peaks), ids)}
    peaks = {mapping[node]: peak for node, peak in base.peaks.items()}
    listed = []
    for u, v in base.edges:
        a, b = mapping[u], mapping[v]
        listed.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(listed)
    text = json.dumps(
        {
            "name": base.name,
            "nodes": [{"id": node, "peak": peak} for node, peak in peaks.items()],
            "edges": [{"u": u, "v": v} for u, v in listed],
        }
    )
    return Shown(base, mapping, peaks, frozenset(_pair(u, v) for u, v in listed), text)


def _member_rng(workload: str, index: int) -> random.Random:
    # str seeds are hashed with SHA-512, so the family ignores PYTHONHASHSEED
    return random.Random(f"{FAMILY_SEED}/{workload}/{index}")


# n of each member, interleaved so that any prefix of the rotation mixes small
# and large graphs.  One op at n=80 takes 4-6 s, and a 16-node graph with peaks
# up to 150 took 13 s: a run would hold too few ops.
MID_RANDOM_SIZES = (32, 40, 36, 44, 34, 38, 42, 30, 40, 36, 44, 32, 38, 42, 34, 40)
BIG_PEAKS_SIZES = (6, 9, 7, 10, 8, 6, 9, 7, 10, 8, 6, 9, 7, 10, 8, 6, 9, 7, 10, 8)
BIG_PEAKS = (30, 110)
CLI_SIZES = (10, 18, 13, 25, 15, 21)
ORACLE_SIZES = (5, 6, 7, 5, 6, 7, 6)
ORACLE_PEAK_SUM = 14  # the default FAIRMATCH_ORACLE_LIMIT

HUB15_PEAKS = {
    "s1": 2, "s2": 3, "s3": 2, "s4": 4, "s5": 4, "s6": 5, "s7": 2, "s8": 4,
    "s9": 2, "s10": 2, "s11": 2, "s12": 2, "s13": 2, "s14": 2, "s15": 2,
}
HUB15_EDGES = (
    ("s1", "s2"), ("s2", "s3"), ("s3", "s1"),
    ("s6", "s2"), ("s6", "s4"), ("s6", "s5"),
    ("s7", "s8"),
    ("s9", "s10"), ("s10", "s11"), ("s11", "s12"), ("s12", "s9"),
    ("s9", "s11"), ("s10", "s12"),
    ("s13", "s14"), ("s14", "s15"), ("s13", "s15"),
    ("s13", "s7"), ("s12", "s6"),
)


def hub15() -> Base:
    return Base("hub15", dict(HUB15_PEAKS), tuple(sorted(_pair(u, v) for u, v in HUB15_EDGES)))


def _oracle_member(index: int) -> Base:
    rng = _member_rng("oracle", index)
    while True:
        base = random_connected(rng, f"oracle-{index}", ORACLE_SIZES[index], 1, 3)
        if sum(base.peaks.values()) <= ORACLE_PEAK_SUM:
            return base


def family(workload: str) -> list[Base]:
    """The canonical members of a workload, in rotation order."""
    if workload == "mid-random":
        return [
            random_connected(_member_rng(workload, i), f"mid-{i}", n, 1, 3)
            for i, n in enumerate(MID_RANDOM_SIZES)
        ]
    if workload == "big-peaks":
        return [
            random_connected(_member_rng(workload, i), f"big-{i}", n, *BIG_PEAKS)
            for i, n in enumerate(BIG_PEAKS_SIZES)
        ]
    if workload == "cli-small":
        members = [hub15()]
        members += [
            random_connected(_member_rng(workload, i), f"cli-{i}", n, 1, 4)
            for i, n in enumerate(CLI_SIZES)
        ]
        members += [_oracle_member(i) for i in range(len(ORACLE_SIZES))]
        return members
    raise ValueError(f"unknown workload {workload!r}")


def hidden_edge(base: Base) -> Edge:
    """The edge a ``manipulate --hide-edge`` op hides: fixed per family member."""
    return random.Random(f"{FAMILY_SEED}/hide/{base.name}").choice(base.edges)


def presentations(workload: str, seed: int) -> list[Shown]:
    rng = random.Random(f"perfbench/{workload}/{seed}")
    return [present(base, rng) for base in family(workload)]
