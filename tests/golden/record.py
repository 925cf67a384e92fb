"""Golden fixtures for the mechanism on seeded mid-size instances.

``fixtures.json`` holds each instance together with the outputs that are
unique whatever maximum flow the engine finds: the Gallai-Edmonds classes, the
divisible and indivisible profiles, every breakpoint's lambda, kind and
bottleneck group, and the max-flow value of each construction.  It also holds
each instance's lottery (every entry's probability and multiplicities), which
depends on which maximum flow the engine finds: a change that moves a lottery
re-records it and names the instance.  Exchanges and breakpoint images are
left out.  The capacitated members hold the divisible outputs alone, since the
indivisible rule refuses capacities.  The family members (``FAMILY_MEMBERS``)
carry the check to other shapes of graph: large peaks, trees, dense graphs, a
star and chains of triangles.

Regenerate (only when an output is meant to change) with::

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

from fairmatch import (
    Instance,
    build_divisible,
    build_indivisible,
    build_lottery,
    egalitarian_profile,
    format_rational,
    ged_decompose,
    max_flow,
)

FIXTURES = Path(__file__).with_name("fixtures.json")

# (seed, nodes, average degree).  The seeds are ones whose instance has an
# under-demanded component of two or more agents, so the component sinks of the
# indivisible construction are exercised too.  The last two carry the check
# past 32 nodes.
MEMBERS = (
    (36, 20, 2.2), (15, 24, 2.3), (4, 24, 2.3), (69, 28, 2.2), (48, 32, 2.2),
    (24, 80, 2.2), (75, 160, 2.2),
)
# (seed, nodes, average degree, max peak, max cap): every edge capped at 1 to 3.
CAPACITATED = ((1, 60, 3, 3, 3), (2, 60, 3, 3, 3), (3, 60, 3, 3, 3))


def seeded_instance(seed: int, n: int, degree: float, max_peak: int = 3, max_cap: int = 0) -> Instance:
    """Random spanning tree plus uniform extra edges, peaks 1 to ``max_peak``,
    and with ``max_cap`` every edge capped at 1 to ``max_cap``."""
    rng = random.Random(f"golden/{seed}")
    nodes = [f"v{i}" for i in range(n)]
    edges = {tuple(sorted((nodes[i], nodes[rng.randrange(i)]))) for i in range(1, n)}
    while len(edges) < round(degree * n / 2):
        edges.add(tuple(sorted(rng.sample(nodes, 2))))
    peaks = [(node, rng.randint(1, max_peak)) for node in nodes]
    if max_cap:
        edges = [(u, v, rng.randint(1, max_cap)) for u, v in sorted(edges)]
    return Instance.build(f"golden-{seed}", peaks, sorted(edges))


def star_instance(seed: int, leaves: int = 60, hub_peak: int = 200, max_peak: int = 8) -> Instance:
    """A hub of peak ``hub_peak`` joined to ``leaves`` leaves of peak 1 to ``max_peak``."""
    rng = random.Random(f"golden/star/{seed}")
    nodes = [(f"v{i}", rng.randint(1, max_peak)) for i in range(leaves)]
    return Instance.build(f"star-{seed}", [("hub", hub_peak), *nodes], [("hub", node) for node, _ in nodes])


def triangle_chain(seed: int, count: int = 30, max_peak: int = 3) -> Instance:
    """``count`` triangles, each joined to the next by one edge, peaks 1 to ``max_peak``."""
    rng = random.Random(f"golden/triangles/{seed}")
    nodes, edges = [], []
    for i in range(count):
        a, b, c = (f"t{i}{x}" for x in "abc")
        nodes += [(node, rng.randint(1, max_peak)) for node in (a, b, c)]
        edges += [(a, b), (b, c), (a, c)] + ([(f"t{i - 1}c", a)] if i else [])
    return Instance.build(f"triangles-{seed}", nodes, edges)


FAMILIES = {
    "peaks60": lambda seed: seeded_instance(seed, 80, 3, max_peak=60),
    "tree": lambda seed: seeded_instance(seed, 120, 0),  # degree 0: the spanning tree alone
    "dense": lambda seed: seeded_instance(seed, 40, 12),
    "star": star_instance,
    "triangles": triangle_chain,
}
# (family, seed), two seeds per family: seeds whose lottery has two or more
# members, and whose triangle chain has 7 multi-node odd components.
FAMILY_MEMBERS = (
    ("peaks60", 1), ("peaks60", 2), ("tree", 1), ("tree", 2), ("dense", 2), ("dense", 3),
    ("star", 1), ("star", 4), ("triangles", 36), ("triangles", 39),
)


def family_instance(family: str, seed: int) -> Instance:
    """Member ``seed`` of one of ``FAMILIES``, named after both."""
    return replace(FAMILIES[family](seed), name=f"{family}-{seed}")


def observe(inst: Instance) -> dict:
    """The flow-independent outputs of both rules on ``inst``, and its lottery;
    of the divisible rule alone on a capacitated ``inst``."""
    if inst.is_uncapacitated:
        ged = ged_decompose(inst)
        observed = {"ged": ged.to_json_dict()}
        constructions = (("indivisible", build_indivisible(inst, ged)), ("divisible", build_divisible(inst)))
    else:
        observed, constructions = {}, (("divisible", build_divisible(inst)),)
    for model, construction in constructions:
        profile = egalitarian_profile(construction)
        observed[model] = {
            "profile": profile.to_json_dict(),
            "breakpoints": [
                {"lam": format_rational(b.lam), "kind": b.kind, "bottleneck": sorted(b.bottleneck)}
                for b in profile.breakpoints
            ],
            "max_flow": format_rational(max_flow(construction.network).value),
        }
        if model == "indivisible":
            observed[model]["lottery"] = build_lottery(inst, construction, profile).to_json()
    return observed


def main() -> None:
    fixtures = []
    instances = [seeded_instance(*member) for member in (*MEMBERS, *CAPACITATED)]
    for inst in instances + [family_instance(*member) for member in FAMILY_MEMBERS]:
        fixtures.append({"instance": inst.to_json_dict(), "expected": observe(inst)})
    FIXTURES.write_text(json.dumps(fixtures, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
