"""Golden fixtures for the mechanism on seeded mid-size instances.

``fixtures.json`` holds each instance together with the outputs that are
unique whatever maximum flow the engine finds: the Gallai-Edmonds classes, the
divisible and indivisible profiles, every breakpoint's lambda, kind and
bottleneck group, and the max-flow value of each construction.  Lotteries,
exchanges and breakpoint images are left out because they depend on which
maximum flow is found.

Regenerate (only when an output is meant to change) with::

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from fairmatch import (
    Instance,
    build_divisible,
    build_indivisible,
    egalitarian_profile,
    format_rational,
    ged_decompose,
    max_flow,
)

FIXTURES = Path(__file__).with_name("fixtures.json")

# (seed, nodes, average degree).  The seeds are ones whose instance has an
# under-demanded component of two or more agents, so the component sinks of the
# indivisible construction are exercised too.
MEMBERS = ((36, 20, 2.2), (15, 24, 2.3), (4, 24, 2.3), (69, 28, 2.2), (48, 32, 2.2))


def seeded_instance(seed: int, n: int, degree: float) -> Instance:
    """Random spanning tree plus uniform extra edges, peaks 1-3."""
    rng = random.Random(f"golden/{seed}")
    nodes = [f"v{i}" for i in range(n)]
    edges = {tuple(sorted((nodes[i], nodes[rng.randrange(i)]))) for i in range(1, n)}
    while len(edges) < round(degree * n / 2):
        edges.add(tuple(sorted(rng.sample(nodes, 2))))
    return Instance.build(
        f"golden-{seed}", [(node, rng.randint(1, 3)) for node in nodes], sorted(edges)
    )


def observe(inst: Instance) -> dict:
    """The flow-independent outputs of both rules on ``inst``."""
    ged = ged_decompose(inst)
    observed = {"ged": ged.to_json_dict()}
    for model, construction in (
        ("indivisible", build_indivisible(inst, ged)),
        ("divisible", build_divisible(inst)),
    ):
        profile = egalitarian_profile(construction)
        observed[model] = {
            "profile": profile.to_json_dict(),
            "breakpoints": [
                {"lam": format_rational(b.lam), "kind": b.kind, "bottleneck": sorted(b.bottleneck)}
                for b in profile.breakpoints
            ],
            "max_flow": format_rational(max_flow(construction.network).value),
        }
    return observed


def main() -> None:
    fixtures = []
    for member in MEMBERS:
        inst = seeded_instance(*member)
        fixtures.append({"instance": inst.to_json_dict(), "expected": observe(inst)})
    FIXTURES.write_text(json.dumps(fixtures, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
