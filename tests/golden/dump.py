"""One sha256 per part and instance of everything the mechanism outputs, to
show that a change leaves every output byte-identical to another checkout's,
and to name the parts that differ when it does not.

The instances are the benchmark's 50 (the ``perfbench/families.py`` members
of ``mid-random``, ``big-peaks`` and ``cli-small``, on their canonical labels)
plus the test suite's hub15, and the golden members of
``tests/golden/record.py``: the capacitated ones with their divisible parts
alone (the indivisible rule refuses capacities), then the family members. The
parts, one output line each:

- ``ged``: the GED classes and components;
- ``ged.matching``: the maximum b-matching they came from;
- ``profiles``: both profiles with their breakpoints and flows;
- ``lottery``: ``Lottery.to_json()``;
- ``members``: the decomposition's members and weights;
- ``exchange``: the divisible exchange in key order;
- ``cli`` (``cli-small`` instances only): the output of ``lottery``,
  ``sample``, ``verify`` and ``solve --dump-flow``.

Run it on the checkout at ROOT (its ``src`` and ``perfbench`` are imported)::

    PYTHONHASHSEED=0 python tests/golden/dump.py ROOT > dump-0.txt

and compare the output for two checkouts, or two hash seeds, with ``diff``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HELPERS = Path(__file__).resolve().parents[1]


def _rational(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _flow(flow) -> list:
    return [[u, v, _rational(x)] for (u, v), x in flow.values.items()] + [_rational(flow.value)]


def _profile(profile) -> dict:
    return {
        "profile": profile.to_json_dict(),
        "breakpoints": [
            [_rational(b.lam), b.kind, sorted(b.bottleneck), sorted(b.image)] for b in profile.breakpoints
        ],
        "flow": _flow(profile.flow),
    }


def _exchange(exchange) -> list:
    return [[u, v, _rational(x)] for (u, v), x in exchange.items()]


def library_outputs(fairmatch, inst) -> dict:
    outcome = fairmatch.indivisible_outcome(inst)
    profile, exchange = fairmatch.egalitarian_divisible(inst)
    return {
        "ged": outcome.ged.to_json_dict(),
        "ged.matching": outcome.ged.matching.to_json(),
        "profiles": {"indivisible": _profile(outcome.profile), "divisible": _profile(profile)},
        "lottery": outcome.lottery.to_json(),
        "members": [[_flow(member), _rational(w)] for member, w in outcome.lottery.combination.entries],
        "exchange": _exchange(exchange),
    }


def divisible_outputs(fairmatch, inst) -> dict:
    profile, exchange = fairmatch.egalitarian_divisible(inst)
    return {"profiles": {"divisible": _profile(profile)}, "exchange": _exchange(exchange)}


def cli_outputs(fairmatch, inst, workdir: Path) -> list:
    path = workdir / "instance.json"
    path.write_text(json.dumps(inst.to_json_dict()))
    outputs = []
    for argv in (
        ["lottery"],
        ["sample", "--samples", "20", "--seed", "7"],
        ["verify"],
        ["solve", "--model", "indivisible", "--dump-flow"],
        ["solve", "--model", "divisible", "--dump-flow"],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = fairmatch.cli.main([*argv, str(path)])
        outputs.append([argv, code, out.getvalue().replace(str(path), "INSTANCE")])
    return outputs


def _digest(content) -> str:
    return hashlib.sha256(json.dumps(content).encode()).hexdigest()


def _print_parts(label: str, parts: dict) -> None:
    for part, content in parts.items():
        print(label, part, _digest(content))


def main(root: Path) -> None:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench"), str(HELPERS)]
    import fairmatch
    import fairmatch.cli
    import families
    from golden.record import CAPACITATED, FAMILY_MEMBERS, family_instance, seeded_instance
    from helpers import hub15_instance

    cases = [
        (workload, base)
        for workload in ("mid-random", "big-peaks", "cli-small")
        for base in families.family(workload)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for workload, base in cases:
            inst = fairmatch.Instance.build(base.name, list(base.peaks.items()), list(base.edges))
            parts = library_outputs(fairmatch, inst)
            if workload == "cli-small":
                parts["cli"] = cli_outputs(fairmatch, inst, Path(tmp))
            _print_parts(f"{workload}/{base.name}", parts)
        for member in CAPACITATED:
            inst = seeded_instance(*member)
            _print_parts(f"tests/{inst.name}", divisible_outputs(fairmatch, inst))
        for member in FAMILY_MEMBERS:
            inst = family_instance(*member)
            _print_parts(f"tests/{inst.name}", library_outputs(fairmatch, inst))
        _print_parts("tests/hub15", library_outputs(fairmatch, hub15_instance()))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: dump.py ROOT")
    main(Path(sys.argv[1]).resolve())
