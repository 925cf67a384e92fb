"""Exact agreement with the golden fixtures in ``tests/golden`` (see record.py)."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fairmatch import BMatching, parse_instance

from golden.record import FIXTURES, observe

CASES = json.loads(FIXTURES.read_text())
LOTTERIES = [case for case in CASES if "indivisible" in case["expected"]]
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("case", CASES, ids=[case["instance"]["name"] for case in CASES])
def test_matches_golden_fixture(case):
    assert observe(parse_instance(json.dumps(case["instance"]))) == case["expected"]


@pytest.mark.parametrize("case", LOTTERIES, ids=[case["instance"]["name"] for case in LOTTERIES])
def test_golden_lottery_realizes_the_golden_profile(case):
    # the recorded entries are a lottery over feasible b-matchings of the
    # instance whose expected utilities are the recorded indivisible profile
    inst = parse_instance(json.dumps(case["instance"]))
    expected = case["expected"]["indivisible"]
    assert len(expected["lottery"]) >= 2
    utilities = dict.fromkeys(inst.nodes, Fraction(0))
    for entry in expected["lottery"]:
        prob = Fraction(entry["prob"])
        assert prob > 0
        matching = BMatching({(e["u"], e["v"]): e["mult"] for e in entry["matching"]})
        matching.check_feasible(inst)
        for node, utility in matching.utilities(inst).items():
            utilities[node] += prob * utility
    assert sum(Fraction(e["prob"]) for e in expected["lottery"]) == 1
    assert {node: Fraction(x) for node, x in expected["profile"].items()} == utilities


def test_dump_is_the_same_under_two_hash_seeds():
    # every output the mechanism gives, hashed per part and instance, must not
    # depend on the order of set and dict iteration over strings
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, str(ROOT / "tests" / "golden" / "dump.py"), str(ROOT)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[-1].startswith("tests/hub15 ")
