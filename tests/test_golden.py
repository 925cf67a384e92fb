"""Exact agreement with the golden fixtures in ``tests/golden`` (see record.py)."""

import json

import pytest

from fairmatch import parse_instance

from golden.record import FIXTURES, observe

CASES = json.loads(FIXTURES.read_text())


@pytest.mark.parametrize("case", CASES, ids=[case["instance"]["name"] for case in CASES])
def test_matches_golden_fixture(case):
    assert observe(parse_instance(json.dumps(case["instance"]))) == case["expected"]
