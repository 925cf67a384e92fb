"""Upper bounds on the flow work the mechanism and its reference do on hub15
and on a path with many distinct peaks.

Counts go through every binding of a function (``fairmatch.flows`` and the
modules that import it), so a repeated solve fails here without any timing.
"""

import pytest

from fairmatch import (
    build_divisible,
    build_indivisible,
    cli,
    egalitarian_lp,
    egalitarian_profile,
    flows,
    indivisible_outcome,
    mechanism,
)

from helpers import path_instance


@pytest.fixture
def calls(monkeypatch):
    counts = {}
    for name in ("max_flow", "decompose_max_flow", "is_maximum"):
        original = getattr(flows, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (flows, mechanism, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_egalitarian_profile_solves_hub15(hub15, calls):
    construction = build_indivisible(hub15)
    egalitarian_profile(construction)
    assert calls["max_flow"] <= 6


def test_verify_decomposes_hub15_once(hub15_file, calls, capsys):
    assert cli.main(["verify", hub15_file]) == 0
    assert calls["decompose_max_flow"] == 1
    assert calls["max_flow"] <= 20


def test_egalitarian_profile_solves_distinct_peaks_path(calls):
    # 30 distinct peaks: a search that probed every peak level would make ~29 solves
    construction = build_divisible(path_instance(30, tuple(range(10, 40))))
    egalitarian_profile(construction)
    assert calls["max_flow"] <= 3


def test_egalitarian_lp_solves_hub15(hub15, calls):
    # the reference solves each round's top probe once
    egalitarian_lp(build_indivisible(hub15))
    assert calls["max_flow"] <= 4


def test_indivisible_outcome_solves_hub15(hub15, calls):
    # the lottery decomposes the water-fill's last flow instead of solving it again
    indivisible_outcome(hub15)
    assert calls["max_flow"] <= 8


def test_indivisible_outcome_certifies_hub15_flows_once(hub15, calls):
    # the pinned flow once, then each of the lottery's three members
    indivisible_outcome(hub15)
    assert calls["is_maximum"] <= 4
