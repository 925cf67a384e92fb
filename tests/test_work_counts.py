"""Upper bounds on the flow and matching work the mechanism and its reference
do on hub15, on a path with many distinct peaks, on a star with large peaks and
on triangles whose peaks differ by a factor of 20,000.

Counts go through every binding of a function (``fairmatch.flows`` and the
modules that import it), so a repeated solve fails here without any timing.
"""

import pytest

from fairmatch import (
    Deviation,
    Instance,
    build_divisible,
    build_indivisible,
    cli,
    egalitarian_lp,
    egalitarian_profile,
    flows,
    ged_decompose,
    indivisible_outcome,
    manipulation_experiment,
    matching,
    mechanism,
)

from golden.record import MEMBERS, observe, seeded_instance
from helpers import path_instance, triangle


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
    assert calls["max_flow"] <= 19


def test_egalitarian_profile_solves_distinct_peaks_path(calls):
    # 30 distinct peaks: a search that probed every peak level would make ~29 solves
    construction = build_divisible(path_instance(30, tuple(range(10, 40))))
    egalitarian_profile(construction)
    assert calls["max_flow"] <= 3


def test_solve_divisible_dump_flow_solves_no_more_than_solve(hub15_file, calls, capsys):
    # the dumped flow is the one the exchange came from, not a second pinned solve
    assert cli.main(["solve", "--model", "divisible", hub15_file]) == 0
    solve_calls = calls["max_flow"]
    calls["max_flow"] = 0
    assert cli.main(["solve", "--model", "divisible", "--dump-flow", hub15_file]) == 0
    assert calls["max_flow"] == solve_calls == 7


def test_golden_observe_fills_each_construction_once(calls):
    # the breakpoints ride on the profile, so each construction is filled once
    inst = seeded_instance(*MEMBERS[0])
    assert inst.name == "golden-36"
    observe(inst)
    assert calls["max_flow"] <= 16


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


def test_manipulation_builds_no_lottery(hub15, calls):
    # two profiles, no lottery: nothing is decomposed
    manipulation_experiment(hub15, Deviation(hide_edges=(("s6", "s12"),)), ["s6", "s12"])
    assert calls["decompose_max_flow"] == 0


@pytest.fixture
def searches(monkeypatch):
    counts = {"blossom": 0, "copy_edges": 0}
    original = matching._blossom_search
    original_expand = matching.expand_nodes

    def counted(*args):
        counts["blossom"] += 1
        return original(*args)

    def counted_expand(inst):
        expanded = original_expand(inst)
        counts["copy_edges"] += len(expanded.edges)
        return expanded

    monkeypatch.setattr(matching, "_blossom_search", counted)
    monkeypatch.setattr(matching, "expand_nodes", counted_expand)
    return counts


def test_ged_searches_hub15(hub15, searches):
    # twins of a failed root are skipped, and the decomposition is one forest
    ged_decompose(hub15)
    assert searches["blossom"] <= 14


def test_ged_searches_star_with_large_peaks(searches):
    inst = Instance.build(
        "star",
        [("c", 10), ("x", 30), ("y", 30), ("z", 7)],
        [("c", "x"), ("c", "y"), ("c", "z"), ("x", "z")],
    )
    ged_decompose(inst)
    assert searches["blossom"] <= 9


@pytest.mark.parametrize("peak", [50, 10**6])
@pytest.mark.parametrize(
    "run, max_copy_edges, max_searches",
    [(ged_decompose, 1400, 16), (indivisible_outcome, 2800, 30)],
)
def test_bmatching_work_does_not_grow_with_peaks(searches, peak, run, max_copy_edges, max_searches):
    # the full copy graph of peaks 50, 50, 51 has 7,600 edges. The reduced one
    # keeps two matched pairs per edge and two spare copies per node, and is
    # built once per round on each bit level of the peaks (20 levels for 10^6)
    run(triangle((peak, peak, peak + 1)))
    assert searches["copy_edges"] <= max_copy_edges
    assert searches["blossom"] <= max_searches


def test_verify_searches_no_more_than_the_outcome(hub15, hub15_file, searches, capsys):
    # verify reads the decomposition's maximum b-matching instead of a second blossom run
    indivisible_outcome(hub15)
    outcome_searches = searches["blossom"]
    searches["blossom"] = 0
    assert cli.main(["verify", hub15_file]) == 0
    assert searches["blossom"] <= outcome_searches
