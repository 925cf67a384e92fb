"""Acceptance suite: one test per criterion, each printing a PASS line with its
runtime. All equalities are exact rational comparisons; the stated time budgets
are asserted."""

import random
import time
from fractions import Fraction

import pytest

from fairmatch import (
    bipartite_egalitarian,
    decompose_max_flow,
    egalitarian_divisible,
    egalitarian_lp,
    ged_decompose,
    indivisible_outcome,
    max_bmatching,
    max_flow,
)
from fairmatch.flows import is_maximum
from fairmatch.oracle import (
    Deviation,
    enumerate_bmatchings,
    lorenz_dominates,
    manipulation_experiment,
    pareto_profiles,
    undominated_profiles,
)

from helpers import (
    direct_bipartite_rule,
    hub15_instance,
    is_integral,
    path_instance,
    peaked_instances_up_to_iso,
    random_bipartite_instance,
    random_connected_instance,
    triangle,
)

F = Fraction


class Budget:
    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"PASS {self.label} ({elapsed:.2f}s)")
            assert elapsed < self.seconds, f"{self.label}: {elapsed:.2f}s over budget {self.seconds}s"
        else:
            print(f"FAIL {self.label} ({elapsed:.2f}s)")
        return False


def test_criterion_1_triangle_indivisible():
    with Budget("criterion 1: triangle indivisible profile and lottery", 1.0):
        outcome = indivisible_outcome(triangle())
        assert outcome.profile.values == {"a": F(2, 3), "b": F(2, 3), "c": F(2, 3)}
        assert [p for _, p in outcome.lottery.entries] == [F(1, 3)] * 3
        supports = {
            tuple(sorted(m.multiplicities.items())) for m, _ in outcome.lottery.entries
        }
        assert supports == {
            ((("a", "b"), 1),), ((("a", "c"), 1),), ((("b", "c"), 1),)
        }


def test_criterion_2_triangle_divisible():
    with Budget("criterion 2: triangle divisible profile and half-unit edges", 1.0):
        profile, exchange = egalitarian_divisible(triangle())
        assert profile.values == {"a": F(1), "b": F(1), "c": F(1)}
        assert exchange == {
            ("a", "b"): F(1, 2), ("b", "c"): F(1, 2), ("a", "c"): F(1, 2)
        }


def test_criterion_3_hub_network_pipeline():
    with Budget("criterion 3: 15-node hub network GED, 7/3 profile, third-weight lottery", 5.0):
        inst = hub15_instance()
        ged = ged_decompose(inst)
        assert ged.over == {"s6", "s7"}
        assert ged.under == {"s1", "s2", "s3", "s4", "s5", "s8"}
        assert ged.perfect == {f"s{i}" for i in range(9, 16)}

        outcome = indivisible_outcome(inst)
        sevens = {"s2", "s4", "s5"}
        for agent in sevens:
            assert outcome.profile[agent] == F(7, 3)
        for agent in ged.over | ged.perfect:
            assert outcome.profile[agent] == inst.peaks[agent]
        assert outcome.profile["s1"] == 2
        assert outcome.profile["s3"] == 2
        assert outcome.profile["s8"] == 2

        entries = outcome.lottery.entries
        assert len(entries) == 3
        assert all(p == F(1, 3) for _, p in entries)
        winners = set()
        for matching, _ in entries:
            utilities = matching.utilities(inst)
            lucky = {a for a in sevens if utilities[a] == 3}
            assert len(lucky) == 1
            winner = lucky.pop()
            base_exchange_with_hub = {"s2": 0, "s4": 2, "s5": 2}
            assert (
                matching.multiplicity(winner, "s6")
                == base_exchange_with_hub[winner] + 1
            )
            winners.add(winner)
        assert winners == sevens


def test_criterion_4_seven_path_link_manipulation():
    with Budget("criterion 4: 7-path profile and weak link manipulation", 1.0):
        inst = path_instance(7)
        outcome = indivisible_outcome(inst)
        assert outcome.profile.values == {
            "s1": F(3, 4), "s2": F(1), "s3": F(3, 4), "s4": F(1),
            "s5": F(3, 4), "s6": F(1), "s7": F(3, 4),
        }
        report = manipulation_experiment(
            inst, Deviation(hide_edges=(("s3", "s4"),)), ["s4", "s7"]
        )
        assert report.manipulated["s7"] == F(1)
        assert all(delta >= 0 for delta in report.deltas.values())


def test_criterion_5_peak_manipulation():
    with Budget("criterion 5: triangle peak misreport yields (2,1,1)", 1.0):
        report = manipulation_experiment(
            triangle(), Deviation(peaks={"a": 2}), ["a"]
        )
        assert report.manipulated.values == {"a": F(2), "b": F(1), "c": F(1)}
        assert report.gains_somewhere["a"] is True


def _oracle_equivalence_checks(inst, limit):
    outcome = indivisible_outcome(inst)
    maximal = pareto_profiles(inst, limit=limit)
    # (a) Pareto profiles (dominance definition) == maximum-total profiles
    assert undominated_profiles(inst, limit=limit) == maximal.profiles
    # (b) odd-component internal maximum == peak sum - 1
    for k, component in enumerate(outcome.ged.odd_components):
        if len(component) < 2:
            continue
        best = max(
            m.total_utility
            for m in enumerate_bmatchings(inst.induced(component), limit=limit)
        )
        assert best == outcome.ged.internal_caps[k]
    # (c) the expected profile Lorenz-dominates every Pareto profile
    for pareto in maximal.as_profiles():
        assert lorenz_dominates(outcome.profile, pareto)
    # (d) lottery expectation equals the profile exactly
    expectation = {node: F(0) for node in inst.nodes}
    for matching, p in outcome.lottery.entries:
        utilities = matching.utilities(inst)
        for node in expectation:
            expectation[node] += p * utilities[node]
    assert expectation == outcome.profile.values
    # (e) water-filling == LP iteration, exactly
    assert egalitarian_lp(outcome.construction).values == outcome.profile.values


def test_criterion_6_oracle_equivalence_suite():
    label = "criterion 6: oracle equivalence over all small + 200 random instances"
    with Budget(label, 60.0):
        exhaustive = peaked_instances_up_to_iso(max_nodes=5, max_peak=2)
        assert len(exhaustive) > 400
        for inst in exhaustive:
            _oracle_equivalence_checks(inst, limit=10)
        rng = random.Random(20250809)
        for _ in range(200):
            inst = random_connected_instance(rng, max_nodes=6, max_peak=3)
            _oracle_equivalence_checks(inst, limit=18)


def test_criterion_7_extension_to_bipartite():
    with Budget("criterion 7: pipeline equals direct bipartite rule (50 random)", 30.0):
        rng = random.Random(777)
        for _ in range(50):
            inst, suppliers, demanders = random_bipartite_instance(
                rng, max_side=3, max_peak=3
            )
            direct = direct_bipartite_rule(inst, suppliers, demanders)
            assert bipartite_egalitarian(inst, suppliers, demanders).values == direct
            assert indivisible_outcome(inst).profile.values == direct


def test_criterion_8_flow_decomposition_exactness():
    label = "criterion 8: decomposition reproduces the egalitarian flow arc-wise"
    with Budget(label, 60.0):
        instances = [triangle(), hub15_instance(), path_instance(7)]
        rng = random.Random(4242)
        instances += [
            random_connected_instance(rng, max_nodes=6, max_peak=3) for _ in range(40)
        ]
        for inst in instances:
            outcome = indivisible_outcome(inst)
            net = outcome.construction.network
            pinned = {
                arc: outcome.profile[agent]
                for agent, arc in outcome.construction.supply_arcs.items()
            }
            egal_flow = max_flow(net.with_caps(pinned))
            assert egal_flow.value == max_flow(net).value
            combination = decompose_max_flow(net, egal_flow)
            assert sum((w for _, w in combination.entries), F(0)) == 1
            recombined = combination.combined_values()
            for arc in net.arcs:
                assert recombined.get(arc, F(0)) == egal_flow.values.get(arc, F(0))
            for member, _ in combination.entries:
                assert is_integral(member)
                assert is_maximum(net, member)


def test_weak_link_group_strategyproofness_search():
    # The strategyproofness theorem is not checkable as a proof; this is the
    # 1000-trial falsification search: no sampled link-hiding coalition may
    # leave EVERY deviator strictly better off.
    label = "weak link-group-strategyproofness: 1000-trial falsification search"
    with Budget(label, 120.0):
        rng = random.Random(987654321)
        trials = 0
        strict_gains = 0
        while trials < 1000:
            inst = random_connected_instance(rng, max_nodes=6, max_peak=3)
            coalition = rng.sample(
                inst.nodes, k=min(len(inst.nodes), rng.randint(1, 3))
            )
            candidates = [
                e for e in inst.edges if e[0] in coalition or e[1] in coalition
            ]
            if not candidates:
                continue
            hidden = tuple(rng.sample(candidates, k=rng.randint(1, len(candidates))))
            report = manipulation_experiment(
                inst, Deviation(hide_edges=hidden), coalition
            )
            if report.verdict == "profitable":
                strict_gains += 1
            trials += 1
        assert strict_gains == 0
