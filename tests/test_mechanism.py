import random
from fractions import Fraction

import pytest

from fairmatch import (
    Instance,
    MechanismError,
    UtilityProfile,
    bipartite_egalitarian,
    build_divisible,
    build_indivisible,
    build_lottery,
    egalitarian_divisible,
    egalitarian_lp,
    egalitarian_profile,
    ged_decompose,
    indivisible_outcome,
    max_bmatching,
    max_flow,
    probabilistic_marginals,
    sample_lottery,
)
from fairmatch.oracle import enumerate_bmatchings, lorenz_dominates, pareto_profiles

from helpers import (
    direct_bipartite_rule,
    expected_value,
    diamond_instance,
    instance_automorphisms,
    path_instance,
    random_bipartite_instance,
    random_connected_instance,
    relabeled,
    triangle,
)

F = Fraction


def profile_of(mapping):
    return UtilityProfile({k: F(v) for k, v in mapping.items()})


# ---------------------------------------------------------------- divisible


def test_build_divisible_triangle_shape(tri):
    built = build_divisible(tri)
    cross = [arc for arc, tag in built.provenance.items() if tag[0] == "edge"]
    assert len(cross) == 6
    assert len(built.agents) == 3
    assert max_flow(built.network).value == 3


def test_build_divisible_diamond_has_ten_cross_arcs(diamond):
    built = build_divisible(diamond)
    cross = [arc for arc, tag in built.provenance.items() if tag[0] == "edge"]
    assert len(cross) == 10


def test_build_divisible_single_node():
    inst = Instance.build("solo", [("a", 4)], [])
    built = build_divisible(inst)
    assert [arc for arc, tag in built.provenance.items() if tag[0] == "edge"] == []
    assert max_flow(built.network).value == 0


def test_divisible_unit_triangle_half_on_each_edge(tri):
    profile, exchange = egalitarian_divisible(tri)
    assert profile.values == {"a": F(1), "b": F(1), "c": F(1)}
    assert set(exchange.values()) == {F(1, 2)}


def test_divisible_diamond_profile(diamond):
    # Total is capped at 10 (x1+x2 <= x3+x4 <= 5); the leximin point pins
    # x1 at its peak 2 and equalizes the rest as far as feasibility allows.
    profile, exchange = egalitarian_divisible(diamond)
    assert profile.values == {"a1": F(2), "a2": F(3), "a3": F(3), "a4": F(2)}
    for node in diamond.nodes:
        incident = sum(
            (amount for edge, amount in exchange.items() if node in edge), F(0)
        )
        assert incident == profile[node]


def test_divisible_two_isolated_nodes():
    inst = Instance.build("iso", [("a", 1), ("b", 2)], [])
    profile, exchange = egalitarian_divisible(inst)
    assert profile.values == {"a": F(0), "b": F(0)}
    assert exchange == {}


def test_divisible_asymmetric_path_peaks():
    # Regression for the supplier-side parameterization: the middle agent is
    # limited by its two unit neighbors, not by any coupled mirror cap.
    inst = path_instance(3, peaks=(1, 5, 1))
    profile, _ = egalitarian_divisible(inst)
    assert profile.values == {"s1": F(1), "s2": F(2), "s3": F(1)}


def test_divisible_respects_edge_capacities():
    inst = Instance.build("capped", [("a", 2), ("b", 2)], [("a", "b", 1)])
    profile, exchange = egalitarian_divisible(inst)
    assert profile.values == {"a": F(1), "b": F(1)}
    assert exchange == {("a", "b"): F(1)}


def test_divisible_profile_lorenz_dominates_sampled_exchanges(diamond):
    # Any feasible symmetric exchange profile is Lorenz-dominated by the rule's.
    profile, _ = egalitarian_divisible(diamond)
    rng = random.Random(7)
    edges = list(diamond.edges)
    for _ in range(300):
        amounts = {}
        load = {node: F(0) for node in diamond.nodes}
        for u, v in edges:
            amounts[(u, v)] = F(rng.randint(0, 8), 4)
            load[u] += amounts[(u, v)]
            load[v] += amounts[(u, v)]
        if any(load[n] > diamond.peaks[n] for n in diamond.nodes):
            continue
        candidate = UtilityProfile(load)
        deficit = profile.total - candidate.total
        if deficit == 0:
            assert lorenz_dominates(profile, candidate)


def test_divisible_capacitated_star():
    inst = Instance.build(
        "capped-star",
        [("c", 3), ("l1", 2), ("l2", 2), ("l3", 2)],
        [("c", "l1", 1), ("c", "l2", 1), ("c", "l3", 1)],
    )
    profile, exchange = egalitarian_divisible(inst)
    assert profile.values == {"c": F(3), "l1": F(1), "l2": F(1), "l3": F(1)}
    assert set(exchange.values()) == {F(1)}


@pytest.mark.parametrize("seed", range(10))
def test_divisible_total_is_maximum(seed):
    inst = random_connected_instance(random.Random(4000 + seed), max_nodes=6, max_peak=3)
    profile, _ = egalitarian_divisible(inst)
    assert profile.total == max_flow(build_divisible(inst).network).value


def _divisible_profile_feasible(inst, values):
    built = build_divisible(inst)
    pinned = {}
    for node in inst.nodes:
        if values[node] > inst.peaks[node] or values[node] < 0:
            return False
        pinned[built.supply_arcs[node]] = values[node]
        pinned[("b/" + node, built.network.sink)] = values[node]
    total = sum(values.values(), F(0))
    return max_flow(built.network.with_caps(pinned)).value == total


@pytest.mark.parametrize("seed", range(12))
def test_divisible_profile_is_transfer_stable(seed):
    # Leximin probe: moving a small amount from a richer agent to a poorer one
    # is never simultaneously feasible and a Lorenz improvement.
    rng = random.Random(5200 + seed)
    inst = random_connected_instance(rng, max_nodes=5, max_peak=3)
    if rng.random() < 0.5 and inst.edges:
        capped = {e: rng.randint(1, 2) for e in inst.edges if rng.random() < 0.6}
        inst = Instance(inst.name, inst.peaks, inst.edges, capped)
    profile, _ = egalitarian_divisible(inst)
    delta = F(1, 24)
    for poor in inst.nodes:
        for rich in inst.nodes:
            if poor == rich or profile[poor] >= profile[rich]:
                continue
            shifted = dict(profile.values)
            shifted[poor] += delta
            shifted[rich] -= delta
            if _divisible_profile_feasible(inst, shifted):
                assert not (
                    lorenz_dominates(UtilityProfile(shifted), profile)
                    and UtilityProfile(shifted).sorted_values() != profile.sorted_values()
                )


# -------------------------------------------------------------- indivisible


def test_build_indivisible_hub15_structure(hub15):
    built = build_indivisible(hub15)
    net = built.network
    assert net.arcs[("k/0", "@sink")] == 6
    assert net.arcs[("o/s6", "@sink")] == 5
    assert net.arcs[("o/s7", "@sink")] == 2
    exchange_arcs = {
        arc for arc, tag in built.provenance.items() if tag[0] == "exchange"
    }
    assert exchange_arcs == {
        ("a/s2", "o/s6"),
        ("a/s4", "o/s6"),
        ("a/s5", "o/s6"),
        ("a/s8", "o/s7"),
    }
    component_arcs = {
        arc for arc, tag in built.provenance.items() if tag[0] == "component"
    }
    assert component_arcs == {("a/s1", "k/0"), ("a/s2", "k/0"), ("a/s3", "k/0")}
    mirrors = {tag[1] for arc, tag in built.provenance.items() if tag[0] == "mirror"}
    assert mirrors == set(hub15.nodes) - {"s1", "s2", "s3", "s4", "s5", "s8"}


def test_build_indivisible_unit_triangle(tri):
    built = build_indivisible(tri)
    assert built.network.arcs[("k/0", "@sink")] == 2
    kinds = {tag[0] for tag in built.provenance.values()}
    assert "mirror" not in kinds and "exchange" not in kinds


def test_build_indivisible_bipartite_has_no_component_nodes():
    inst = Instance.build(
        "bip", [("s", 1), ("d1", 1), ("d2", 1)], [("s", "d1"), ("s", "d2")]
    )
    built = build_indivisible(inst)
    assert all(tag[0] != "component" for tag in built.provenance.values())


def test_build_indivisible_rejects_capacitated():
    inst = Instance.build("capped", [("a", 1), ("b", 1)], [("a", "b", 1)])
    with pytest.raises(Exception, match="uncapacitated"):
        build_indivisible(inst)


def test_egalitarian_profile_hub15_network(hub15):
    profile = egalitarian_profile(build_indivisible(hub15))
    expected = {f"s{i}": F(2) for i in (1, 3, 7, 8, 9, 10, 11, 12, 13, 14, 15)}
    expected.update({"s2": F(7, 3), "s4": F(7, 3), "s5": F(7, 3), "s6": F(5)})
    assert profile.values == expected


def test_egalitarian_profile_seven_path(path7):
    profile = egalitarian_profile(build_indivisible(path7))
    assert profile.values == {
        "s1": F(3, 4), "s2": F(1), "s3": F(3, 4), "s4": F(1),
        "s5": F(3, 4), "s6": F(1), "s7": F(3, 4),
    }


def test_egalitarian_profile_no_bottleneck_all_peaks():
    # A perfectly matchable path has no bottleneck: everyone sits at peak.
    inst = path_instance(4, peaks=(2, 2, 2, 2))
    profile = egalitarian_profile(build_indivisible(inst))
    assert profile.values == {node: F(2) for node in inst.nodes}


def test_egalitarian_lp_unit_triangle(tri):
    assert egalitarian_lp(build_indivisible(tri)).values == {
        "a": F(2, 3), "b": F(2, 3), "c": F(2, 3)
    }


def test_egalitarian_lp_matches_water_filling_hub15_network(hub15):
    built = build_indivisible(hub15)
    assert egalitarian_lp(built).values == egalitarian_profile(built).values


def test_egalitarian_lp_single_pair_one_round():
    inst = Instance.build("pair", [("a", 2), ("b", 2)], [("a", "b")])
    assert egalitarian_lp(build_indivisible(inst)).values == {"a": F(2), "b": F(2)}


@pytest.mark.parametrize("seed", range(30))
def test_methods_agree_random(seed):
    inst = random_connected_instance(random.Random(500 + seed), max_nodes=6, max_peak=3)
    built = build_indivisible(inst)
    assert egalitarian_profile(built).values == egalitarian_lp(built).values


@pytest.mark.parametrize("seed", range(30))
def test_methods_agree_many_peak_levels(seed):
    # Many distinct peaks give many peak levels between consecutive breakpoints.
    rng = random.Random(7100 + seed)
    divisible = build_divisible(
        random_connected_instance(rng, max_nodes=10, max_peak=60, min_nodes=6)
    )
    assert egalitarian_profile(divisible).values == egalitarian_lp(divisible).values
    indivisible = build_indivisible(
        random_connected_instance(rng, max_nodes=10, max_peak=6, min_nodes=6)
    )
    assert egalitarian_profile(indivisible).values == egalitarian_lp(indivisible).values


def test_breakpoint_trace_hub15_network(hub15):
    trace = egalitarian_profile(build_indivisible(hub15)).breakpoints
    assert [(bp.lam, bp.kind) for bp in trace] == [
        (F(2), "type-2"), (F(7, 3), "type-2"), (F(5), "type-1")
    ]
    assert trace[0].bottleneck == {"s7", "s8"} | {f"s{i}" for i in range(9, 16)}
    assert trace[1].bottleneck == {"s1", "s2", "s3", "s4", "s5"}
    assert trace[1].image == {"k/0", "o/s6"}
    assert trace[2].bottleneck == {"s6"} and trace[2].image == frozenset()


@pytest.mark.parametrize("seed", range(15))
def test_type2_breakpoints_satisfy_bottleneck_identity(seed):
    # At a type-2 breakpoint the group's joint allocation exactly fills the
    # demand capacity of its image.
    inst = random_connected_instance(random.Random(4400 + seed), max_nodes=6, max_peak=3)
    built = build_indivisible(inst)
    for bp in egalitarian_profile(built).breakpoints:
        if bp.kind != "type-2":
            continue
        supplied = sum(
            (min(bp.lam, F(inst.peaks[a])) for a in bp.bottleneck), F(0)
        )
        image_demand = sum(
            (built.network.arcs[(node, "@sink")] for node in bp.image), F(0)
        )
        assert supplied == image_demand


def test_probabilistic_marginals_cases():
    marginals = probabilistic_marginals(
        profile_of({"x": F(7, 3), "y": 2, "z": F(2, 3)})
    )
    assert marginals["x"] == {2: F(2, 3), 3: F(1, 3)}
    assert marginals["y"] == {2: F(1)}
    assert marginals["z"] == {0: F(1, 3), 1: F(2, 3)}
    for agent, dist in marginals.items():
        assert sum(dist.values()) == 1


# ------------------------------------------------------------------ lottery


def test_lottery_unit_triangle(tri):
    outcome = indivisible_outcome(tri)
    assert sorted(p for _, p in outcome.lottery.entries) == [F(1, 3)] * 3
    supports = {tuple(sorted(m.multiplicities)) for m, _ in outcome.lottery.entries}
    assert supports == {(("a", "b"),), (("a", "c"),), (("b", "c"),)}


def test_lottery_hub15_three_equal_entries(hub15):
    outcome = indivisible_outcome(hub15)
    assert [p for _, p in outcome.lottery.entries] == [F(1, 3)] * 3
    competitors = []
    for matching, _ in outcome.lottery.entries:
        utilities = matching.utilities(hub15)
        extra = [a for a in ("s2", "s4", "s5") if utilities[a] == 3]
        rest = [a for a in ("s2", "s4", "s5") if utilities[a] == 2]
        assert len(extra) == 1 and len(rest) == 2
        # the extra unit is an exchange with s6
        base = {"s2": 0, "s4": 2, "s5": 2}
        assert matching.multiplicity(extra[0], "s6") == base[extra[0]] + 1
        competitors.append(extra[0])
    assert sorted(competitors) == ["s2", "s4", "s5"]


def test_lottery_integral_profile_is_singleton():
    inst = Instance.build("pair", [("a", 1), ("b", 1)], [("a", "b")])
    outcome = indivisible_outcome(inst)
    assert len(outcome.lottery.entries) == 1
    assert outcome.lottery.entries[0][1] == 1


def test_lottery_empty_graph_all_zero():
    inst = Instance.build("isolated", [("a", 2), ("b", 1)], [])
    outcome = indivisible_outcome(inst)
    assert len(outcome.lottery.entries) == 1
    assert outcome.lottery.entries[0][0].multiplicities == {}
    assert outcome.profile.values == {"a": F(0), "b": F(0)}


def test_lottery_requires_indivisible_construction(tri):
    profile, _ = egalitarian_divisible(tri)
    with pytest.raises(MechanismError, match="indivisible"):
        build_lottery(tri, build_divisible(tri), profile)


def test_lottery_rejects_non_maximum_profile(tri):
    built = build_indivisible(tri)
    with pytest.raises(MechanismError, match="maximum"):
        build_lottery(tri, built, profile_of({"a": 0, "b": 0, "c": 0}))


def test_lottery_reuses_the_profile_flow_of_its_own_network(hub15):
    built = build_indivisible(hub15)
    profile = egalitarian_profile(built)
    assert build_lottery(hub15, built, profile).flow is profile.flow
    bare = build_lottery(hub15, built, UtilityProfile(profile.values))
    assert bare.flow is not profile.flow
    assert bare.to_json() == build_lottery(hub15, built, profile).to_json()


def test_lottery_solves_again_for_a_flow_of_another_network(tri):
    # the divisible rule's profile carries a flow of the doubled network
    profile, _ = egalitarian_divisible(tri)
    with pytest.raises(MechanismError, match="not realizable"):
        build_lottery(tri, build_indivisible(tri), profile)


@pytest.mark.parametrize("seed", range(30))
def test_lottery_expectation_random(seed):
    inst = random_connected_instance(random.Random(900 + seed), max_nodes=6, max_peak=3)
    outcome = indivisible_outcome(inst)
    best = max_bmatching(inst).total_utility
    for matching, _ in outcome.lottery.entries:
        matching.check_feasible(inst)
        assert matching.total_utility == best
    expectation = {node: F(0) for node in inst.nodes}
    for matching, p in outcome.lottery.entries:
        for node, used in matching.utilities(inst).items():
            expectation[node] += p * used
    assert expectation == outcome.profile.values
    for agent, dist in outcome.marginals.items():
        assert expected_value(dist) == outcome.profile[agent]


def test_sample_singleton_lottery_any_seed():
    inst = Instance.build("pair", [("a", 1), ("b", 1)], [("a", "b")])
    outcome = indivisible_outcome(inst)
    for seed in (0, 1, 99):
        assert sample_lottery(outcome.lottery, seed) is outcome.lottery.entries[0][0]


def test_sample_triangle_frequencies(tri):
    outcome = indivisible_outcome(tri)
    counts = {}
    for seed in range(3000):
        drawn = sample_lottery(outcome.lottery, seed)
        key = next(iter(drawn.multiplicities))
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == {("a", "b"), ("a", "c"), ("b", "c")}
    for edge, count in counts.items():
        assert 900 <= count <= 1100, (edge, count)


def test_sample_deterministic(tri):
    outcome = indivisible_outcome(tri)
    assert (
        sample_lottery(outcome.lottery, 424242).multiplicities
        == sample_lottery(outcome.lottery, 424242).multiplicities
    )


# ---------------------------------------------------- efficiency & fairness


@pytest.mark.parametrize("seed", range(20))
def test_efficiency_chain_random(seed):
    inst = random_connected_instance(random.Random(1300 + seed), max_nodes=6, max_peak=3)
    outcome = indivisible_outcome(inst)
    assert outcome.profile.total == max_flow(outcome.construction.network).value
    assert outcome.profile.total == max_bmatching(inst).total_utility


@pytest.mark.parametrize("seed", range(15))
def test_expected_profile_lorenz_dominates_pareto_random(seed):
    inst = random_connected_instance(random.Random(1700 + seed), max_nodes=5, max_peak=2)
    outcome = indivisible_outcome(inst)
    for pareto in pareto_profiles(inst, limit=10).as_profiles():
        assert lorenz_dominates(outcome.profile, pareto)


@pytest.mark.parametrize("seed", range(15))
def test_expected_profile_lorenz_dominates_profile_mixtures(seed):
    # Dominance over every lottery profile, not just the integral vertices:
    # mixing can only raise ascending prefix sums, so this is the sharper check.
    rng = random.Random(6100 + seed)
    inst = random_connected_instance(rng, max_nodes=5, max_peak=2)
    outcome = indivisible_outcome(inst)
    vertices = pareto_profiles(inst, limit=10).as_profiles()
    for _ in range(40):
        weights = [F(rng.randint(0, 5)) for _ in vertices]
        total = sum(weights)
        if not total:
            continue
        mixed = {
            node: sum((w * v[node] for w, v in zip(weights, vertices)), F(0)) / total
            for node in inst.nodes
        }
        assert lorenz_dominates(outcome.profile, UtilityProfile(mixed))


def test_equal_treatment_of_equals_triangle_and_hub15(tri, hub15):
    assert len(set(indivisible_outcome(tri).profile.values.values())) == 1
    profile = indivisible_outcome(hub15).profile
    assert profile["s4"] == profile["s5"]


@pytest.mark.parametrize("seed", range(12))
def test_equal_treatment_of_equals_random(seed):
    inst = random_connected_instance(random.Random(2100 + seed), max_nodes=5, max_peak=2)
    profile = indivisible_outcome(inst).profile
    for mapping in instance_automorphisms(inst):
        for node, image in mapping.items():
            assert profile[node] == profile[image]


@pytest.mark.parametrize("seed", range(12))
def test_mechanism_is_label_equivariant(seed):
    rng = random.Random(2500 + seed)
    inst = random_connected_instance(rng, max_nodes=5, max_peak=3)
    mapping = dict(zip(inst.nodes, rng.sample([f"w{i}" for i in range(len(inst.nodes))], len(inst.nodes))))
    image = relabeled(inst, mapping)
    original = indivisible_outcome(inst).profile
    renamed = indivisible_outcome(image).profile
    assert {mapping[n]: x for n, x in original.values.items()} == renamed.values


def test_outcome_is_deterministic(hub15):
    first = indivisible_outcome(hub15)
    second = indivisible_outcome(hub15)
    assert first.profile.values == second.profile.values
    assert first.lottery.to_json() == second.lottery.to_json()


# ---------------------------------------------------------------- extension


def test_direct_bipartite_rule_star_no_bottleneck():
    # Demand dwarfs supply: no bottleneck on the supplier side, all at peak.
    inst = Instance.build(
        "star", [("hub", 10), ("l1", 2), ("l2", 3)], [("hub", "l1"), ("hub", "l2")]
    )
    profile = bipartite_egalitarian(inst, suppliers=["l1", "l2"], demanders=["hub"])
    assert profile["l1"] == 2 and profile["l2"] == 3
    assert profile["hub"] == 5


def test_direct_bipartite_rule_uniform_split():
    inst = Instance.build(
        "fan", [("s1", 1), ("s2", 1), ("d", 1)], [("s1", "d"), ("s2", "d")]
    )
    profile = bipartite_egalitarian(inst, ["s1", "s2"], ["d"])
    assert profile.values == {"s1": F(1, 2), "s2": F(1, 2), "d": F(1)}


def test_direct_bipartite_rule_capacitated_edge():
    # s1 can ship only 1 over its capped edge; s2 takes the rest of d's peak
    inst = Instance.build(
        "capped", [("s1", 2), ("s2", 2), ("d", 3)], [("s1", "d", 1), ("s2", "d")]
    )
    profile = bipartite_egalitarian(inst, ["s1", "s2"], ["d"])
    assert profile.values == {"s1": F(1), "s2": F(2), "d": F(3)}


def test_direct_bipartite_rule_rejects_bad_partition(tri):
    with pytest.raises(Exception, match="cross|partition"):
        bipartite_egalitarian(tri, ["a", "b"], ["c"])


@pytest.mark.parametrize("seed", range(20))
def test_extension_pipeline_equals_direct_rule(seed):
    inst, suppliers, demanders = random_bipartite_instance(
        random.Random(3000 + seed), max_side=3, max_peak=3
    )
    direct = direct_bipartite_rule(inst, suppliers, demanders)
    assert bipartite_egalitarian(inst, suppliers, demanders).values == direct
    assert indivisible_outcome(inst).profile.values == direct


@pytest.mark.parametrize("seed", range(40))
def test_bipartite_rule_equals_direct_rule_with_caps(seed):
    # one fill on the doubled network equals the two fills on the direct network
    inst, suppliers, demanders = random_bipartite_instance(
        random.Random(5000 + seed), max_side=4, max_peak=5, cap_prob=0.5
    )
    direct = direct_bipartite_rule(inst, suppliers, demanders)
    assert bipartite_egalitarian(inst, suppliers, demanders).values == direct
