import dataclasses
import random
from fractions import Fraction

import pytest

from fairmatch import (
    BMatching,
    Instance,
    InstanceError,
    MechanismError,
    UtilityProfile,
    bipartite_egalitarian,
    build_divisible,
    build_indivisible,
    build_lottery,
    decompose_max_flow,
    egalitarian_divisible,
    egalitarian_lp,
    egalitarian_profile,
    ged_decompose,
    indivisible_outcome,
    max_bmatching,
    max_flow,
    mechanism,
    probabilistic_marginals,
    sample_lottery,
)
from fairmatch import flows
from fairmatch.flows import ConvexCombination, Flow, FlowError, FlowNetwork, Scaled, is_maximum
from fairmatch.oracle import enumerate_bmatchings, lorenz_dominates, pareto_profiles

from golden.record import FAMILY_MEMBERS, family_instance, seeded_instance
from helpers import (
    _reference_lowered_cap,
    direct_bipartite_rule,
    expected_value,
    diamond_instance,
    instance_automorphisms,
    lexicographically_optimal_base,
    path_instance,
    peaked_instances_up_to_iso,
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


@pytest.mark.parametrize("seed, n", [(1, 40), (2, 48), (3, 64), (4, 80)])
def test_divisible_pinned_flow_at_scale(seed, n):
    # the pinned flow augments from the fill's last flow: it must still ship
    # the profile on both margins and be maximum on the unpinned network
    inst = seeded_instance(seed, n, 3)
    profile, exchange = egalitarian_divisible(inst)
    built = build_divisible(inst)
    demand_arcs = {tag[1]: arc for arc, tag in built.provenance.items() if tag[0] == "demand"}
    flow = profile.flow
    for node in inst.nodes:
        assert flow.values.get(built.supply_arcs[node], 0) == profile[node]
        assert flow.values.get(demand_arcs[node], 0) == profile[node]
    assert is_maximum(built.network, flow)
    assert all(amount >= 0 for amount in exchange.values())
    # equal amounts and equal utilities share one Fraction each
    assert len({id(x) for x in exchange.values()}) == len(set(exchange.values()))
    assert len({id(x) for x in profile.values.values()}) == len(set(profile.values.values()))
    for node in inst.nodes:
        induced = sum((amount for edge, amount in exchange.items() if node in edge), F(0))
        assert induced == profile[node]


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


@pytest.mark.parametrize("build", [build_indivisible, build_divisible])
@pytest.mark.parametrize("max_nodes, max_peak, classes", [(5, 2, 419), (6, 1, 143)])
def test_fill_is_the_lexicographically_optimal_base(build, max_nodes, max_peak, classes):
    # on every small class, the fill's profile equals the brute-force
    # lexicographically optimal base of the same construction, exactly; that
    # base Lorenz-dominates every throughput vector, so every profile mixture.
    # Mutation: eps moved from the richest agent to the poorest keeps the
    # total and every value nonnegative, and the base rejects it
    instances = peaked_instances_up_to_iso(max_nodes, max_peak)
    assert len(instances) == classes
    for number, inst in enumerate(instances):
        construction = build(inst)
        base = lexicographically_optimal_base(construction)
        values = dict(egalitarian_profile(construction).values)
        assert values == base, number
        if len(values) > 1:
            by_value = sorted(values, key=values.get)
            poorest, richest = by_value[0], by_value[-1]
            eps = min(values[richest], Fraction(1, 7))
            values[poorest] += eps
            values[richest] -= eps
            assert values != base and sum(values.values()) == sum(base.values()), number


@pytest.mark.parametrize("member", FAMILY_MEMBERS, ids=[f"{family}-{seed}" for family, seed in FAMILY_MEMBERS])
def test_methods_agree_on_the_golden_families(member):
    # large peaks, trees, dense graphs, a star and chains of triangles: the
    # breakpoint search and the rounds of egalitarian_lp, which solves every
    # probe from zero, give the same profile on both constructions
    inst = family_instance(*member)
    for built in (build_indivisible(inst), build_divisible(inst)):
        assert egalitarian_lp(built).values == egalitarian_profile(built).values


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


def _verdict(check, *args) -> str | None:
    try:
        check(*args)
    except FlowError as exc:
        return str(exc)
    return None


def _reference_cut_verdict(capped: FlowNetwork, side: frozenset[str], value: F) -> str | None:
    """The cut check on the network's ``Fraction`` caps: the arcs leaving
    ``side`` must carry ``value``."""
    crossing = F(0)
    for arc, cap in capped.arcs.items():
        if arc[0] in side and arc[1] not in side:
            if cap is None:
                return f"flow is not maximum: unbounded arc {arc!r} leaves its cut"
            crossing += cap
    return None if crossing == value else "flow is not maximum: its cut has more capacity than its value"


def test_fill_helpers_on_ints_give_the_fraction_results():
    # the lowered cap and the cut check that carries the breakpoint identity,
    # on caps times a scale, against their Fraction references: the same cap,
    # the same verdicts. At a breakpoint the flow ships the whole supply, so
    # the cut checked against it carries the group's supply exactly.
    rng = random.Random("int-fill")
    for _ in range(300):
        scale = rng.randint(1, 12)
        caps = [rng.randint(1, 40) for _ in range(rng.randint(1, 6))]
        deficit = rng.randint(1, sum(caps))
        assert mechanism._lowered_cap(caps, deficit, scale) == _reference_lowered_cap(
            [F(c, scale) for c in caps], F(deficit, scale)
        )
    net = FlowNetwork("s", "t", {("s", "a"): 2, ("s", "b"): 1, ("a", "t"): 2, ("a", "b"): None, ("b", "t"): 3})
    verdicts = set()
    for caps in ([4, 2, 4, None, 6, 0], [3, 1, 3, None, 7, 0], [5, 5, 1, None, 2, 0]):
        capped = net.with_scaled_caps(6, caps)
        idx = capped.index
        scale, ints = capped.scaled_caps
        supply = sum(ints[a] for a, tail in enumerate(idx.tails) if tail == idx.source)
        for side in ({"s"}, {"s", "a"}, {"s", "b"}, {"s", "a", "b"}):
            inside = [node in side for node in idx.nodes]
            verdict = _verdict(flows._check_cut, idx, ints, supply, inside)
            assert verdict == _reference_cut_verdict(capped, frozenset(side), F(supply, scale))
            verdicts.add(verdict)
    assert verdicts == {
        None,
        "flow is not maximum: its cut has more capacity than its value",
        "flow is not maximum: unbounded arc ('a', 'b') leaves its cut",
    }


def test_fill_wraps_a_failed_cut_check_as_the_bottleneck_identity(hub15, monkeypatch):
    def refuted(net, flow):
        raise FlowError("flow is not maximum: its cut has more capacity than its value")

    monkeypatch.setattr(mechanism, "maximal_min_cut", refuted)
    with pytest.raises(MechanismError, match="bottleneck identity violated: flow is not maximum") as caught:
        egalitarian_profile(build_indivisible(hub15))
    assert isinstance(caught.value.__cause__, FlowError)


def test_fill_refuses_a_breakpoint_without_a_bottlenecked_agent(hub15, monkeypatch):
    monkeypatch.setattr(mechanism, "maximal_min_cut", lambda net, flow: frozenset({net.source}))
    with pytest.raises(MechanismError, match="breakpoint without a bottlenecked agent"):
        egalitarian_profile(build_indivisible(hub15))


@pytest.mark.parametrize("build", [build_indivisible, build_divisible])
def test_fill_refuses_a_profile_its_last_flow_does_not_ship(hub15, monkeypatch, build):
    # every probe solved with one agent's supply arc shut: the fill still
    # freezes that agent at a positive level, which no probe shipped
    built = build(hub15)
    shut, solve = built.supply_arcs["s1"], mechanism.max_flow
    monkeypatch.setattr(mechanism, "max_flow", lambda net, start=None: solve(net.with_caps({shut: 0}), start=start))
    with pytest.raises(MechanismError, match="frozen egalitarian profile is not fully shippable"):
        egalitarian_profile(built)


def _solved_after_the_fill(monkeypatch, solve) -> None:
    """Make :func:`egalitarian_divisible` solve its pinned network with ``solve``
    once the fill is done."""
    fill = mechanism.egalitarian_profile

    def filled(construction):
        profile = fill(construction)
        monkeypatch.setattr(mechanism, "max_flow", solve)
        return profile

    monkeypatch.setattr(mechanism, "egalitarian_profile", filled)


def test_divisible_rule_refuses_a_pinned_flow_of_another_value(hub15, monkeypatch):
    solve = mechanism.max_flow
    _solved_after_the_fill(monkeypatch, lambda net, start: dataclasses.replace(solve(net, start), value=start.value - 1))
    with pytest.raises(MechanismError, match="profile is not realizable by a divisible maximum flow"):
        egalitarian_divisible(hub15)


def test_divisible_rule_refuses_an_exchange_that_misses_the_profile(monkeypatch):
    # x - c - y with unit peaks: the profile is x = y = 1/2, c = 1. A flow that
    # ships c's unit to x alone has the profile's value and supplies, but x's
    # edge then carries 3/4 where its half-unit profile needs 1/2
    inst = Instance.build("path", [("x", 1), ("c", 1), ("y", 1)], [("x", "c"), ("c", "y")])
    solve = mechanism.max_flow
    lopsided = {("b/x", mechanism.SINK): 1, ("a/c", "b/y"): 0}
    _solved_after_the_fill(monkeypatch, lambda net, start: solve(net.with_caps(lopsided)))
    with pytest.raises(MechanismError, match="symmetrized exchange misses the profile at 'x'"):
        egalitarian_divisible(inst)


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
        assert matching.multiplicities[(extra[0], "s6")] == base[extra[0]] + 1
        competitors.append(extra[0])
    assert sorted(competitors) == ["s2", "s4", "s5"]


def test_results_hold_the_instance_edge_tuples(hub15):
    # the exchange and every lottery member are keyed by the instance's own
    # edge objects, not by equal copies of them
    own = {id(edge) for edge in hub15.edges}
    _, exchange = egalitarian_divisible(hub15)
    assert list(exchange) == list(hub15.edges)
    assert all(id(edge) in own for edge in exchange)
    outcome = indivisible_outcome(hub15)
    keys = [edge for matching, _ in outcome.lottery.entries for edge in matching.multiplicities]
    assert len(keys) > len(outcome.lottery.entries)
    assert all(id(edge) in own for edge in keys)


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
    # the zero flow of the construction's own network is decomposed, and is not maximum
    built = build_indivisible(tri)
    zero = Flow(values=dict.fromkeys(built.network.arcs, F(0)), value=F(0))
    profile = UtilityProfile({"a": F(0), "b": F(0), "c": F(0)}, flow=zero)
    with pytest.raises(MechanismError, match="maximum"):
        build_lottery(tri, built, profile)


def test_lottery_rejects_a_decomposition_that_leaves_perfect_agents_short(hub15):
    # the perfect part is read off the decomposition's matching: drop one of
    # its V^P edges and the saturation check must fail
    ged = ged_decompose(hub15)
    perfect = {e: m for e, m in ged.matching.multiplicities.items() if set(e) <= ged.perfect}
    dropped = next(iter(perfect))
    short = dataclasses.replace(
        ged,
        matching=BMatching({e: m for e, m in ged.matching.multiplicities.items() if e != dropped}),
    )
    built = build_indivisible(hub15, short)
    with pytest.raises(MechanismError, match="perfectly matched agents cannot be saturated internally"):
        build_lottery(hub15, built, egalitarian_profile(built))


def test_lottery_reuses_the_profile_flow_of_its_own_network(hub15):
    built = build_indivisible(hub15)
    profile = egalitarian_profile(built)
    assert build_lottery(hub15, built, profile).flow is profile.flow
    with pytest.raises(MechanismError, match="no flow of this construction"):
        build_lottery(hub15, built, UtilityProfile(profile.values))


def test_lottery_rejects_a_flow_of_another_network(tri):
    # the divisible rule's profile carries a flow of the doubled network
    profile, _ = egalitarian_divisible(tri)
    with pytest.raises(MechanismError, match="no flow of this construction"):
        build_lottery(tri, build_indivisible(tri), profile)


@pytest.mark.parametrize("kind", ["exchange", "component"])
def test_lottery_refuses_a_member_with_a_fractional_arc(hub15, monkeypatch, kind):
    # members are read on their own ints: on a member over scale 2, an odd int
    # on one exchange or component arc is half a unit there
    built = build_indivisible(hub15)
    profile = egalitarian_profile(built)
    (member, weight), *rest = decompose_max_flow(built.network, profile.flow).entries
    arc = next(arc for arc, tag in built.provenance.items() if tag[0] == kind)
    index, slot = member.values.index, member.values.index.arc_ids[arc]
    halved = Flow(Scaled(index, 2, [2 * x + (a == slot) for a, x in enumerate(member.values.ints)]), member.value)
    combination = ConvexCombination(((halved, weight), *rest))
    monkeypatch.setattr(mechanism, "decompose_max_flow", lambda net, flow: combination)
    with pytest.raises(MechanismError, match=f"integral member has a fractional {kind} arc"):
        build_lottery(hub15, built, profile)


def test_lottery_refuses_unrealizable_component_targets(monkeypatch):
    # nodes listed out of name order: the targets reach _realize in instance
    # order and the message prints them in the component's sorted order
    inst = Instance.build("tri", [("c", 1), ("b", 1), ("a", 1)], [("a", "b"), ("b", "c"), ("a", "c")])
    orders = []

    def unrealizable(targets, edges):
        orders.append(list(targets))
        return None

    monkeypatch.setattr(mechanism, "_realize", unrealizable)
    with pytest.raises(
        MechanismError,
        match=r"component \('a', 'b', 'c'\): internal targets \{'a': \d, 'b': \d, 'c': \d\} are unrealizable",
    ):
        indivisible_outcome(inst)
    assert orders == [["c", "b", "a"]]


def test_lottery_refuses_a_member_that_matches_less_than_it_ships(hub15, monkeypatch):
    # the component s1, s2, s3 ships its internal total, which an empty
    # realization does not match
    monkeypatch.setattr(mechanism, "_realize", lambda targets, edges: BMatching({}))
    with pytest.raises(MechanismError, match=r"agent 's\d+': matched \d+ but the member ships \d+"):
        indivisible_outcome(hub15)


def test_lottery_refuses_a_member_that_is_not_maximum(hub15, monkeypatch):
    # a flow claiming one unit more than it carries: every member ships its
    # own matching, but none reaches the claimed value
    built = build_indivisible(hub15)
    profile = egalitarian_profile(built)
    combination = decompose_max_flow(built.network, profile.flow)
    inflated = dataclasses.replace(profile.flow, value=profile.flow.value + 1)
    monkeypatch.setattr(mechanism, "decompose_max_flow", lambda net, flow: combination)
    with pytest.raises(MechanismError, match="lottery member is not a maximum b-matching"):
        build_lottery(hub15, built, UtilityProfile(profile.values, flow=inflated))


def test_lottery_refuses_an_expectation_that_misses_the_profile(hub15):
    # one unit moved between two agents keeps the total; the lottery of the
    # carried flow still gives each agent its own expectation
    built = build_indivisible(hub15)
    profile = egalitarian_profile(built)
    moved = dict(profile.values)
    moved["s1"] += 1
    moved["s15"] -= 1
    with pytest.raises(MechanismError, match="lottery expectation misses the profile at 's1'"):
        build_lottery(hub15, built, UtilityProfile(moved, flow=profile.flow))


def test_lottery_refuses_probabilities_off_a_distribution(hub15):
    lottery = indivisible_outcome(hub15).lottery
    (matching, p), *rest = lottery.entries
    with pytest.raises(MechanismError, match="lottery probabilities must be positive"):
        dataclasses.replace(lottery, entries=((matching, F(0)), *lottery.entries))
    with pytest.raises(MechanismError, match="lottery probabilities must sum to 1"):
        dataclasses.replace(lottery, entries=((matching, p / 2), *rest))


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


@pytest.mark.parametrize("member", [(36, 20, 2.2), (24, 80, 2.2)])
def test_lottery_expectation_over_weights_of_distinct_denominators(member):
    # weights 1/3 and 1/6, and 1/5 down to 1/15: the members' shares of the
    # common denominator differ
    inst = seeded_instance(*member)
    outcome = indivisible_outcome(inst)
    assert len({p.denominator for _, p in outcome.lottery.entries}) > 1
    expectation = {node: F(0) for node in inst.nodes}
    for matching, p in outcome.lottery.entries:
        for node, used in matching.utilities(inst).items():
            expectation[node] += p * used
    assert expectation == outcome.profile.values


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
    for pareto in pareto_profiles(inst).as_profiles():
        assert lorenz_dominates(outcome.profile, pareto)


@pytest.mark.parametrize("seed", range(15))
def test_expected_profile_lorenz_dominates_profile_mixtures(seed):
    # Dominance over every lottery profile, not just the integral vertices:
    # mixing can only raise ascending prefix sums, so this is the sharper check.
    rng = random.Random(6100 + seed)
    inst = random_connected_instance(rng, max_nodes=5, max_peak=2)
    outcome = indivisible_outcome(inst)
    vertices = pareto_profiles(inst).as_profiles()
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


@pytest.mark.parametrize("suppliers, demanders", [(["a"], ["b"]), (["a", "b"], ["b", "c"])])
def test_bipartite_rule_rejects_sides_that_do_not_partition(suppliers, demanders):
    inst = Instance.build("path", [("a", 1), ("b", 1), ("c", 1)], [("a", "b"), ("b", "c")])
    with pytest.raises(InstanceError, match="suppliers and demanders must partition the nodes"):
        bipartite_egalitarian(inst, suppliers, demanders)


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
