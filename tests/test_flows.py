import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fairmatch import (
    FlowError,
    FlowNetwork,
    build_divisible,
    build_indivisible,
    decompose_max_flow,
    max_flow,
    maximal_min_cut,
    min_cut,
)
from fairmatch.flows import Flow, is_maximum

from helpers import diamond_instance, hub15_instance, is_integral, reversed_network


def cut_capacity(net: FlowNetwork, side) -> Fraction:
    """Total capacity of arcs leaving ``side``; raises if an unbounded arc crosses."""
    inside = set(side)
    total = Fraction(0)
    for (u, v), cap in net.arcs.items():
        if u in inside and v not in inside:
            if cap is None:
                raise FlowError(f"unbounded arc {(u, v)!r} crosses the cut")
            total += cap
    return total


def simple_net(arcs):
    return FlowNetwork("s", "t", arcs)


def test_zero_capacity_arc_gives_zero_flow():
    flow = max_flow(simple_net({("s", "t"): 0}))
    assert flow.value == 0


def test_network_validation_errors():
    with pytest.raises(FlowError):
        simple_net({("a", "s"): 1})
    with pytest.raises(FlowError):
        simple_net({("t", "a"): 1})
    with pytest.raises(FlowError):
        simple_net({("s", "t"): -1})
    with pytest.raises(FlowError):
        simple_net({("s", "a"): None, ("a", "t"): 1})


def test_with_caps_shares_neighbor_lists():
    net = simple_net({("s", "a"): 2, ("a", "b"): None, ("b", "t"): 3, ("s", "t"): 1})
    capped = net.with_caps({("s", "a"): 1})
    assert capped.neighbors is net.neighbors
    assert capped.arcs[("s", "a")] == 1 and net.arcs[("s", "a")] == 2


def test_diamond_doubled_network_value():
    # Forced by x1 + x2 <= x3 + x4 and x3 + x4 <= 5: total exchange tops out at 10.
    net = build_divisible(diamond_instance()).network
    assert max_flow(net).value == 10


def test_hub15_network_network_value_is_34():
    net = build_indivisible(hub15_instance()).network
    assert max_flow(net).value == 34


def test_min_cut_single_saturated_arc():
    net = simple_net({("s", "t"): 3})
    flow = max_flow(net)
    assert flow.value == 3
    assert min_cut(net, flow) == {"s"}


def test_min_cut_path_saturates_first_arc():
    net = simple_net({("s", "a"): 1, ("a", "t"): 2})
    flow = max_flow(net)
    assert min_cut(net, flow) == {"s"}
    assert cut_capacity(net, {"s"}) == flow.value == 1


def test_min_cut_bottleneck_has_supplier_demander_shape():
    # Two suppliers feeding one scarce demander: the maximal cut is
    # {source} + suppliers + their demand image, and its capacity is the value.
    net = simple_net({("s", "x1"): 2, ("s", "x2"): 2, ("x1", "d"): None, ("x2", "d"): None, ("d", "t"): 3})
    flow = max_flow(net)
    assert flow.value == 3
    side = maximal_min_cut(net, flow)
    assert side == {"s", "x1", "x2", "d"}
    assert cut_capacity(net, side) == 3


def test_min_cut_rejects_non_maximum_flow():
    net = simple_net({("s", "t"): 3})
    lazy = Flow(values={("s", "t"): Fraction(1)}, value=Fraction(1))
    with pytest.raises(FlowError, match="not maximum"):
        min_cut(net, lazy)
    with pytest.raises(FlowError, match="not maximum"):
        maximal_min_cut(net, lazy)


def test_min_cut_rejects_infeasible_flow():
    net = simple_net({("s", "t"): 3})
    bogus = Flow(values={("s", "t"): Fraction(4)}, value=Fraction(4))
    with pytest.raises(FlowError, match="outside"):
        min_cut(net, bogus)


def test_sparse_flow_matches_dense_flow():
    # a maximum flow that omits its zero arcs, here one arc of the antiparallel
    # pair a<->b, reads as the same flow in the cuts and the decomposition
    net = simple_net({
        ("s", "a"): 1, ("s", "e"): 3, ("a", "b"): 1, ("b", "a"): 1, ("a", "t"): 1,
        ("b", "c"): None, ("c", "t"): 1, ("e", "t"): 1,
    })
    half = Fraction(1, 2)
    sparse = Flow(
        values={("s", "a"): Fraction(1), ("a", "b"): half, ("a", "t"): half, ("b", "c"): half,
                ("c", "t"): half, ("s", "e"): Fraction(1), ("e", "t"): Fraction(1)},
        value=Fraction(2),
    )
    dense = Flow(values={arc: sparse.values.get(arc, Fraction(0)) for arc in net.arcs}, value=Fraction(2))
    assert len(dense.values) > len(sparse.values)
    assert min_cut(net, sparse) == min_cut(net, dense) == {"s", "e"}
    assert maximal_min_cut(net, sparse) == maximal_min_cut(net, dense) == {"s", "e"}
    combo = decompose_max_flow(net, sparse)
    assert combo == decompose_max_flow(net, dense)
    assert sorted(w for _, w in combo.entries) == [half, half]


def _random_network(rng: random.Random) -> FlowNetwork:
    internals = [f"n{i}" for i in range(rng.randint(1, 4))]
    arcs = {}
    for node in internals:
        if rng.random() < 0.8:
            arcs[("s", node)] = Fraction(rng.randint(0, 8), rng.randint(1, 4))
        if rng.random() < 0.8:
            arcs[(node, "t")] = Fraction(rng.randint(0, 8), rng.randint(1, 4))
    for a in internals:
        for b in internals:
            if a != b and rng.random() < 0.3:
                arcs[(a, b)] = None if rng.random() < 0.3 else Fraction(rng.randint(0, 6))
    if not any(arc[0] == "s" for arc in arcs):
        arcs[("s", internals[0])] = Fraction(1)
    if not any(arc[1] == "t" for arc in arcs):
        arcs[(internals[-1], "t")] = Fraction(1)
    return FlowNetwork("s", "t", arcs)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_max_flow_equals_min_cut_exactly(seed):
    net = _random_network(random.Random(seed))
    flow = max_flow(net)
    side = min_cut(net, flow)
    assert cut_capacity(net, side) == flow.value
    larger = maximal_min_cut(net, flow)
    assert side <= larger
    assert cut_capacity(net, larger) == flow.value


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_integer_capacities_give_integral_flow(seed):
    rng = random.Random(seed)
    net = _random_network(rng)
    integral = net.with_caps(
        {arc: (None if cap is None else Fraction(int(cap))) for arc, cap in net.arcs.items()}
    )
    flow = max_flow(integral)
    assert is_integral(flow)


def test_decompose_integral_flow_is_singleton():
    net = simple_net({("s", "a"): 2, ("a", "t"): 2})
    flow = max_flow(net)
    combo = decompose_max_flow(net, flow)
    assert len(combo.entries) == 1
    assert combo.entries[0][1] == 1


def test_decompose_symmetric_half_split():
    # A cap-1 bottleneck feeding two unit branches carrying 1/2 each decomposes
    # into the two integral routings at weight 1/2.
    net = simple_net({("s", "m"): 1, ("m", "p"): 1, ("m", "q"): 1, ("p", "t"): 1, ("q", "t"): 1})
    half = Fraction(1, 2)
    fractional = Flow(
        values={("s", "m"): Fraction(1), ("m", "p"): half, ("m", "q"): half, ("p", "t"): half, ("q", "t"): half},
        value=Fraction(1),
    )
    combo = decompose_max_flow(net, fractional)
    assert sorted(w for _, w in combo.entries) == [half, half]
    routes = {tuple(sorted(arc for arc, x in member.values.items() if x)) for member, _ in combo.entries}
    assert routes == {
        (("m", "p"), ("p", "t"), ("s", "m")),
        (("m", "q"), ("q", "t"), ("s", "m")),
    }


def test_decompose_rejects_bad_inputs():
    net = simple_net({("s", "t"): 3})
    with pytest.raises(FlowError, match="maximum"):
        decompose_max_flow(net, Flow(values={("s", "t"): Fraction(1)}, value=Fraction(1)))
    frac_net = simple_net({("s", "t"): Fraction(1, 2)})
    with pytest.raises(FlowError, match="integer"):
        decompose_max_flow(frac_net, max_flow(frac_net))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_decompose_random_fractional_max_flows(seed):
    # Build an integer-capacity network, perturb its maximum flow by averaging
    # with another maximum flow found on a shifted network, then decompose.
    rng = random.Random(seed)
    net = _random_network(rng)
    integral_net = net.with_caps(
        {arc: (None if cap is None else Fraction(int(cap))) for arc, cap in net.arcs.items()}
    )
    base = max_flow(integral_net)
    reroute = max_flow(reversed_network(integral_net))
    mirrored = {
        arc: reroute.values.get((arc[1], arc[0]), Fraction(0)) for arc in integral_net.arcs
    }
    if reroute.value == base.value:
        mixed = Flow(
            values={
                arc: (base.values[arc] + mirrored[arc]) / 2 for arc in integral_net.arcs
            },
            value=base.value,
        )
    else:
        mixed = base
    combo = decompose_max_flow(integral_net, mixed)
    recombined = combo.combined_values()
    for arc in integral_net.arcs:
        assert recombined.get(arc, Fraction(0)) == mixed.values[arc]
    assert len(combo.entries) <= len(integral_net.arcs) + 1
    for member, _ in combo.entries:
        assert is_integral(member)
        assert is_maximum(integral_net, member)
