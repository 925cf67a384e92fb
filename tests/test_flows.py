import random
import re
from fractions import Fraction
from math import ceil, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from fairmatch import (
    FlowError,
    FlowNetwork,
    Instance,
    build_divisible,
    build_indivisible,
    decompose_max_flow,
    egalitarian_profile,
    flows,
    max_flow,
    maximal_min_cut,
    mechanism,
    min_cut,
)
from fairmatch.flows import ConvexCombination, Flow, is_maximum

from golden.record import MEMBERS, seeded_instance
from helpers import (
    diamond_instance,
    hub15_instance,
    is_integral,
    reference_check_feasible,
    reference_decompose_max_flow,
    reference_egalitarian_profile,
    reference_max_flow,
    reference_search,
    reversed_network,
)


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
    with pytest.raises(FlowError, match="source and sink must differ"):
        FlowNetwork("s", "s", {})
    with pytest.raises(FlowError, match="self-loop arc"):
        simple_net({("s", "a"): 1, ("a", "a"): 1, ("a", "t"): 1})


def test_with_caps_shares_neighbor_lists():
    net = simple_net({("s", "a"): 2, ("a", "b"): None, ("b", "t"): 3, ("s", "t"): 1})
    capped = net.with_caps({("s", "a"): 1})
    assert capped.neighbors is net.neighbors
    assert capped.index is net.index
    assert capped.arcs[("s", "a")] == 1 and net.arcs[("s", "a")] == 2


def test_with_caps_rejects_a_missing_arc():
    net = simple_net({("s", "a"): 2, ("a", "t"): 3})
    with pytest.raises(FlowError, match=r"cannot override missing arcs \[\('a', 's'\)\]"):
        net.with_caps({("a", "s"): 1})


def test_copy_reads_its_int_caps_as_fractions():
    net = simple_net({("s", "a"): 2, ("a", "b"): None, ("b", "t"): 3, ("s", "t"): 1})
    # caps by arc id over scale 6, with the extra 0 at the end
    copy = net.with_scaled_caps(6, [4, None, 9, 6, 0])
    assert copy.index is net.index and copy.scaled_caps == (6, [4, None, 9, 6, 0])
    fractions = {("s", "a"): Fraction(2, 3), ("a", "b"): None, ("b", "t"): Fraction(3, 2), ("s", "t"): Fraction(1)}
    assert copy.arcs == fractions and list(copy.arcs) == list(net.arcs)
    assert copy == FlowNetwork("s", "t", fractions) and repr(copy.arcs) == repr(fractions)
    assert ("b", "t") in copy.arcs and ("t", "b") not in copy.arcs
    with pytest.raises(KeyError):
        copy.arcs[("t", "b")]
    assert max_flow(copy).value == Fraction(5, 3) == reference_max_flow(copy).value
    # caps on a larger scale than they need come down to the least one
    assert net.with_scaled_caps(4, [2, None, 6, 4, 0]).scaled_caps == (2, [1, None, 3, 2, 0])


def test_constructor_and_with_caps_check_caps_alike():
    net = simple_net({("s", "a"): 2, ("a", "b"): None, ("b", "t"): 3})
    for cap, message in (
        (1.5, "arc ('s', 'a'): capacity 1.5 is not an int or a Fraction"),
        (True, "arc ('s', 'a'): capacity True is not an int or a Fraction"),
        (-1, "arc ('s', 'a'): negative capacity -1"),
        (Fraction(-1, 2), "arc ('s', 'a'): negative capacity Fraction(-1, 2)"),
        (None, "unbounded capacity on terminal-incident arc ('s', 'a')"),
    ):
        with pytest.raises(FlowError, match=f"^{re.escape(message)}$"):
            simple_net({("s", "a"): cap, ("a", "b"): None, ("b", "t"): 3})
        with pytest.raises(FlowError, match=f"^{re.escape(message)}$"):
            net.with_caps({("s", "a"): cap})
    # int caps stay ints, on scale 1
    assert net.scaled_caps == (1, [2, None, 3, 0])
    assert simple_net({("s", "a"): Fraction(1, 2), ("a", "t"): 1}).scaled_caps == (2, [1, 2, 0])


def test_every_form_of_a_flow_solves_and_cuts_alike():
    # one flow as the view max_flow returned on another network with the same
    # arcs (verify checks the fill's flow on a fresh construction), as a plain
    # Fraction dict, and as a dict over the arcs that carry flow: each is written
    # on the same ints, so max_flow, min_cut and is_maximum agree on all three
    inst = hub15_instance()
    first, other = build_divisible(inst).network, build_divisible(inst).network
    assert other.index is not first.index and other.index.arcs == first.index.arcs
    supply = next(arc for arc in first.arcs if arc[0] == first.source)
    for flow, maximum in ((max_flow(first), True), (max_flow(first.with_caps({supply: 0})), False)):
        forms = [
            flow,
            Flow(dict(flow.values), flow.value),
            Flow({arc: x for arc, x in flow.values.items() if x}, flow.value),
        ]
        assert len(forms[2].values) < len(forms[1].values) == len(other.arcs)
        assert flows._scaled(other, forms[0]) == flows._scaled(other, forms[1]) == flows._scaled(other, forms[2])
        solved = [max_flow(other, start=form) for form in forms]
        assert len({(tuple(s.values.items()), s.value, s.cut) for s in solved}) == 1
        assert [is_maximum(other, form) for form in forms] == [maximum] * 3
        cuts = set()
        for form in forms:
            try:
                cuts.add(min_cut(other, form))
            except FlowError as exc:
                cuts.add(str(exc))
        assert cuts == ({solved[0].cut} if maximum else {"flow is not maximum: augmenting path exists"})
    # a flow is trusted only on the network object max_flow certified it on: a
    # copy on the same index with a tighter cap checks it again and rejects it,
    # though its residual search alone finds no augmenting path
    flow, tighter = max_flow(first), first.with_caps({supply: 0})
    assert tighter.index is first.index and flow.values[supply] > 0
    assert not is_maximum(tighter, flow)
    for check in (min_cut, maximal_min_cut):
        with pytest.raises(FlowError, match=re.escape(f"arc {supply!r}: flow {flow.values[supply]} outside [0, 0]")):
            check(tighter, flow)
    with pytest.raises(FlowError, match="decomposition requires a maximum flow") as caught:
        decompose_max_flow(tighter, flow)
    assert "outside [0, 0]" in str(caught.value.__cause__)
    assert is_maximum(first, flow) and min_cut(first, flow) == flow.cut
    with pytest.raises(TypeError):  # only max_flow sets the network a flow was certified on
        Flow(flow.values, flow.value, network=tighter)
    # a view on another arc list goes through the same checks as a dict
    short, long = simple_net({("s", "t"): 1}), simple_net({("s", "a"): 1, ("a", "t"): 1})
    for check in (min_cut, lambda net, flow: max_flow(net, start=flow)):
        with pytest.raises(FlowError, match=re.escape("flow on missing arc ('s', 't')")):
            check(long, max_flow(short))
    with pytest.raises(FlowError, match=re.escape("arc ('s', 't'): flow 0.5 is not an int or a Fraction")):
        min_cut(short, Flow({("s", "t"): 0.5}, Fraction(1, 2)))
    with pytest.raises(FlowError, match=re.escape("arc ('s', 't'): start flow 0.5 is not an int or a Fraction")):
        max_flow(short, start=Flow({("s", "t"): 0.5}, Fraction(1, 2)))


def test_decomposition_names_the_first_fractional_cap():
    # caps are integers exactly when their least common denominator is 1
    net = simple_net({("s", "a"): 2, ("a", "b"): Fraction(3, 2), ("b", "t"): Fraction(1, 3), ("a", "t"): 1})
    for check in (decompose_max_flow, reference_decompose_max_flow):
        with pytest.raises(FlowError, match=re.escape("arc ('a', 'b'): decomposition requires integer capacities")):
            check(net, max_flow(net))
    integral = net.with_scaled_caps(6, [12, 6, 6, 6, 0])
    assert integral.scaled_caps == (1, [2, 1, 1, 1, 0])
    assert len(decompose_max_flow(integral, max_flow(integral)).entries) == 1


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
    assert not is_maximum(net, lazy)
    assert is_maximum(net, max_flow(net))


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


def test_decompose_certifies_each_member(monkeypatch):
    # a box flow that leaves the half-split's fractional arcs at their floor
    # does not conserve flow at m: the member check against the cut refuses it
    net = simple_net({("s", "m"): 1, ("m", "p"): 1, ("m", "q"): 1, ("p", "t"): 1, ("q", "t"): 1})
    half = Fraction(1, 2)
    fractional = Flow(
        values={("s", "m"): Fraction(1), ("m", "p"): half, ("m", "q"): half, ("p", "t"): half, ("q", "t"): half},
        value=Fraction(1),
    )
    monkeypatch.setattr(flows, "_integral_flow_in_box", lambda net, lower, loose, value: list(lower))
    with pytest.raises(FlowError, match="conservation violated at 'm'"):
        decompose_max_flow(net, fractional)


@pytest.mark.parametrize(
    "weights, message",
    [
        ((Fraction(3, 2), Fraction(-1, 2)), r"weights must lie in \(0, 1\]"),
        ((Fraction(0), Fraction(1)), r"weights must lie in \(0, 1\]"),
        ((Fraction(1, 2), Fraction(1, 3)), "weights must sum to exactly 1"),
    ],
)
def test_convex_combination_validation(weights, message):
    member = Flow(values={("s", "t"): Fraction(1)}, value=Fraction(1))
    with pytest.raises(FlowError, match=message):
        ConvexCombination(tuple((member, w) for w in weights))


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


def _layered_network(rng: random.Random, max_denominator: int = 3) -> FlowNetwork:
    """Source, three layers of 2-4 nodes, sink; arcs only between consecutive
    layers, the inner ones sometimes unbounded. Finite caps are 0-9 over 1 to
    ``max_denominator``."""
    layers = [["s"]] + [
        [f"l{depth}n{i}" for i in range(rng.randint(2, 4))] for depth in range(3)
    ] + [["t"]]
    arcs = {}
    for depth, (tails, heads) in enumerate(zip(layers, layers[1:])):
        terminal = depth == 0 or depth == len(layers) - 2
        for u in tails:
            for v in heads:
                if terminal or rng.random() < 0.6:
                    unbounded = not terminal and rng.random() < 0.3
                    arcs[(u, v)] = None if unbounded else Fraction(rng.randint(0, 9), rng.randint(1, max_denominator))
    return FlowNetwork("s", "t", arcs)


@pytest.mark.parametrize("seed", range(40))
def test_warm_start_from_higher_source_caps_matches_cold(seed):
    # the start ships more than the new caps on some source arcs and less on
    # others, and then also more than lowered caps on some sink arcs: the warm
    # solve cancels the excess, then augments to the same cuts
    rng = random.Random(f"warm/{seed}")
    net = _layered_network(rng)
    start = max_flow(net)
    before = dict(start.values)
    source_caps = {}
    for arc, cap in net.arcs.items():
        if arc[0] == "s":
            source_caps[arc] = cap * rng.choice((0, Fraction(1, 3), Fraction(1, 2), 1, 2))
    sink_caps = {}
    for arc, cap in net.arcs.items():
        if arc[1] == "t":
            sink_caps[arc] = cap * rng.choice((0, Fraction(1, 3), Fraction(1, 2), 1))
    for new_caps in (source_caps, {**source_caps, **sink_caps}):
        capped = net.with_caps(new_caps)
        warm = max_flow(capped, start=start)
        cold = max_flow(capped)
        assert warm.value == cold.value
        assert min_cut(capped, warm) == min_cut(capped, cold)
        assert maximal_min_cut(capped, warm) == maximal_min_cut(capped, cold)
        assert start.values == before  # the start is not modified


def test_warm_start_cancels_excess_along_flow_paths():
    net = simple_net({("s", "a"): 3, ("a", "b"): 2, ("a", "c"): 2, ("b", "t"): 2, ("c", "t"): 2})
    start = max_flow(net)
    assert start.value == 3
    warm = max_flow(net.with_caps({("s", "a"): 1}), start=start)
    assert warm.value == 1
    assert warm.values[("s", "a")] == 1
    assert warm.values[("a", "b")] + warm.values[("a", "c")] == 1


def test_warm_start_cancels_sink_excess_along_flow_paths():
    # the excess on the sink arc is cancelled along s-a-c first (neighbor
    # order), then along s-b-c; nothing is left to augment
    net = simple_net({("s", "a"): 2, ("s", "b"): 2, ("a", "c"): 2, ("b", "c"): 2, ("c", "t"): 4})
    start = max_flow(net)
    assert start.value == 4
    warm = max_flow(net.with_caps({("c", "t"): 1}), start=start)
    assert warm.value == 1
    assert (warm.values[("s", "a")], warm.values[("s", "b")], warm.values[("c", "t")]) == (0, 1, 1)
    # an arc from the source straight to the sink is its own cancelling path
    direct = simple_net({("s", "t"): 3})
    assert max_flow(direct.with_caps({("s", "t"): 1}), start=max_flow(direct)).value == 1


def test_warm_start_rejects_infeasible_start():
    net = simple_net({("s", "a"): 3, ("a", "t"): 2})
    inner = simple_net({("s", "a"): 3, ("a", "b"): 2, ("b", "t"): 3})
    over_inner_cap = Flow(
        values={("s", "a"): Fraction(3), ("a", "b"): Fraction(3), ("b", "t"): Fraction(3)},
        value=Fraction(3),
    )
    with pytest.raises(FlowError, match="outside"):
        max_flow(inner, start=over_inner_cap)
    # conservation and the value are checked once, after augmenting, which
    # keeps a's imbalance and moves the source's outflow with the value
    unbalanced = Flow(values={("s", "a"): Fraction(2), ("a", "t"): Fraction(1)}, value=Fraction(2))
    with pytest.raises(FlowError, match="^" + re.escape("conservation violated at 'a' (imbalance 1)") + "$"):
        max_flow(net, start=unbalanced)
    misvalued = Flow(values={("s", "a"): Fraction(1), ("a", "t"): Fraction(1)}, value=Fraction(2))
    with pytest.raises(FlowError, match="^flow value does not match net outflow of the source$"):
        max_flow(net, start=misvalued)
    stranded = Flow(values={("s", "a"): Fraction(2), ("a", "t"): Fraction(0)}, value=Fraction(2))
    with pytest.raises(FlowError, match="cannot cancel"):
        max_flow(net.with_caps({("s", "a"): 1}), start=stranded)
    with pytest.raises(FlowError, match="missing arc"):
        max_flow(net, start=Flow(values={("a", "s"): Fraction(0)}, value=Fraction(0)))
    # conserved, and no terminal arc above its cap, yet a -> b carries 4 over
    # its cap of 1: augmenting from it would push s -> a past its cap
    loop = simple_net({("s", "a"): 5, ("a", "b"): 1, ("b", "a"): 1, ("b", "t"): 4, ("a", "t"): 1})
    over_loop = Flow(
        values={("s", "a"): 4, ("a", "b"): 4, ("b", "a"): 1, ("b", "t"): 3, ("a", "t"): 1}, value=Fraction(4)
    )
    with pytest.raises(FlowError, match=re.escape("arc ('a', 'b'): flow 4 outside [0, 1]")):
        max_flow(loop, start=over_loop)


def _augmentations(net: FlowNetwork, start: Flow | None = None) -> tuple[Flow, list, list]:
    """``max_flow(net, start)``, every augmentation it made, in order, and its
    cancellation of the start's excess, as ``reference_max_flow`` records them:
    a path's arcs (node pairs from the source) and its bottleneck; the values
    right after cancelling, by arc, and the value cancelled."""
    names, scale = net.index.nodes, flows._scaled(net, start, as_start=True)[0]
    steps, cancellation = [], []
    original, original_cancel = flows._augment, flows._cancel_excess

    def recorded(path, caps, values):
        bottleneck = original(path, caps, values)
        nodes = [net.source, *(names[v] for v, _, _ in path)]
        steps.append((list(zip(nodes, nodes[1:])), Fraction(bottleneck, scale)))
        return bottleneck

    def cancelling(solved, caps, values):
        amount = original_cancel(solved, caps, values)
        after = {arc: Fraction(x, scale) for arc, x in zip(net.index.arcs, values)}
        cancellation.append((after, Fraction(amount, scale)))
        return amount

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flows, "_augment", recorded)
        patch.setattr(flows, "_cancel_excess", cancelling)
        return max_flow(net, start), steps, cancellation


def _same_as_reference(net: FlowNetwork, start: Flow | None = None) -> Flow:
    flow, steps, cancellation = _augmentations(net, start)
    record, cancelled = [], []
    reference = reference_max_flow(net, start, record, cancelled)
    # a warm start's excess is cancelled along the reference's paths, to the
    # same values and the same cancelled total
    assert cancellation == cancelled
    # each phase's walk takes the path the reference's next search takes
    assert steps == record
    assert list(flow.values.items()) == list(reference.values.items())
    assert flow.value == reference.value
    # the flow keeps the ints it was solved on, yet reads, compares and prints
    # as the Flow of its Fractions; their scale is the least one
    as_fractions = Flow(dict(flow.values), flow.value)
    assert flow == as_fractions == reference and repr(flow) == repr(as_fractions)
    assert flow.values.scale == lcm(*(x.denominator for x in [*flow.values.values(), flow.value]))
    # the returned cut is what the Fraction search reaches on the reference flow
    assert flow.cut == frozenset(reference_search(net, net.arcs, reference.values))
    return flow


def _same_caps_as_fresh(net: FlowNetwork) -> FlowNetwork:
    """A network built from ``net``'s caps, after checking that ``net``'s
    scaled caps are the fresh network's: the caps on their least scale."""
    fresh = FlowNetwork(net.source, net.sink, dict(net.arcs))
    fresh_scale, fresh_caps = fresh.scaled_caps
    assert fresh_scale == lcm(*(cap.denominator for cap in net.arcs.values() if cap is not None))
    assert fresh_caps == [*(None if cap is None else cap * fresh_scale for cap in net.arcs.values()), 0]
    assert net.scaled_caps == (fresh_scale, fresh_caps)
    return fresh


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_phases_take_the_reference_paths_on_random_networks(seed):
    # inner arcs both ways, some unbounded: paths of several lengths, each
    # phase's walk backing out of dead ends; then a warm start above the
    # lowered terminal caps, which cancels its excess before the phases
    rng = random.Random(seed)
    net = _random_network(rng)
    start = _same_as_reference(net)
    lowered = net.with_caps({
        arc: cap * rng.choice((0, Fraction(1, 3), 1))
        for arc, cap in net.arcs.items()
        if arc[0] == "s" or arc[1] == "t"
    })
    _same_as_reference(lowered, start)


@pytest.mark.parametrize("chunk", range(10))
def test_scaled_solver_matches_fraction_reference(chunk):
    # 300 layered networks with cap denominators 1-12, zero caps and unbounded
    # inner arcs. The integer search takes the Fraction search's paths, so cold
    # and warm solves return the same flow, arc by arc and in the same key order
    factors = {"s": (0, Fraction(1, 3), Fraction(5, 7), 1, 2), "t": (0, Fraction(1, 2), Fraction(4, 11), 1)}
    both_excess = grown = rescaled = 0
    for seed in range(30 * chunk, 30 * chunk + 30):
        rng = random.Random(f"scaled/{seed}")
        net = _layered_network(rng, max_denominator=12)
        start = _same_as_reference(net)
        capped = net.with_caps({
            arc: cap * rng.choice(factors["s" if arc[0] == "s" else "t"])
            for arc, cap in net.arcs.items()
            if "s" in arc or "t" in arc
        })
        _same_as_reference(capped)
        _same_as_reference(capped, start)
        over = [arc for arc, cap in capped.arcs.items() if cap is not None and start.values[arc] > cap]
        both_excess += any(u == "s" for u, _ in over) and any(v == "t" for _, v in over)
        # copies of copies derive their scaled caps from their parent's, and
        # drop the denominators of the caps they replace
        chained = capped
        for _ in range(3):
            overrides = {}
            for (u, v), cap in chained.arcs.items():
                if rng.random() < 0.5:
                    finite = u == "s" or v == "t" or rng.random() < 0.7
                    overrides[(u, v)] = Fraction(rng.randint(0, 9), rng.randint(1, 12)) if finite else None
            derived = lcm(chained.scaled_caps[0], *(cap.denominator for cap in overrides.values() if cap is not None))
            chained = chained.with_caps(overrides)
            _same_caps_as_fresh(chained)
            grown += derived > chained.scaled_caps[0]
        _same_as_reference(chained)
        # rounded up, the caps are integers: a copy of fractional caps on scale 1
        integral = chained.with_caps({arc: Fraction(ceil(cap)) for arc, cap in chained.arcs.items() if cap is not None})
        rescaled += chained.scaled_caps[0] > integral.scaled_caps[0] == 1
        fresh = _same_caps_as_fresh(integral)
        solved = [max_flow(integral), _relabeled_max_flow(integral, rng)]
        mixed = Flow({arc: (solved[0].values[arc] + solved[1].values[arc]) / 2 for arc in integral.arcs}, solved[0].value)
        for flow in [*solved, mixed]:
            members = _same_decomposition_as_reference(integral, flow)
            assert _same_decomposition_as_reference(fresh, flow) == members
    assert both_excess >= 5
    assert grown >= 45 and rescaled >= 25


def test_scaled_solver_edge_cases():
    assert max_flow(simple_net({})) == reference_max_flow(simple_net({})) == Flow({}, Fraction(0))
    zeros = simple_net({("s", "a"): 0, ("a", "b"): None, ("b", "t"): 0, ("s", "t"): 0})
    assert _same_as_reference(zeros).value == 0
    # caps 1/p for the 25 primes below 100: the common denominator exceeds 2^120
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    assert len(primes) == 25 and prod(primes) > 2**120
    arcs = {}
    for p, q in zip(primes, primes[1:] + primes[:1]):
        arcs[("s", f"p{p}")] = Fraction(1, p)
        arcs[(f"p{p}", "m")] = None
        arcs[(f"p{p}", "t")] = Fraction(1, 2 * q)
    arcs[("m", "t")] = Fraction(1, 3)
    reciprocal = simple_net(arcs)
    assert _same_as_reference(reciprocal).value.denominator > 2**60
    # integral caps, a start in sevenths that ships 2/7 too much on a source
    # arc and on a sink arc
    sevenths = simple_net({
        ("s", "a"): 3, ("s", "b"): 2, ("a", "c"): 2, ("b", "c"): 2, ("a", "t"): 1, ("c", "t"): 3,
    })
    start = Flow(
        values={
            ("s", "a"): Fraction(9, 7), ("s", "b"): Fraction(3, 7), ("a", "c"): Fraction(5, 7),
            ("b", "c"): Fraction(3, 7), ("a", "t"): Fraction(4, 7), ("c", "t"): Fraction(8, 7),
        },
        value=Fraction(12, 7),
    )
    assert _same_as_reference(sevenths, start).value == 4
    lowered = sevenths.with_caps({("s", "a"): 1, ("c", "t"): Fraction(6, 7)})
    assert _same_as_reference(lowered, start).value == Fraction(13, 7)


@pytest.mark.parametrize("bad", [0.1, "1/3", True])
def test_caps_must_be_ints_or_fractions(bad):
    # 0.1 would become 3602879701896397/36028797018963968, and True a cap of 1
    with pytest.raises(FlowError, match=re.escape("arc ('s', 'a'): capacity")):
        simple_net({("s", "a"): bad, ("a", "t"): 2})
    net = simple_net({("s", "a"): 3, ("a", "t"): 2})
    with pytest.raises(FlowError, match=re.escape("arc ('a', 't'): capacity")):
        net.with_caps({("a", "t"): bad})


@pytest.mark.parametrize("bad", [0.5, "1", 0.1, "1/3", True])
def test_warm_start_rejects_values_that_are_not_rational(bad):
    net = simple_net({("s", "a"): 3, ("a", "t"): 2})
    on_arc = Flow(values={("s", "a"): bad, ("a", "t"): Fraction(1, 2)}, value=Fraction(1, 2))
    with pytest.raises(FlowError, match=re.escape("arc ('s', 'a')")):
        max_flow(net, start=on_arc)
    with pytest.raises(FlowError, match=re.escape("arc ('s', 'a'): flow")):
        min_cut(net, on_arc)
    as_value = Flow(values={("s", "a"): Fraction(1, 2), ("a", "t"): Fraction(1, 2)}, value=bad)
    with pytest.raises(FlowError, match="start value"):
        max_flow(net, start=as_value)


def _same_decomposition_as_reference(net: FlowNetwork, flow: Flow) -> int:
    combo = decompose_max_flow(net, flow)
    reference = reference_decompose_max_flow(net, flow)
    assert [(list(m.values.items()), m.value, w) for m, w in combo.entries] == [
        (list(m.values.items()), m.value, w) for m, w in reference.entries
    ]
    return len(combo.entries)


def _relabeled_max_flow(net: FlowNetwork, rng: random.Random) -> Flow:
    """An integral maximum flow of ``net`` found with its inner nodes renamed in
    a random order: the search visits neighbors in name order, so it takes
    other paths."""
    inner = [node for node in net.neighbors if node not in (net.source, net.sink)]
    rename = {net.source: net.source, net.sink: net.sink}
    rename.update((node, f"x{k:02d}") for node, k in zip(inner, rng.sample(range(len(inner)), len(inner))))
    back = {new: old for old, new in rename.items()}
    renamed = FlowNetwork(net.source, net.sink, {(rename[u], rename[v]): cap for (u, v), cap in net.arcs.items()})
    flow = max_flow(renamed)
    return Flow(values={(back[u], back[v]): x for (u, v), x in flow.values.items()}, value=flow.value)


@pytest.mark.parametrize("chunk", range(10))
def test_scaled_decomposition_matches_fraction_reference(chunk):
    # 300 layered integer-cap networks; each flow mixes 3-5 integral maximum
    # flows at random weights over a common denominator of up to 16. Peeling on
    # ints picks the same boxes, members and weights as peeling on Fractions
    rounds = []
    for seed in range(30 * chunk, 30 * chunk + 30):
        rng = random.Random(f"peel/{seed}")
        net = _layered_network(rng, max_denominator=1)
        solved = [_relabeled_max_flow(net, rng) for _ in range(rng.randint(3, 5))]
        denominator = rng.randint(len(solved), 16)
        cuts = sorted(rng.sample(range(1, denominator), len(solved) - 1))
        weights = [Fraction(b - a, denominator) for a, b in zip([0, *cuts], [*cuts, denominator])]
        mixed = Flow(
            values={arc: sum((w * f.values[arc] for f, w in zip(solved, weights)), Fraction(0)) for arc in net.arcs},
            value=solved[0].value,
        )
        rounds.append(_same_decomposition_as_reference(net, mixed))
    assert max(rounds) >= 4 and sum(r >= 3 for r in rounds) >= 10


@pytest.mark.parametrize("member", MEMBERS, ids=[f"golden-{seed}" for seed, _, _ in MEMBERS])
def test_scaled_decomposition_matches_reference_on_golden_lotteries(member):
    construction = build_indivisible(seeded_instance(*member))
    _same_decomposition_as_reference(construction.network, egalitarian_profile(construction).flow)


@pytest.mark.parametrize(
    "build, seed, n, family",
    [
        pytest.param(build, seed, n, {}, id=f"{seed}-{n}-{build.__name__}")
        for seed, n in [(1, 40), (2, 48), (3, 64), (4, 80)]
        for build in (build_indivisible, build_divisible)
    ]
    # capacitated instances, where edge caps bind (the indivisible rule refuses caps)
    + [pytest.param(build_divisible, seed, 60, {"max_cap": 3}, id=f"caps-{seed}-60") for seed in range(1, 7)]
    + [
        pytest.param(build, seed, 80, {"max_peak": 60}, id=f"peaks60-{seed}-80-{build.__name__}")
        for seed in (1, 2, 3)
        for build in (build_indivisible, build_divisible)
    ],
)
def test_warm_fill_matches_cold_fill_at_scale(build, seed, n, family):
    # every probe after the first starts from the probe before it and runs on
    # integer caps; the fill that solves each probe from zero on Fraction caps
    # and deficits must give the same profile and events
    inst = seeded_instance(seed, n, 3, **family)
    construction = build(inst)
    warm = egalitarian_profile(construction)
    cold = reference_egalitarian_profile(construction)
    assert warm == cold
    assert warm.breakpoints == cold.breakpoints
    if inst.capacities:
        uncapped = Instance.build(inst.name, list(inst.peaks.items()), list(inst.edges))
        assert egalitarian_profile(build(uncapped)) != warm


def _fill_chain(construction) -> list[tuple[FlowNetwork, Flow | None]]:
    """Every network the fill solves and the flow it starts from, in order."""
    chain = []
    original = mechanism.max_flow

    def recorded(net, start=None):
        chain.append((net, start))
        return original(net, start)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mechanism, "max_flow", recorded)
        egalitarian_profile(construction)
    return chain


@pytest.mark.parametrize(
    "build, seed, n",
    [(build, seed, n) for seed in (1, 2) for n in (80, 160) for build in (build_indivisible, build_divisible)
     if (seed, n, build) != (2, 160, build_indivisible)],
)
def test_indexed_engine_matches_fraction_reference_over_fill_chains(build, seed, n):
    # the fill's whole probe chain at scale, its first probe cold and every
    # later one warm: the indexed engine takes the Fraction reference's
    # augmenting paths and bottlenecks, in order, and gives its flow (key order
    # included), value and cut, and the same two cuts of that flow. The fourth
    # fill at n=160 would add about 1 s; it is filled, and scale-checked, below
    chain = _fill_chain(build(seeded_instance(seed, n, 3)))
    assert chain[0][1] is None and all(start is not None for _, start in chain[1:])
    for net, start in chain:
        flow = _same_as_reference(net, start)
        assert min_cut(net, flow) == flow.cut
        reaches_sink = reference_search(net, net.arcs, flow.values, backward=True)
        assert maximal_min_cut(net, flow) == net.neighbors.keys() - reaches_sink.keys()


@pytest.mark.parametrize("build", [build_indivisible, build_divisible])
@pytest.mark.parametrize("seed", [1, 2])
def test_fill_probes_solve_on_the_least_scale(build, seed):
    # each probe's network is a copy of a copy of the construction's, and a
    # copy keeps no denominator of a cap it replaced: before this, the chains
    # here carried scales of 20-23 bits where 8-10 were enough
    for net, _ in _fill_chain(build(seeded_instance(seed, 160, 3))):
        assert net.scaled_caps[0] == lcm(*(cap.denominator for cap in net.arcs.values() if cap is not None))


def test_certificate_rejects_a_flow_one_path_short(monkeypatch):
    # the solver's last augmenting search is made to miss the sink: the flow is
    # feasible, and the cut certificate refuses it because no cut is that small
    short = simple_net({("s", "t"): 3})
    scale, caps, values, total = flows._scaled(short, Flow({("s", "t"): Fraction(2)}, Fraction(2)))
    with pytest.raises(FlowError, match="not maximum"):
        flows._certify(short, caps, values, total, scale, side=[True, False])
    flows._certify(short, caps, [3, 0], 3, scale, side=[True, False])
    original = flows._search
    refused = 0
    for seed in range(60):
        net = _layered_network(random.Random(f"short/{seed}"), max_denominator=12)
        counts = {"searches": 0}

        def counted(*args, **kwargs):
            counts["searches"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(flows, "_search", counted)
        if max_flow(net).value == 0:
            continue
        last_augmenting = counts["searches"] - 1

        def missing_the_sink(*args, **kwargs):
            counts["searches"] += 1
            parent = original(*args, **kwargs)
            if counts["searches"] == last_augmenting:
                parent[net.index.sink] = None
            return parent

        counts["searches"] = 0
        monkeypatch.setattr(flows, "_search", missing_the_sink)
        with pytest.raises(FlowError, match="not maximum"):
            max_flow(net)
        refused += 1
    assert refused >= 40


def _verdict(check, net: FlowNetwork, flow: Flow) -> str | None:
    try:
        check(net, flow)
    except FlowError as exc:
        return str(exc)
    return None


def _int_check(net: FlowNetwork, flow: Flow) -> None:
    scale, caps, values, total = flows._scaled(net, flow)
    flows._certify(net, caps, values, total, scale)


@pytest.mark.parametrize("chunk", range(4))
def test_int_check_gives_the_fraction_verdict(chunk):
    # feasible flows (maximum ones, sparse ones, ones a path short) and flows
    # broken in one way each: the check on scaled ints raises exactly when the
    # Fraction check does, with the same message
    verdicts = {"feasible": 0, "infeasible": 0}
    for seed in range(50 * chunk, 50 * chunk + 50):
        rng = random.Random(f"verdict/{seed}")
        net = _layered_network(rng, max_denominator=12)
        flow = reference_max_flow(net)
        arcs = list(net.arcs)
        arc = rng.choice(arcs)
        nudge = Fraction(rng.randint(1, 5), rng.randint(1, 13))
        candidates = [
            flow,
            Flow({a: x for a, x in flow.values.items() if x}, flow.value),
            Flow({**flow.values, arc: flow.values[arc] + nudge}, flow.value),
            Flow({**flow.values, arc: -nudge}, flow.value),
            Flow({**flow.values, arc: net.arcs[arc] + nudge if net.arcs[arc] is not None else -1}, flow.value),
            Flow(flow.values, flow.value + nudge),
            Flow({**flow.values, (arc[1], arc[0]): Fraction(0)}, flow.value),
        ]
        path = [a for a in arcs if a[0] == "s" and flow.values[a]]
        if path:
            # half the smallest flow taken off one flow path: still feasible
            tail, head = path[0]
            walk = [(tail, head)]
            while head != "t":
                head = next(v for (u, v) in arcs if u == head and flow.values[(u, v)])
                walk.append((walk[-1][1], head))
            amount = min(flow.values[a] for a in walk) / 2
            candidates.append(
                Flow({a: x - amount if a in walk else x for a, x in flow.values.items()}, flow.value - amount)
            )
        for candidate in candidates:
            expected = _verdict(reference_check_feasible, net, candidate)
            assert _verdict(_int_check, net, candidate) == expected
            verdicts["feasible" if expected is None else "infeasible"] += 1
    assert min(verdicts.values()) >= 100
