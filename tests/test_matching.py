import random
import re
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fairmatch import (
    BMatching,
    Instance,
    MatchingError,
    expand_nodes,
    ged_decompose,
    indivisible_outcome,
    max_bmatching,
    parse_instance,
    realize_targets,
)
from fairmatch import matching, mechanism
from fairmatch.matching import _fold, _maximum, gallai_edmonds_indices, maximum_matching_indices
from fairmatch.oracle import enumerate_bmatchings, pareto_profiles
from golden.record import FAMILY_MEMBERS, family_instance, star_instance

from helpers import (
    brute_force_max_matching_size,
    copy_adjacency,
    copy_nodes,
    deficiency_upper_bound,
    hub15_instance,
    indexed_graph,
    max_matching,
    path_instance,
    peaked_instances_up_to_iso,
    random_connected_instance,
    reference_gallai_edmonds,
    reference_ged_decompose,
    reference_max_bmatching,
    reference_maximum,
    reference_maximum_matching,
    triangle,
)


def _mate_size(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    mate = maximum_matching_indices(n, adj, [-1] * n)
    assert all(mate[mate[v]] == v for v in range(n) if mate[v] != -1)
    return sum(1 for v in range(n) if mate[v] != -1) // 2


def test_blossom_matches_brute_force_exhaustively_small():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for bits in product((0, 1), repeat=len(pairs)):
            edges = [p for p, bit in zip(pairs, bits) if bit]
            assert _mate_size(n, edges) == brute_force_max_matching_size(n, edges)


def test_blossom_matches_brute_force_random_graphs():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(6, 8)
        pairs = [p for p in combinations(range(n), 2) if rng.random() < 0.4]
        assert _mate_size(n, pairs) == brute_force_max_matching_size(n, pairs)


def _assert_engine_matches_reference(n, adj):
    mate = maximum_matching_indices(n, adj, [-1] * n)
    assert mate == reference_maximum_matching(n, adj)
    assert gallai_edmonds_indices(n, adj, mate) == reference_gallai_edmonds(n, adj, mate)


def test_engine_matches_reference_on_random_graphs():
    rng = random.Random(20261018)
    for _ in range(1000):
        n = rng.randint(2, 40)
        density = rng.choice((0.05, 0.1, 0.2, 0.4, 0.7))
        adj = [[] for _ in range(n)]
        for u, v in combinations(range(n), 2):
            if rng.random() < density:
                adj[u].append(v)
                adj[v].append(u)
        _assert_engine_matches_reference(n, adj)


def test_engine_matches_reference_on_copy_graphs():
    # copies of one agent are twins, and large peaks make blossoms plentiful
    rng = random.Random(20261019)
    for _ in range(60):
        inst = random_connected_instance(rng, max_nodes=8, max_peak=12)
        expanded = expand_nodes(inst.peaks, inst.edges)
        _, adj = indexed_graph(copy_nodes(expanded), expanded.edges)
        _assert_engine_matches_reference(len(adj), adj)


def _random_peaked_instance(rng):
    n = rng.randint(1, 9)
    density = rng.choice((0.2, 0.4, 0.7))
    return Instance.build(
        "random",
        [(f"v{i}", rng.randint(1, 15)) for i in range(n)],
        [(f"v{u}", f"v{v}") for u, v in combinations(range(n), 2) if rng.random() < density],
    )


def _reference_realizable(inst, targets):
    positive = [node for node in inst.nodes if targets[node] > 0]
    shrunk = inst.induced(positive).replace(peaks={node: targets[node] for node in positive})
    return reference_max_bmatching(shrunk).total_utility == sum(targets.values())


def test_reduced_expansion_matches_full_expansion():
    # the reduced copy graph against the peak-sized one, on the same blossom engine
    rng = random.Random(20261020)
    for _ in range(2000):
        inst = _random_peaked_instance(rng)
        ged = ged_decompose(inst)
        reference = reference_ged_decompose(inst)
        assert ged == reference
        assert ged.matching.total_utility == reference.matching.total_utility
        matched = max_bmatching(inst)
        matched.check_feasible(inst)
        assert matched.total_utility == reference.matching.total_utility
        if rng.random() < 0.5:
            # realizable: the degrees of a sub-b-matching of the reference's
            targets = BMatching(
                {edge: rng.randint(0, mult) for edge, mult in reference.matching.multiplicities.items()}
            ).utilities(inst)
        else:
            targets = {node: rng.randint(0, peak) for node, peak in inst.peaks.items()}
        realized = realize_targets(inst, targets)
        assert (realized is not None) == _reference_realizable(inst, targets)
        if realized is not None:
            realized.check_feasible(inst)
            assert realized.utilities(inst) == targets


def test_ged_matching_saturates_the_perfect_agents_internally():
    # Gallai-Edmonds: every maximum b-matching matches V^P perfectly inside V^P,
    # so the lottery takes its perfect part from the decomposition's matching
    rng = random.Random(20261021)
    for _ in range(1000):
        inst = _random_peaked_instance(rng)
        ged = ged_decompose(inst)
        degrees = dict.fromkeys(ged.perfect, 0)
        for (u, v), mult in ged.matching.multiplicities.items():
            if u in ged.perfect or v in ged.perfect:
                assert u in ged.perfect and v in ged.perfect
                degrees[u] += mult
                degrees[v] += mult
        assert degrees == {node: inst.peaks[node] for node in ged.perfect}


def test_decomposition_rejects_empty_matching_on_an_edge():
    with pytest.raises(MatchingError, match="not maximum"):
        gallai_edmonds_indices(2, [[1], [0]], [-1, -1])


def test_decomposition_rejects_trees_that_meet():
    # path a-b-c-d matched on b-c: the trees grown from a and d meet at c
    adj = [[1], [0, 2], [1, 3], [2]]
    with pytest.raises(MatchingError, match="not maximum"):
        gallai_edmonds_indices(4, adj, [-1, 2, 1, -1])


def test_fold_rejects_broken_mate_arrays():
    # nodes a, b, c -> 0, 1, 2; edges a-b, b-c -> 0, 1; copies a -> 0, b -> 1 and 2, c -> 3
    owner, nodes = [0, 1, 1, 2], ["a", "b", "c"]
    edge_of = {(0, 1): 0, (1, 0): 0, (1, 2): 1, (2, 1): 1}
    z = [0, 0]
    _fold(z, [1, 0, 3, 2], owner, edge_of, nodes)
    assert z == [1, 1]
    with pytest.raises(MatchingError, match="^mate array is not symmetric at copies 0 and 1$"):
        _fold([0, 0], [1, -1, -1, -1], owner, edge_of, nodes)
    with pytest.raises(MatchingError, match=re.escape("copies 0 and 3 are matched across non-edge ('a', 'c')")):
        _fold([0, 0], [3, -1, -1, 0], owner, edge_of, nodes)
    with pytest.raises(MatchingError, match=re.escape("copies 1 and 2 are matched across non-edge ('b', 'b')")):
        _fold([0, 0], [-1, 2, 1, -1], owner, edge_of, nodes)


def _assert_rounds_match_reference(peaks, edges):
    want, expanded, mate = reference_maximum(peaks, edges)
    assert list(_maximum(peaks, edges).multiplicities.items()) == list(want.multiplicities.items())
    return expanded, mate


def _families():
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import families

    return families


def _benchmark_instances():
    families = _families()
    for workload in ("mid-random", "big-peaks", "cli-small"):
        for base in families.family(workload):
            yield Instance.build(base.name, list(base.peaks.items()), list(base.edges))
        for shown in families.presentations(workload, 1):
            yield parse_instance(shown.text)


def _gate_instances():
    yield from _benchmark_instances()
    yield from (family_instance(*member) for member in FAMILY_MEMBERS)
    yield from (triangle((peak, peak, peak + 1)) for peak in (50, 10**6))
    yield star_instance(1)


def test_integer_rounds_match_the_string_rounds(monkeypatch):
    # the same b-matching, in the same order, and the decomposition reads the
    # reference's last round graph and mate array
    read = []
    original = matching.gallai_edmonds_indices
    monkeypatch.setattr(
        matching, "gallai_edmonds_indices", lambda n, adj, mate: read.append((adj, mate)) or original(n, adj, mate)
    )
    for inst in _gate_instances():
        expanded, mate = _assert_rounds_match_reference(inst.peaks, inst.edges)
        ged_decompose(inst)
        assert read.pop() == (expanded.adj, mate), inst.name


def test_integer_rounds_match_the_string_rounds_on_realized_targets(monkeypatch):
    # every component target the lottery realizes on mid-random's seed-1 presentations
    realized = []
    original = mechanism._realize
    monkeypatch.setattr(
        mechanism, "_realize", lambda targets, edges: realized.append((targets, edges)) or original(targets, edges)
    )
    for shown in _families().presentations("mid-random", 1):
        indivisible_outcome(parse_instance(shown.text))
    assert len(realized) >= 20
    for targets, edges in realized:
        _assert_rounds_match_reference(targets, edges)


@st.composite
def _peaked_graphs(draw):
    n = draw(st.integers(1, 8))
    peaks = {f"v{i}": draw(st.integers(0, 9)) for i in range(n)}
    pairs = list(combinations(sorted(peaks), 2))
    edges = tuple(pair for pair in pairs if draw(st.booleans()))
    return peaks, draw(st.permutations(edges))


@given(_peaked_graphs())
@settings(max_examples=300, deadline=None)
def test_integer_rounds_match_the_string_rounds_with_zero_peaks(graph):
    # zero peaks and isolated nodes give nodes without copies
    peaks, edges = graph
    _assert_rounds_match_reference(peaks, tuple(edges))


def test_decomposition_rejects_copies_that_disagree(monkeypatch):
    # a keeps one matched and one exposed copy, 0 and 1; only the first is reported avoidable
    monkeypatch.setattr("fairmatch.matching.gallai_edmonds_indices", lambda n, adj, mate: {0})
    with pytest.raises(MatchingError, match="copies of 'a' disagree"):
        ged_decompose(Instance.build("e", [("a", 2), ("b", 1)], [("a", "b")]))


def test_max_matching_triangle_size_one(tri):
    assert len(max_matching(tri)) == 1


def test_max_matching_seven_path(path7):
    matching = max_matching(path7)
    assert len(matching) == 3


def test_max_matching_empty_edges():
    inst = Instance.build("lonely", [("a", 1), ("b", 1)], [])
    assert max_matching(inst) == frozenset()


def test_max_matching_rejects_peaks(hub15):
    with pytest.raises(MatchingError, match="unit peaks"):
        max_matching(hub15)


def test_max_bmatching_triangle_total_two(tri):
    assert max_bmatching(tri).total_utility == 2


def test_max_bmatching_single_node():
    inst = Instance.build("one", [("a", 3)], [])
    assert max_bmatching(inst).total_utility == 0


def _expanded_components_without(expanded, removed):
    adjacency = copy_adjacency(expanded)
    remaining = [c for c in copy_nodes(expanded) if c not in removed]
    seen = set()
    components = []
    for start in remaining:
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            node = stack.pop()
            if node in comp:
                continue
            comp.add(node)
            stack.extend(n for n in adjacency[node] if n not in removed and n not in comp)
        seen |= comp
        components.append(comp)
    return components


def test_max_bmatching_hub15_total_34_with_certificate(hub15):
    matched = max_bmatching(hub15)
    matched.check_feasible(hub15)
    assert matched.total_utility == 34
    # Berge-Tutte witness independent of the solver: removing all copies of
    # {s6, s7} leaves 13 odd components among 33 copies, so no matching
    # exceeds (40 - (13 - 7)) / 2 = 17 edges = 34 utility.
    expanded = expand_nodes(hub15.peaks, hub15.edges)
    witness = {c for node in ("s6", "s7") for c in expanded.copies[node]}
    components = _expanded_components_without(expanded, witness)
    odd = sum(1 for comp in components if len(comp) % 2)
    assert odd == 13 and len(witness) == 7
    bound = deficiency_upper_bound(len(copy_nodes(expanded)), odd, len(witness))
    assert matched.total_utility == 2 * bound


def test_expanded_and_bmatching_maxima_agree_small():
    for inst in peaked_instances_up_to_iso(max_nodes=3, max_peak=3):
        expanded = expand_nodes(inst.peaks, inst.edges)
        index = {c: i for i, c in enumerate(copy_nodes(expanded))}
        pairs = [(index[u], index[v]) for u, v in expanded.edges]
        brute = brute_force_max_matching_size(len(index), pairs)
        oracle_best = max(
            (m.total_utility for m in enumerate_bmatchings(inst)), default=0
        )
        assert 2 * brute == oracle_best == max_bmatching(inst).total_utility


def test_ged_hub15_classes(hub15):
    ged = ged_decompose(hub15)
    assert ged.over == {"s6", "s7"}
    assert ged.under == {"s1", "s2", "s3", "s4", "s5", "s8"}
    assert ged.perfect == {f"s{i}" for i in range(9, 16)}
    assert ged.odd_components == (("s1", "s2", "s3"), ("s4",), ("s5",), ("s8",))
    assert ged.internal_caps == (6, None, None, None)


def test_ged_seven_path(path7):
    ged = ged_decompose(path7)
    assert ged.under == {"s1", "s3", "s5", "s7"}
    assert ged.over == {"s2", "s4", "s6"}
    assert ged.perfect == frozenset()


def test_ged_unit_triangle_single_odd_component(tri):
    ged = ged_decompose(tri)
    assert ged.under == {"a", "b", "c"}
    assert ged.over == frozenset() and ged.perfect == frozenset()
    assert ged.odd_components == (("a", "b", "c"),)
    assert ged.internal_caps == (2,)


def _oracle_ged(inst):
    profiles = pareto_profiles(inst).profiles
    order = inst.nodes
    under = {
        node
        for i, node in enumerate(order)
        if any(p[i] < inst.peaks[node] for p in profiles)
    }
    adjacency = inst.adjacency()
    over = {
        node
        for node in order
        if node not in under and any(nbr in under for nbr in adjacency[node])
    }
    return under, over, set(order) - under - over


@pytest.mark.parametrize("seed", range(40))
def test_ged_agrees_with_enumeration_oracle(seed, monkeypatch):
    monkeypatch.setenv("FAIRMATCH_ORACLE_LIMIT", "20")
    inst = random_connected_instance(random.Random(seed), max_nodes=6, max_peak=3)
    ged = ged_decompose(inst)
    under, over, perfect = _oracle_ged(inst)
    assert ged.under == under
    assert ged.over == over
    assert ged.perfect == perfect


def test_over_demanded_saturated_in_every_maximum(hub15):
    for inst in peaked_instances_up_to_iso(max_nodes=4, max_peak=2):
        ged = ged_decompose(inst)
        profiles = pareto_profiles(inst).profiles
        for i, node in enumerate(inst.nodes):
            if node in ged.over or node in ged.perfect:
                assert all(p[i] == inst.peaks[node] for p in profiles)


def test_odd_component_internal_capacity_matches_oracle():
    for inst in peaked_instances_up_to_iso(max_nodes=5, max_peak=2):
        ged = ged_decompose(inst)
        for k, comp in enumerate(ged.odd_components):
            if len(comp) < 2:
                continue
            best = max(
                m.total_utility for m in enumerate_bmatchings(inst.induced(comp))
            )
            assert best == ged.internal_caps[k] == sum(inst.peaks[v] for v in comp) - 1


def test_realize_targets_triangle_forced_edge(tri):
    matched = realize_targets(tri, {"a": 1, "b": 1, "c": 0})
    assert matched is not None
    assert matched.multiplicities == {("a", "b"): 1}


def test_realize_targets_triangle_all_ones_infeasible(tri):
    # The odd-component bound caps internal utility at 2.
    assert realize_targets(tri, {"a": 1, "b": 1, "c": 1}) is None


def test_realize_targets_hub15_concrete(hub15):
    targets = {"s1": 2, "s2": 3, "s3": 2, "s4": 2, "s5": 2, "s6": 5, "s7": 2, "s8": 2}
    targets.update({f"s{i}": 2 for i in range(9, 16)})
    matched = realize_targets(hub15, targets)
    assert matched is not None
    assert matched.utilities(hub15) == targets


def test_realize_targets_validation(tri):
    assert realize_targets(tri, {"a": 1, "b": 0, "c": 0}) is None  # odd total
    with pytest.raises(MatchingError, match="exceeds peak"):
        realize_targets(tri, {"a": 2, "b": 0, "c": 0})
    with pytest.raises(MatchingError, match="cover"):
        realize_targets(tri, {"a": 1})
    with pytest.raises(MatchingError, match="node 'b': target must be a nonnegative integer"):
        realize_targets(tri, {"a": 1, "b": -1, "c": 0})
    capped = Instance.build("capped", [("a", 1), ("b", 1)], [("a", "b", 1)])
    with pytest.raises(MatchingError, match="realize_targets requires an uncapacitated instance"):
        realize_targets(capped, {"a": 1, "b": 1})


def test_realize_targets_refuses_bool_targets(tri):
    with pytest.raises(MatchingError, match="node 'a': target must be a nonnegative integer"):
        realize_targets(tri, {"a": True, "b": True, "c": False})


@pytest.mark.parametrize("seed", range(25))
def test_realize_targets_hits_every_enumerated_profile(seed):
    inst = random_connected_instance(random.Random(100 + seed), max_nodes=5, max_peak=2)
    for matching in enumerate_bmatchings(inst):
        targets = matching.utilities(inst)
        realized = realize_targets(inst, targets)
        assert realized is not None
        assert realized.utilities(inst) == targets
