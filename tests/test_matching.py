import random
from itertools import combinations, product

import pytest

from fairmatch import (
    BMatching,
    Instance,
    MatchingError,
    expand_nodes,
    ged_decompose,
    max_bmatching,
    realize_targets,
)
from fairmatch.matching import _contract, gallai_edmonds_indices, maximum_matching_indices
from fairmatch.oracle import enumerate_bmatchings, pareto_profiles

from helpers import (
    brute_force_max_matching_size,
    copy_adjacency,
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
    reference_maximum_matching,
    triangle,
)


def _mate_size(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    mate = maximum_matching_indices(n, adj)
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
    mate = maximum_matching_indices(n, adj)
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
        expanded = expand_nodes(inst)
        _, adj = indexed_graph(expanded.copy_nodes, expanded.edges)
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


def test_decomposition_rejects_empty_matching_on_an_edge():
    with pytest.raises(MatchingError, match="not maximum"):
        gallai_edmonds_indices(2, [[1], [0]], [-1, -1])


def test_decomposition_rejects_trees_that_meet():
    # path a-b-c-d matched on b-c: the trees grown from a and d meet at c
    adj = [[1], [0, 2], [1, 3], [2]]
    with pytest.raises(MatchingError, match="not maximum"):
        gallai_edmonds_indices(4, adj, [-1, 2, 1, -1])


def test_fold_rejects_broken_mate_arrays():
    # copies: a -> 0, b -> 1 and 2, c -> 3
    inst = Instance.build("p", [("a", 1), ("b", 2), ("c", 1)], [("a", "b"), ("b", "c")])
    expanded, edges = expand_nodes(inst), set(inst.edges)
    assert _contract(expanded, [1, 0, 3, 2], edges) == {("a", "b"): 1, ("b", "c"): 1}
    with pytest.raises(MatchingError, match="not symmetric"):
        _contract(expanded, [1, -1, -1, -1], edges)
    with pytest.raises(MatchingError, match="non-edge"):
        _contract(expanded, [3, -1, -1, 0], edges)
    with pytest.raises(MatchingError, match="non-edge"):
        _contract(expanded, [-1, 2, 1, -1], edges)


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
    remaining = [c for c in expanded.copy_nodes if c not in removed]
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
    expanded = expand_nodes(hub15)
    witness = {c for node in ("s6", "s7") for c in expanded.copies[node]}
    components = _expanded_components_without(expanded, witness)
    odd = sum(1 for comp in components if len(comp) % 2)
    assert odd == 13 and len(witness) == 7
    bound = deficiency_upper_bound(len(expanded.copy_nodes), odd, len(witness))
    assert matched.total_utility == 2 * bound


def test_expanded_and_bmatching_maxima_agree_small():
    for inst in peaked_instances_up_to_iso(max_nodes=3, max_peak=3):
        expanded = expand_nodes(inst)
        index = {c: i for i, c in enumerate(expanded.copy_nodes)}
        pairs = [(index[u], index[v]) for u, v in expanded.edges]
        brute = brute_force_max_matching_size(len(index), pairs)
        oracle_best = max(
            (m.total_utility for m in enumerate_bmatchings(inst, limit=12)), default=0
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
    profiles = pareto_profiles(inst, limit=20).profiles
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
def test_ged_agrees_with_enumeration_oracle(seed):
    inst = random_connected_instance(random.Random(seed), max_nodes=6, max_peak=3)
    ged = ged_decompose(inst)
    under, over, perfect = _oracle_ged(inst)
    assert ged.under == under
    assert ged.over == over
    assert ged.perfect == perfect


def test_over_demanded_saturated_in_every_maximum(hub15):
    for inst in peaked_instances_up_to_iso(max_nodes=4, max_peak=2):
        ged = ged_decompose(inst)
        profiles = pareto_profiles(inst, limit=8).profiles
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
                m.total_utility for m in enumerate_bmatchings(inst.induced(comp), limit=10)
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


@pytest.mark.parametrize("seed", range(25))
def test_realize_targets_hits_every_enumerated_profile(seed):
    inst = random_connected_instance(random.Random(100 + seed), max_nodes=5, max_peak=2)
    for matching in enumerate_bmatchings(inst, limit=10):
        targets = matching.utilities(inst)
        realized = realize_targets(inst, targets)
        assert realized is not None
        assert realized.utilities(inst) == targets
