import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from fairmatch import (
    BMatching,
    ExpansionError,
    Instance,
    InstanceError,
    UtilityProfile,
    canonical_edge,
    expand_nodes,
    format_rational,
    ged_decompose,
    max_bmatching,
    parse_instance,
)
from fairmatch.oracle import enumerate_bmatchings

from helpers import (
    contract_matching,
    copy_nodes,
    hub15_json,
    indexed_graph,
    parent,
    peaked_instances_up_to_iso,
    triangle,
)


def test_parse_triangle_echoes_input(triangle_file):
    inst = parse_instance(open(triangle_file).read())
    assert inst.nodes == ("a", "b", "c")
    assert set(inst.edges) == {("a", "b"), ("b", "c"), ("a", "c")}
    assert inst.peaks == {"a": 1, "b": 1, "c": 1}
    assert inst.is_uncapacitated


def test_parse_hub15_file():
    inst = parse_instance(json.dumps(hub15_json()))
    assert len(inst.nodes) == 15
    assert len(inst.edges) == 18
    assert [inst.peaks[f"s{i}"] for i in range(1, 16)] == [2, 3, 2, 4, 4, 5, 2, 4, 2, 2, 2, 2, 2, 2, 2]


def test_parse_self_loop_rejected():
    text = json.dumps({"name": "bad", "nodes": [{"id": "a", "peak": 1}], "edges": [{"u": "a", "v": "a"}]})
    with pytest.raises(InstanceError, match="self-loop"):
        parse_instance(text)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["nodes"].append({"id": "a", "peak": 1}), "duplicate node id"),
        (lambda d: d["edges"].append({"u": "a", "v": "b"}), "duplicate edge"),
        (lambda d: d["nodes"][0].update(peak=0), "positive integer"),
        (lambda d: d["nodes"][0].update(peak=-2), "positive integer"),
        (lambda d: d["nodes"][0].update(peak=1.5), "positive integer"),
        (lambda d: d["edges"].append({"u": "a", "v": "zz"}), "not a declared node"),
        (lambda d: d["edges"][0].update(cap=0), "capacity must be a positive integer"),
        (lambda d: d["nodes"][0].pop("peak"), r"nodes\[0\]"),
        (lambda d: d.update(name=3), "field 'name' must be a string"),
        (lambda d: d.update(nodes={"a": 1}), "field 'nodes' must be a list"),
        (lambda d: d.update(edges={"u": "a", "v": "b"}), "field 'edges' must be a list"),
        (lambda d: d["nodes"][0].update(id=""), r"nodes\[0\]\.id: must be a non-empty string"),
        (lambda d: d["nodes"][1].update(id=7), r"nodes\[1\]\.id: must be a non-empty string"),
        (lambda d: d["edges"][0].pop("v"), r"edges\[0\]: expected an object with 'u' and 'v'"),
        (lambda d: d["edges"][0].update(u=1), r"edges\[0\]: endpoints must be strings"),
    ],
)
def test_parse_validation_errors(mutate, message):
    data = {
        "name": "t",
        "nodes": [{"id": "a", "peak": 1}, {"id": "b", "peak": 2}],
        "edges": [{"u": "a", "v": "b"}],
    }
    mutate(data)
    with pytest.raises(InstanceError, match=message):
        parse_instance(json.dumps(data))


@pytest.mark.parametrize("text", ["[]", "3", '"triangle"', "null"])
def test_parse_rejects_a_non_object_file(text):
    with pytest.raises(InstanceError, match="instance file must be a JSON object"):
        parse_instance(text)


def test_parse_syntax_error_reports_location():
    with pytest.raises(InstanceError, match="line 1"):
        parse_instance("{not json")


def test_edges_are_canonicalized():
    inst = Instance.build("t", [("b", 1), ("a", 1)], [("b", "a")])
    assert inst.edges == (("a", "b"),)
    assert canonical_edge("z", "a") == ("a", "z")


def test_json_round_trip():
    inst = Instance.build("caps", [("a", 2), ("b", 3)], [("a", "b", 2)])
    again = parse_instance(json.dumps(inst.to_json_dict()))
    assert again == inst
    assert again.capacities == {("a", "b"): 2}


def test_expand_unit_triangle_is_identity_shaped(tri):
    expanded = expand_nodes(tri.peaks, tri.edges)
    assert copy_nodes(expanded) == ("a#1", "b#1", "c#1")
    assert len(expanded.edges) == 3


def test_expand_single_edge_mixed_peaks():
    inst = Instance.build("e", [("a", 2), ("b", 1)], [("a", "b")])
    expanded = expand_nodes(inst.peaks, inst.edges)
    assert expanded.copies == {"a": ("a#1", "a#2"), "b": ("b#1",)}
    assert set(expanded.edges) == {("a#1", "b#1"), ("a#2", "b#1")}


def test_expand_hub15_copy_count_is_peak_sum(hub15):
    expanded = expand_nodes(hub15.peaks, hub15.edges)
    assert sum(hub15.peaks.values()) == 40
    assert len(copy_nodes(expanded)) == 40
    for node, copies in expanded.copies.items():
        assert len(copies) == hub15.peaks[node]


def _eager_expansion(inst):
    # the string expansion built eagerly from names: the reference for the lazy view
    copies = {node: tuple(f"{node}#{k}" for k in range(1, peak + 1)) for node, peak in inst.peaks.items()}
    edges = tuple(
        canonical_edge(cu, cv) for u, v in inst.edges for cu in copies[u] for cv in copies[v]
    )
    return copies, edges


def test_integer_expansion_matches_its_string_view():
    # labels whose sort order differs from the node order, edges in no order,
    # and peaks above 9, so that "n7#10" sorts before "n7#2"
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(1, 9)
        labels = rng.sample(range(100), n)
        density = rng.choice((0.2, 0.4, 0.7))
        edges = [(f"n{u}", f"n{v}") for u, v in combinations(labels, 2) if rng.random() < density]
        rng.shuffle(edges)
        inst = Instance.build("random", [(f"n{label}", rng.randint(1, 15)) for label in labels], edges)
        expanded = expand_nodes(inst.peaks, inst.edges)
        names = copy_nodes(expanded)
        assert expanded.adj == indexed_graph(names, expanded.edges)[1]
        assert (expanded.copies, expanded.edges) == _eager_expansion(inst)
        assert [parent(expanded, copy) for copy in names] == expanded.owner
        for node, span in expanded.indices.items():
            assert [names[c] for c in span] == list(expanded.copies[node])


def test_expand_rejects_capacitated():
    # expand_nodes takes no capacities; the b-matching entry points refuse them
    inst = Instance.build("c", [("a", 1), ("b", 1)], [("a", "b", 1)])
    for run in (max_bmatching, ged_decompose):
        with pytest.raises(ExpansionError, match="'c' has finite edge capacities; expansion is unsupported"):
            run(inst)


def test_expanded_copies_of_same_node_never_adjacent():
    inst = Instance.build("m", [("a", 3), ("b", 2)], [("a", "b")])
    expanded = expand_nodes(inst.peaks, inst.edges)
    for u, v in expanded.edges:
        assert parent(expanded, u) != parent(expanded, v)


def test_copy_parent_rejects_names_outside_the_expansion():
    expanded = expand_nodes({"a": 2, "b": 1}, (("a", "b"),))
    assert parent(expanded, "a#2") == "a"
    for name in ("a#7", "a#3", "a#0", "a#01", "a", "c#1", "#1"):
        with pytest.raises(InstanceError, match="not a copy node"):
            parent(expanded, name)


def test_contract_empty_matching(tri):
    assert contract_matching(expand_nodes(tri.peaks, tri.edges), []).multiplicities == {}


def test_contract_doubled_edge():
    inst = Instance.build("e", [("a", 2), ("b", 2)], [("a", "b")])
    expanded = expand_nodes(inst.peaks, inst.edges)
    matched = contract_matching(expanded, [("a#1", "b#1"), ("a#2", "b#2")])
    assert matched.multiplicities == {("a", "b"): 2}
    assert matched.utilities(inst) == {"a": 2, "b": 2}


def test_contract_rejects_reused_copy():
    inst = Instance.build("p", [("a", 1), ("b", 2), ("c", 1)], [("a", "b"), ("b", "c")])
    expanded = expand_nodes(inst.peaks, inst.edges)
    with pytest.raises(InstanceError, match="matched twice"):
        contract_matching(expanded, [("a#1", "b#1"), ("b#1", "c#1")])


def _lift(expanded, matching: BMatching):
    counters = {node: iter(copies) for node, copies in expanded.copies.items()}
    pairs = []
    for (u, v), mult in matching.multiplicities.items():
        for _ in range(mult):
            pairs.append((next(counters[u]), next(counters[v])))
    return pairs


def test_round_trip_exhaustive_small_instances():
    # Every b-matching lifts to an expanded matching contracting back to itself,
    # and contraction of any expanded matching is feasible.
    for inst in peaked_instances_up_to_iso(max_nodes=4, max_peak=3):
        expanded = expand_nodes(inst.peaks, inst.edges)
        for matching in enumerate_bmatchings(inst):
            lifted = _lift(expanded, matching)
            back = contract_matching(expanded, lifted)
            back.check_feasible(inst)
            assert back.multiplicities == matching.multiplicities


@pytest.mark.parametrize("bad", [True, False, -1, 1.0, "1"])
def test_bmatching_multiplicities_must_be_nonnegative_ints(bad):
    with pytest.raises(InstanceError, match=r"edge \('a', 'b'\): multiplicity must be a nonnegative integer"):
        BMatching({("a", "b"): bad})


def test_check_feasible_rejects_non_edges_and_multiplicities_over_caps():
    capped = Instance.build("caps", [("a", 3), ("b", 3), ("c", 1)], [("a", "b", 2), ("b", "c")])
    BMatching({("a", "b"): 2, ("b", "c"): 1}).check_feasible(capped)
    with pytest.raises(InstanceError, match=r"multiplicity on non-edge \('a', 'c'\)"):
        BMatching({("a", "c"): 1}).check_feasible(capped)
    with pytest.raises(InstanceError, match=r"edge \('a', 'b'\): multiplicity 3 exceeds capacity 2"):
        BMatching({("a", "b"): 3}).check_feasible(capped)


def test_utility_profile_validation():
    profile = UtilityProfile({"a": Fraction(2, 3), "b": Fraction(2, 3), "c": Fraction(2, 3)})
    assert profile.total == 2
    with pytest.raises(InstanceError):
        UtilityProfile({"a": Fraction(-1)})


@pytest.mark.parametrize("bad", [0.1, "1/3", True])
def test_utility_profile_values_must_be_ints_or_fractions(bad):
    with pytest.raises(InstanceError, match="node 'b': utility .* is not an int or a Fraction"):
        UtilityProfile({"a": Fraction(1, 3), "b": bad})


def test_utility_profile_shares_equal_values():
    # kept profiles hold one Fraction per distinct value, and ints become Fractions
    profile = UtilityProfile({"a": Fraction(2, 3), "b": Fraction(4, 6), "c": 1, "d": Fraction(1)})
    assert profile["a"] is profile["b"] and profile["c"] is profile["d"]
    assert type(profile["c"]) is Fraction and profile["c"] == 1


def test_rational_formatting():
    assert format_rational(Fraction(7, 3)) == "7/3"
    assert format_rational(Fraction(2)) == "2/1"
    assert format_rational(Fraction(4, 6)) == "2/3"


def test_induced_subinstance(hub15):
    sub = hub15.induced(["s1", "s2", "s3"])
    assert set(sub.nodes) == {"s1", "s2", "s3"}
    assert set(sub.edges) == {("s1", "s2"), ("s2", "s3"), ("s1", "s3")}
    capped = Instance.build(
        "caps",
        [("a", 2), ("b", 3), ("c", 1), ("d", 2)],
        [("a", "b", 2), ("b", "c", 1), ("c", "d", 1), ("a", "d")],
    )
    kept = capped.induced(["a", "b", "d"])
    assert kept.edges == (("a", "b"), ("a", "d"))
    assert kept.capacities == {("a", "b"): 2}
    with pytest.raises(InstanceError, match=r"unknown nodes \['x', 'y'\]"):
        hub15.induced(["s1", "y", "x"])


def test_replace_hide_and_add_edges(path7):
    hidden = path7.replace(hide_edges=[("s3", "s4")])
    assert ("s3", "s4") not in hidden.edges
    assert len(hidden.edges) == 5
    grown = path7.replace(add_edges=[("s1", "s7")])
    assert ("s1", "s7") in grown.edges
    with pytest.raises(InstanceError):
        path7.replace(hide_edges=[("s1", "s7")])
    with pytest.raises(InstanceError):
        path7.replace(add_edges=[("s1", "s2")])
    with pytest.raises(InstanceError, match="unknown node 'x'"):
        path7.replace(peaks={"x": 2})
