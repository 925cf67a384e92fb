import json
import random
from fractions import Fraction

import pytest

from fairmatch import (
    Instance,
    InstanceError,
    OracleSizeError,
    UtilityProfile,
    cli,
    enumerate_bmatchings,
    lorenz_dominates,
    manipulation_experiment,
    pareto_profiles,
    undominated_profiles,
)
from fairmatch.oracle import (
    Deviation,
    apply_deviation,
    canonical_delta,
    enumeration_limit,
    prefers_somewhere,
)

from helpers import path_instance, random_connected_instance, triangle

F = Fraction


def profile_of(mapping):
    return UtilityProfile({k: F(v) for k, v in mapping.items()})


def test_enumerate_unit_triangle(tri):
    matchings = enumerate_bmatchings(tri)
    assert len(matchings) == 4  # empty, ab, bc, ca
    assert {frozenset(m.multiplicities) for m in matchings} == {
        frozenset(), frozenset({("a", "b")}), frozenset({("b", "c")}), frozenset({("a", "c")})
    }


def test_enumerate_single_edge_with_peaks():
    inst = Instance.build("e", [("a", 2), ("b", 2)], [("a", "b")])
    assert len(enumerate_bmatchings(inst)) == 3  # multiplicities 0, 1, 2


def test_enumerate_four_cycle():
    inst = Instance.build(
        "c4", [(v, 1) for v in "abcd"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    )
    assert len(enumerate_bmatchings(inst)) == 7


def test_enumerate_respects_capacities():
    inst = Instance.build("cap", [("a", 3), ("b", 3)], [("a", "b", 1)])
    assert len(enumerate_bmatchings(inst)) == 2


def test_enumerate_size_refusal():
    inst = Instance.build("big", [(f"v{i}", 3) for i in range(6)], [])
    with pytest.raises(OracleSizeError, match="18 expanded nodes"):
        enumerate_bmatchings(inst)
    assert len(enumerate_bmatchings(inst, limit=18)) == 1


def test_enumeration_limit_env_override(monkeypatch):
    monkeypatch.setenv("FAIRMATCH_ORACLE_LIMIT", "21")
    assert enumeration_limit() == 21
    assert enumeration_limit(5) == 5
    monkeypatch.setenv("FAIRMATCH_ORACLE_LIMIT", "lots")
    with pytest.raises(InstanceError):
        enumeration_limit()
    monkeypatch.delenv("FAIRMATCH_ORACLE_LIMIT")
    assert enumeration_limit() == 14


def test_pareto_profiles_unit_triangle(tri):
    result = pareto_profiles(tri)
    assert result.node_order == ("a", "b", "c")
    assert result.profiles == {(1, 1, 0), (0, 1, 1), (1, 0, 1)}
    for profile, matching in result.representatives.items():
        assert tuple(matching.utilities(tri)[n] for n in result.node_order) == profile


def test_pareto_profiles_isolated_pair():
    inst = Instance.build("iso", [("a", 1), ("b", 1)], [])
    assert pareto_profiles(inst).profiles == {(0, 0)}


def test_pareto_profiles_seven_path(path7):
    assert len(pareto_profiles(path7).profiles) == 4


def test_undominated_equals_maximum_profiles_small():
    rng = random.Random(11)
    for _ in range(25):
        inst = random_connected_instance(rng, max_nodes=5, max_peak=2)
        assert undominated_profiles(inst, limit=10) == pareto_profiles(inst, limit=10).profiles


def test_lorenz_reflexive():
    z = profile_of({"a": 1, "b": 2})
    assert lorenz_dominates(z, z)


def test_lorenz_example_dominance():
    z = profile_of({"a": 2, "b": 3, "c": 3, "d": 2})
    w = profile_of({"a": 1, "b": 4, "c": 3, "d": 2})
    assert lorenz_dominates(z, w)
    assert not lorenz_dominates(w, z)


def test_lorenz_incomparable_pair():
    z = profile_of({"a": 0, "b": 3})
    w = profile_of({"a": 1, "b": 1})
    assert not lorenz_dominates(z, w)
    assert not lorenz_dominates(w, z)


def test_lorenz_requires_same_agents():
    with pytest.raises(InstanceError):
        lorenz_dominates(profile_of({"a": 1}), profile_of({"b": 1}))


def test_lorenz_partial_order_properties():
    rng = random.Random(5)
    agents = tuple("abcd")
    profiles = [
        profile_of({a: F(rng.randint(0, 6), rng.randint(1, 3)) for a in agents})
        for _ in range(40)
    ]
    for z in profiles:
        assert lorenz_dominates(z, z)
        for w in profiles:
            if lorenz_dominates(z, w) and lorenz_dominates(w, z):
                assert z.sorted_values() == w.sorted_values()
            for u in profiles:
                if lorenz_dominates(z, w) and lorenz_dominates(w, u):
                    assert lorenz_dominates(z, u)


@pytest.mark.parametrize(
    "new, old, peak, expected",
    [
        (F(2), F(2, 3), 1, True),    # beyond peak vs below: some preference gains
        (F(1), F(2), 1, True),       # back toward peak from above
        (F(2), F(1), 1, False),      # away from the attained peak
        (F(1, 2), F(3, 4), 1, False),
        (F(3, 4), F(1, 2), 1, True),
        (F(1), F(1), 1, False),
    ],
)
def test_prefers_somewhere_table(new, old, peak, expected):
    assert prefers_somewhere(new, old, peak) is expected


def test_canonical_delta_distance_to_peak():
    assert canonical_delta(F(2), F(2, 3), 1) == F(1, 3) - F(1)
    assert canonical_delta(F(1), F(3, 4), 1) == F(1, 4)


def test_peak_manipulation_triangle(tri):
    report = manipulation_experiment(tri, Deviation(peaks={"a": 2}), ["a"])
    assert report.manipulated.values == {"a": F(2), "b": F(1), "c": F(1)}
    assert report.truthful.values == {"a": F(2, 3), "b": F(2, 3), "c": F(2, 3)}
    assert report.gains_somewhere["a"] is True
    assert report.deltas["a"] == F(1, 3) - F(1)
    assert report.verdict == "unprofitable"


def test_link_manipulation_seven_path(path7):
    report = manipulation_experiment(
        path7, Deviation(hide_edges=(("s3", "s4"),)), ["s4", "s7"]
    )
    assert report.truthful["s7"] == F(3, 4)
    assert report.manipulated["s7"] == F(1)
    assert report.deltas == {"s4": F(0), "s7": F(1, 4)}
    assert all(delta >= 0 for delta in report.deltas.values())
    assert report.verdict == "mixed"


def test_empty_deviation_is_identity(tri):
    report = manipulation_experiment(tri, Deviation(), ["a", "b"])
    assert report.deltas == {"a": F(0), "b": F(0)}
    assert report.verdict == "unprofitable"
    assert report.truthful.values == report.manipulated.values


def test_empty_coalition_is_rejected(tri):
    with pytest.raises(InstanceError, match="coalition is empty"):
        manipulation_experiment(tri, Deviation(), [])


def test_deviation_validation(tri):
    with pytest.raises(InstanceError, match="non-coalition"):
        manipulation_experiment(tri, Deviation(peaks={"b": 2}), ["a"])
    with pytest.raises(InstanceError, match="touches no coalition"):
        manipulation_experiment(tri, Deviation(hide_edges=(("b", "c"),)), ["a"])
    with pytest.raises(InstanceError, match="both endpoints"):
        inst = path_instance(3)
        manipulation_experiment(inst, Deviation(add_edges=(("s1", "s3"),)), ["s1"])
    with pytest.raises(InstanceError, match="unknown coalition"):
        manipulation_experiment(tri, Deviation(), ["zz"])


def test_apply_deviation_builds_reported_instance(path7):
    reported = apply_deviation(
        path7, Deviation(peaks={"s1": 3}, hide_edges=(("s1", "s2"),))
    )
    assert reported.peaks["s1"] == 3
    assert ("s1", "s2") not in reported.edges


# Link-hiding deviations under which every deviator strictly gains: the
# indivisible rule is not link-group-strategyproof in this strong sense.
# Each case: instance, coalition, hidden edges, truthful and reported profiles.
LINK_HIDING_GAINS = {
    "single-agent": (
        Instance.build(
            "hide-one",
            [("v0", 1), ("v1", 1), ("v2", 1), ("v3", 2)],
            [("v0", "v3"), ("v1", "v2"), ("v1", "v3"), ("v2", "v3")],
        ),
        ["v3"],
        (("v0", "v3"),),
        {"v0": 1, "v1": 1, "v2": 1, "v3": 1},
        {"v0": 0, "v1": 1, "v2": 1, "v3": 2},
    ),
    "pair-cuts-out-a-neighbor": (
        Instance.build(
            "triangle", [("v0", 1), ("v1", 1), ("v2", 1)],
            [("v0", "v1"), ("v1", "v2"), ("v0", "v2")],
        ),
        ["v0", "v1"],
        (("v0", "v2"), ("v1", "v2")),
        {"v0": F(2, 3), "v1": F(2, 3), "v2": F(2, 3)},
        {"v0": 1, "v1": 1, "v2": 0},
    ),
}


@pytest.mark.parametrize("case", sorted(LINK_HIDING_GAINS))
def test_link_hiding_profitable_fixture(case):
    inst, coalition, hidden, truthful, reported = LINK_HIDING_GAINS[case]
    report = manipulation_experiment(inst, Deviation(hide_edges=hidden), coalition)
    assert report.truthful == profile_of(truthful)
    assert report.manipulated == profile_of(reported)
    assert report.verdict == "profitable"


@pytest.mark.parametrize("case", sorted(LINK_HIDING_GAINS))
def test_link_hiding_profitable_fixture_cli(case, tmp_path, capsys):
    inst, coalition, hidden, truthful, reported = LINK_HIDING_GAINS[case]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst.to_json_dict()))
    argv = ["manipulate", str(path), "--coalition", ",".join(coalition)]
    for u, v in hidden:
        argv += ["--hide-edge", f"{u}:{v}"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["manipulated"] == profile_of(reported).to_json_dict()
    assert payload["verdict"] == "profitable"


def _random_link_hiding(rng, inst):
    coalition = rng.sample(inst.nodes, k=min(len(inst.nodes), rng.randint(1, 3)))
    candidates = [e for e in inst.edges if e[0] in coalition or e[1] in coalition]
    if not candidates:
        return None
    hidden = rng.sample(candidates, k=rng.randint(1, len(candidates)))
    return Deviation(hide_edges=tuple(hidden)), coalition


def test_weak_link_group_strategyproofness_smoke():
    # No sampled link-hiding coalition makes every deviator strictly better off.
    rng = random.Random(90125)
    trials = 0
    while trials < 100:
        inst = random_connected_instance(rng, max_nodes=6, max_peak=3)
        drawn = _random_link_hiding(rng, inst)
        if drawn is None:
            continue
        deviation, coalition = drawn
        report = manipulation_experiment(inst, deviation, coalition)
        assert report.verdict != "profitable", (inst, deviation, coalition)
        trials += 1
