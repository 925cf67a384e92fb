"""Upper bounds on the flow and matching work the mechanism and its reference
do on hub15, on a path with many distinct peaks, on a star with large peaks and
on triangles whose peaks differ by a factor of 20,000.

Counts go through every binding of a function (``fairmatch.flows`` and the
modules that import it), so a repeated solve fails here without any timing.
"""

import sys
from fractions import Fraction

import pytest

from fairmatch import (
    BMatching,
    Deviation,
    Instance,
    build_divisible,
    build_indivisible,
    build_lottery,
    cli,
    egalitarian_divisible,
    egalitarian_lp,
    egalitarian_profile,
    flows,
    ged_decompose,
    indivisible_outcome,
    manipulation_experiment,
    matching,
    mechanism,
)

from golden.record import CAPACITATED, MEMBERS, observe, seeded_instance
from helpers import path_instance, triangle


@pytest.fixture
def calls(monkeypatch):
    counts = {}
    for name in ("max_flow", "decompose_max_flow", "is_maximum", "min_cut"):
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


@pytest.mark.parametrize("build", [build_indivisible, build_divisible])
def test_egalitarian_profile_makes_no_min_cut_call(hub15, calls, build):
    # each probe with a deficit reads the cut that max_flow returns and has
    # certified; searching it again took 3 min_cut calls per fill
    egalitarian_profile(build(hub15))
    assert calls["min_cut"] == 0


def test_egalitarian_lp_makes_no_min_cut_call(hub15, calls):
    # each Newton step reads the cut that max_flow returns: searching it again
    # took one min_cut call per construction
    egalitarian_lp(build_indivisible(hub15))
    assert calls["min_cut"] == 0


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


def test_golden_observe_fills_each_construction_once(calls, monkeypatch):
    # the breakpoints ride on the profile, so each construction is filled once.
    # The lottery's box solves, one max_flow call each, are counted apart
    boxes = {"solves": 0}
    original = flows._integral_flow_in_box

    def counted(*args):
        boxes["solves"] += 1
        return original(*args)

    monkeypatch.setattr(flows, "_integral_flow_in_box", counted)
    inst = seeded_instance(*MEMBERS[0])
    assert inst.name == "golden-36"
    observe(inst)
    assert boxes["solves"] > 0
    assert calls["max_flow"] - boxes["solves"] <= 16


def test_egalitarian_lp_solves_hub15(hub15, calls):
    # the reference solves each round's top probe once
    egalitarian_lp(build_indivisible(hub15))
    assert calls["max_flow"] <= 4


def test_indivisible_outcome_solves_hub15(hub15, calls):
    # the lottery decomposes the water-fill's last flow instead of solving it again
    indivisible_outcome(hub15)
    assert calls["max_flow"] <= 8


def test_indivisible_outcome_certifies_hub15_flows_once(hub15, calls):
    # the decomposition searches the fill's flow's residual network once and
    # certifies each of the lottery's three members against that cut: a
    # residual search per member took 4 is_maximum calls, and reaching the cut
    # through min_cut one call
    indivisible_outcome(hub15)
    assert calls["is_maximum"] == 0
    assert calls["min_cut"] == 0


@pytest.fixture
def certificates(monkeypatch):
    # flows._certify calls, by the name of the calling function
    callers = {}
    original = flows._certify

    def counted(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        callers[caller] = callers.get(caller, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(flows, "_certify", counted)
    return callers


@pytest.mark.parametrize(
    "rule, build",
    [(egalitarian_profile, build_indivisible), (egalitarian_profile, build_divisible), (egalitarian_lp, build_indivisible)],
)
def test_flows_are_certified_only_by_max_flow(hub15, certificates, rule, build):
    # maximal_min_cut reads a flow on the network max_flow certified it on
    # without certifying it again: that took 2 more certificates per fill and
    # 3 in egalitarian_lp
    rule(build(hub15))
    assert set(certificates) == {"max_flow"}


@pytest.mark.parametrize(
    "rule",
    [
        lambda inst: egalitarian_profile(build_indivisible(inst)),
        lambda inst: egalitarian_profile(build_divisible(inst)),
        egalitarian_divisible,
    ],
    ids=["indivisible fill", "divisible fill", "egalitarian_divisible"],
)
def test_each_max_flow_certifies_once(hub15, calls, certificates, rule):
    # a warm start's check after cancelling reads the bounds only; before,
    # it was a whole second certificate, two per warm-started solve
    rule(hub15)
    assert calls["max_flow"] > 1
    assert certificates == {"max_flow": calls["max_flow"]}


def test_decomposition_scales_its_input_once(hub15, monkeypatch):
    # one residual search both checks the input and gives the members' cut:
    # checking it through min_cut and scaling it again for the peeling took 2
    # calls on the input, 4 in all with the two box solves
    construction = build_indivisible(hub15)
    flow = egalitarian_profile(construction).flow
    counts = {"input": 0, "all": 0}
    original = flows._scaled

    def counted(net, start, **kwargs):
        counts["input"] += start is flow
        counts["all"] += 1
        return original(net, start, **kwargs)

    monkeypatch.setattr(flows, "_scaled", counted)
    combination = flows.decompose_max_flow(construction.network, flow)
    assert len(combination.entries) == 3
    assert counts == {"input": 1, "all": 3}


def test_manipulation_builds_no_lottery(hub15, calls):
    # two profiles, no lottery: nothing is decomposed
    manipulation_experiment(hub15, Deviation(hide_edges=(("s6", "s12"),)), ["s6", "s12"])
    assert calls["decompose_max_flow"] == 0


@pytest.fixture
def network_builds(monkeypatch):
    # networks validated by the constructor, and indexes built from names
    counts = {"networks": 0, "indexes": 0}
    post_init, index = flows.FlowNetwork.__post_init__, flows.FlowNetwork.index.func

    def counted_network(net):
        counts["networks"] += 1
        post_init(net)

    def counted_index(net):
        counts["indexes"] += 1
        return index(net)

    monkeypatch.setattr(flows.FlowNetwork, "__post_init__", counted_network)
    monkeypatch.setattr(flows.FlowNetwork.index, "func", counted_index)
    return counts


@pytest.mark.parametrize("build", [build_indivisible, build_divisible])
def test_fill_builds_the_index_once(hub15, network_builds, build):
    # every probe's network is a copy sharing the construction network's ids
    # and residual rows
    construction = build(hub15)
    egalitarian_profile(construction)
    assert network_builds == {"networks": 1, "indexes": 1}


def test_decomposition_builds_no_network_per_peel(hub15, network_builds, calls):
    # each box solve runs on the parent's ids plus two super nodes: a network
    # of prefixed names, validated and sorted, per peel took 2 here
    construction = build_indivisible(hub15)
    flow = egalitarian_profile(construction).flow
    network_builds.update(networks=0, indexes=0)
    calls["max_flow"] = 0
    combination = flows.decompose_max_flow(construction.network, flow)
    assert len(combination.entries) == 3 and calls["max_flow"] == 2
    assert network_builds == {"networks": 0, "indexes": 0}


@pytest.fixture
def residual_searches(monkeypatch):
    # the indexed residual search: in max_flow, one per phase
    counts = {"searches": 0}
    original = flows._search

    def counted(*args, **kwargs):
        counts["searches"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(flows, "_search", counted)
    return counts


@pytest.mark.parametrize("build, max_searches", [(build_indivisible, 14), (build_divisible, 14)])
def test_egalitarian_profile_searches_hub15(hub15, residual_searches, build, max_searches):
    # each probe augments from the previous probe's flow: solving every probe
    # from zero took 104 and 128 residual searches. The solver returns its last
    # search's cut, so no probe searches again: with min_cut it took 35 and 38.
    # One search per phase, not per augmenting path: one per path took 32 and 35
    construction = build(hub15)
    egalitarian_profile(construction)
    assert residual_searches["searches"] <= max_searches


def test_egalitarian_divisible_searches_hub15(hub15, residual_searches):
    # the pinned flow augments from the fill's last flow: solving it from zero
    # took 59 residual searches in all, and the fill's min_cut calls 3 more;
    # one search per augmenting path, not per phase, took 37
    egalitarian_divisible(hub15)
    assert residual_searches["searches"] <= 16


FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)


@pytest.mark.parametrize("build", [build_indivisible, build_divisible])
def test_cold_max_flow_makes_no_fraction_arithmetic(hub15, build):
    # the search runs on caps scaled to ints; the Fraction search made 1,100 and
    # 1,749 Fraction operations on hub15's indivisible and divisible networks
    net = build(hub15).network
    counts = {"ops": 0}
    with pytest.MonkeyPatch.context() as patch:
        for name in FRACTION_OPS:
            original = getattr(Fraction, name)

            def counted(*args, _original=original):
                counts["ops"] += 1
                return _original(*args)

            patch.setattr(Fraction, name, counted)
        flow = flows.max_flow(net)
    assert flow.value > 0
    assert counts["ops"] == 0


@pytest.mark.parametrize("build", [build_indivisible, build_divisible])
def test_fill_makes_no_fraction_arithmetic_in_flows(hub15, build):
    # warm starts, with_caps, the cut certificates and maximal_min_cut all run
    # on ints; only the fill's own lambda arithmetic (in mechanism) uses
    # Fractions. Checking in Fractions made 2,254 and 3,079 such operations
    construction = build(hub15)
    counts = {"flows": 0, "elsewhere": 0}
    with pytest.MonkeyPatch.context() as patch:
        for name in FRACTION_OPS:
            original = getattr(Fraction, name)

            def counted(*args, _original=original):
                caller = sys._getframe(1).f_code.co_filename
                counts["flows" if caller == flows.__file__ else "elsewhere"] += 1
                return _original(*args)

            patch.setattr(Fraction, name, counted)
        profile = egalitarian_profile(construction)
    assert profile.total > 0 and counts["elsewhere"] > 0
    assert counts["flows"] == 0


@pytest.mark.parametrize("build", [build_indivisible, build_divisible])
def test_fill_builds_one_fraction_per_probe_in_flows(hub15, calls, build):
    # each probe's network derives its scaled caps from the probe before, and
    # its flow keeps the ints it was solved on: left is each flow's value.
    # Coercing every cap and dividing every arc made 354 and 492 Fractions.
    # Each of the 6 probes is still one max_flow call through mechanism
    construction = build(hub15)
    counts = {"flows": 0}
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        counts["flows"] += sys._getframe(1).f_code.co_filename == flows.__file__
        return original(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counted))
        profile = egalitarian_profile(construction)
    assert profile.total > 0
    assert counts["flows"] <= 12
    assert calls["max_flow"] == 6


@pytest.mark.parametrize(
    "build, name",
    [(build_indivisible, "hub15"), (build_divisible, "hub15"), (build_divisible, "capacitated")],
)
def test_constructions_build_no_fraction(hub15, build, name):
    # a construction passes int caps, and its network checks each once and
    # keeps it as an int: a Fraction per cap, coerced again and scaled back,
    # made 27 and 30 Fractions on hub15 and 210 on the capacitated instance
    inst = hub15 if name == "hub15" else seeded_instance(*CAPACITATED[0])
    counts = {"fractions": 0}
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        counts["fractions"] += sys._getframe(1).f_code.co_filename in (flows.__file__, mechanism.__file__)
        return original(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counted))
        network = build(inst).network
        scale, caps = network.scaled_caps
    assert scale == 1 and len(caps) == len(network.index.arcs) + 1
    assert counts["fractions"] == 0


@pytest.mark.parametrize("build", [build_indivisible, build_divisible])
def test_fill_probes_on_ints(hub15, build):
    # each probe writes its caps as ints on the previous probe's cap list and
    # takes the deficit and the lowered cap on ints: left are the comparisons
    # of lam with the previous breakpoint and the top peak. On Fraction caps
    # and deficits the fill made 311 and 274 operations in mechanism, and
    # checked 58 and 72 caps in 6 with_caps calls
    construction = build(hub15)
    counts = {"mechanism": 0, "checked": 0, "with_caps": 0}
    with pytest.MonkeyPatch.context() as patch:
        for name in FRACTION_OPS:
            original = getattr(Fraction, name)

            def counted(*args, _original=original):
                counts["mechanism"] += sys._getframe(1).f_code.co_filename == mechanism.__file__
                return _original(*args)

            patch.setattr(Fraction, name, counted)
        for owner, name, key in ((flows, "_check_cap", "checked"), (flows.FlowNetwork, "with_caps", "with_caps")):
            original = getattr(owner, name)

            def called(*args, _original=original, _key=key):
                counts[_key] += 1
                return _original(*args)

            patch.setattr(owner, name, called)
        profile = egalitarian_profile(construction)
    assert profile.total > 0
    assert counts["mechanism"] <= 20
    assert counts["checked"] == counts["with_caps"] == 0


def test_decomposition_makes_almost_no_fraction_arithmetic_in_flows(hub15):
    # the peels run on ints scaled by the flow's common denominator; left are
    # ConvexCombination's weight checks (10 for three members) and the value
    # check of each of the two box solves. Peeling on Fractions made 693
    construction = build_indivisible(hub15)
    flow = egalitarian_profile(construction).flow
    counts = {"flows": 0}
    with pytest.MonkeyPatch.context() as patch:
        for name in FRACTION_OPS:
            original = getattr(Fraction, name)

            def counted(*args, _original=original):
                counts["flows"] += sys._getframe(1).f_code.co_filename == flows.__file__
                return _original(*args)

            patch.setattr(Fraction, name, counted)
        combination = flows.decompose_max_flow(construction.network, flow)
    assert len(combination.entries) == 3
    assert counts["flows"] <= 12


def test_lottery_reads_each_member_once(hub15, monkeypatch):
    # one utilities call for the perfect part, and per member one in
    # check_feasible and one for the ship check, the maximum check and the
    # expectation together; reading them separately took 10 on hub15
    construction = build_indivisible(hub15)
    profile = egalitarian_profile(construction)
    counts = {"utilities": 0}
    original = BMatching.utilities

    def counted(self, inst):
        counts["utilities"] += 1
        return original(self, inst)

    monkeypatch.setattr(BMatching, "utilities", counted)
    lottery = build_lottery(hub15, construction, profile)
    assert len(lottery.entries) == 3
    assert counts["utilities"] <= 7


def test_lottery_totals_the_expectation_on_ints(hub15):
    # the expectation is totalled as ints over the weights' common denominator
    # and compared with the profile once per agent (15); left are the maximum
    # check per member (3) and Lottery's weight checks (7). Totalling it in
    # Fractions made 115 operations in mechanism on hub15
    construction = build_indivisible(hub15)
    profile = egalitarian_profile(construction)
    counts = {"mechanism": 0}
    with pytest.MonkeyPatch.context() as patch:
        for name in FRACTION_OPS:
            original = getattr(Fraction, name)

            def counted(*args, _original=original):
                counts["mechanism"] += sys._getframe(1).f_code.co_filename == mechanism.__file__
                return _original(*args)

            patch.setattr(Fraction, name, counted)
        lottery = build_lottery(hub15, construction, profile)
    assert len(lottery.entries) == 3
    assert counts["mechanism"] <= 25


@pytest.fixture
def cold_solves(monkeypatch):
    counts = {"cold": 0}
    original = mechanism.max_flow

    def counted(net, start=None):
        counts["cold"] += start is None
        return original(net, start)

    monkeypatch.setattr(mechanism, "max_flow", counted)
    return counts


@pytest.mark.parametrize("build", [build_indivisible, build_divisible])
def test_every_fill_solves_from_zero_once(hub15, cold_solves, build):
    # only the first probe of a fill starts from zero flow
    for inst in (hub15, path_instance(30, tuple(range(10, 40))), seeded_instance(*MEMBERS[0])):
        cold_solves["cold"] = 0
        egalitarian_profile(build(inst))
        assert cold_solves["cold"] == 1, inst.name


def test_egalitarian_divisible_solves_from_zero_once(hub15, cold_solves):
    # the fill's first probe; the pinned flow starts from the fill's last flow
    for inst in (hub15, path_instance(30, tuple(range(10, 40))), seeded_instance(*MEMBERS[0])):
        cold_solves["cold"] = 0
        egalitarian_divisible(inst)
        assert cold_solves["cold"] == 1, inst.name


@pytest.fixture
def searches(monkeypatch):
    # every copy graph the matching layer builds: one per b-matching round
    # through `_copy_graph`, and the decomposition's through `expand_nodes`
    counts = {"blossom": 0, "rounds": 0, "copy_edges": 0}
    original = matching._blossom_search
    original_build = matching._copy_graph
    original_expand = matching.expand_nodes

    def counted(*args):
        counts["blossom"] += 1
        return original(*args)

    def counted_build(copies, nbrs):
        starts, owner, adj = original_build(copies, nbrs)
        counts["rounds"] += 1
        counts["copy_edges"] += sum(map(len, adj)) // 2
        return starts, owner, adj

    def counted_expand(peaks, edges):
        expanded = original_expand(peaks, edges)
        counts["copy_edges"] += len(expanded.edges)
        return expanded

    monkeypatch.setattr(matching, "_blossom_search", counted)
    monkeypatch.setattr(matching, "_copy_graph", counted_build)
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
    "run, max_copy_edges, max_rounds, max_searches",
    [(ged_decompose, 452, 7, 8), (indivisible_outcome, 848, 14, 15)],
)
def test_bmatching_work_does_not_grow_with_peaks(searches, peak, run, max_copy_edges, max_rounds, max_searches):
    # the full copy graph of peaks 50, 50, 51 has 7,600 edges. The reduced one
    # keeps two matched pairs per edge and two spare copies per node, and is
    # built at most once per round on each bit level of the peaks (20 levels
    # for 10^6): a round with fewer than two exposed copies is skipped. Every
    # round built, 27 and 54 at 10^6, took 16 and 30 searches
    run(triangle((peak, peak, peak + 1)))
    assert searches["copy_edges"] <= max_copy_edges
    assert searches["rounds"] <= max_rounds
    assert searches["blossom"] <= max_searches


def test_verify_searches_no_more_than_the_outcome(hub15, hub15_file, searches, capsys):
    # verify reads the decomposition's maximum b-matching instead of a second blossom run
    indivisible_outcome(hub15)
    outcome_searches = searches["blossom"]
    searches["blossom"] = 0
    assert cli.main(["verify", hub15_file]) == 0
    assert searches["blossom"] <= outcome_searches



@pytest.fixture
def builds(monkeypatch):
    counts = {"instances": 0, "maximum": 0}
    original_check = Instance.__post_init__
    original_maximum = matching._maximum

    def counted_check(self):
        counts["instances"] += 1
        original_check(self)

    def counted_maximum(*args):
        counts["maximum"] += 1
        return original_maximum(*args)

    monkeypatch.setattr(Instance, "__post_init__", counted_check)
    monkeypatch.setattr(matching, "_maximum", counted_maximum)
    return counts


def test_ged_builds_no_instance(hub15, builds):
    # the reduced graph of each round is built from its counts: validating an
    # Instance per round took 4 on hub15
    ged_decompose(hub15)
    assert builds["instances"] == 0
    assert builds["maximum"] == 1


def test_indivisible_outcome_solves_perfect_agents_once(hub15, builds):
    # the lottery's perfect part comes from the decomposition's matching, and
    # component targets are realized from the component's edges, without a
    # shrunk or induced Instance: this took 22 Instance validations and 5
    # b-matching solves. Left are the decomposition and one solve per member
    # for each distinct target of the component (s1, s2, s3): its three members
    # share one, which took three solves
    indivisible_outcome(hub15)
    assert builds["instances"] == 0
    assert builds["maximum"] == 2
