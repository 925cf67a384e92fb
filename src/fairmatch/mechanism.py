"""Bipartite reductions of the exchange problem, the egalitarian (Lorenz-dominant)
rule for divisible and indivisible goods, and lotteries over integral maximum
b-matchings realizing the indivisible solution."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor, lcm
from typing import Iterable, Mapping

from .flows import (
    Arc,
    ConvexCombination,
    Flow,
    FlowError,
    FlowNetwork,
    decompose_max_flow,
    max_flow,
    maximal_min_cut,
    min_cut,
)
from .instance import BMatching, Instance, InstanceError, UtilityProfile, canonical_edge
from .matching import GedDecomposition, ged_decompose, realize_targets

SOURCE = "@source"
SINK = "@sink"


class MechanismError(RuntimeError):
    """Internal inconsistency in a construction or mechanism run: a bug, surfaced loudly."""


def _a(node: str) -> str:
    return "a/" + node


def _b(node: str) -> str:
    return "b/" + node


def _mirror(node: str) -> str:
    return "c/" + node


def _over(node: str) -> str:
    return "o/" + node


def _component(index: int) -> str:
    return f"k/{index}"


@dataclass(frozen=True)
class BipartiteConstruction:
    """A source-sink network whose A-side throughput vectors are exactly the
    feasible utility profiles of the underlying exchange problem.

    ``supply_arcs`` maps each agent to its source arc; ``provenance`` links every
    arc back to the original edge or the construction rule that produced it.
    """

    kind: str
    network: FlowNetwork
    agents: tuple[str, ...]
    peaks: dict[str, int]
    supply_arcs: dict[str, Arc]
    provenance: dict[Arc, tuple]
    ged: GedDecomposition | None = None


def build_divisible(inst: Instance) -> BipartiteConstruction:
    """Doubled bipartite network: two mirrored agent sides, cross arcs per edge."""
    arcs: dict[Arc, Fraction | None] = {}
    provenance: dict[Arc, tuple] = {}
    for node, peak in inst.peaks.items():
        arcs[(SOURCE, _a(node))] = Fraction(peak)
        provenance[(SOURCE, _a(node))] = ("supply", node)
        arcs[(_b(node), SINK)] = Fraction(peak)
        provenance[(_b(node), SINK)] = ("demand", node)
    for u, v in inst.edges:
        cap = inst.capacities.get((u, v))
        fraction_cap = None if cap is None else Fraction(cap)
        for tail, head in ((u, v), (v, u)):
            arc = (_a(tail), _b(head))
            arcs[arc] = fraction_cap
            provenance[arc] = ("edge", (u, v))
    return BipartiteConstruction(
        kind="divisible",
        network=FlowNetwork(SOURCE, SINK, arcs),
        agents=inst.nodes,
        peaks=dict(inst.peaks),
        supply_arcs={node: (SOURCE, _a(node)) for node in inst.nodes},
        provenance=provenance,
    )


def build_indivisible(inst: Instance, ged: GedDecomposition | None = None) -> BipartiteConstruction:
    """Indivisible-goods network: agent mirrors for saturated classes, one demand
    node per over-demanded agent, and one internal-exchange sink per multi-node
    under-demanded component (capacity: component peak total minus one)."""
    if not inst.is_uncapacitated:
        raise InstanceError("the indivisible construction requires an uncapacitated instance")
    if ged is None:
        ged = ged_decompose(inst)
    if ged.under | ged.over | ged.perfect != set(inst.peaks):
        raise MechanismError("decomposition does not cover the instance nodes")

    adjacency = inst.adjacency()
    arcs: dict[Arc, Fraction | None] = {}
    provenance: dict[Arc, tuple] = {}
    for node, peak in inst.peaks.items():
        arcs[(SOURCE, _a(node))] = Fraction(peak)
        provenance[(SOURCE, _a(node))] = ("supply", node)
    for node in sorted(ged.perfect | ged.over):
        arcs[(_a(node), _mirror(node))] = None
        provenance[(_a(node), _mirror(node))] = ("mirror", node)
        arcs[(_mirror(node), SINK)] = Fraction(inst.peaks[node])
        provenance[(_mirror(node), SINK)] = ("demand", ("mirror", node))
    for over_node in sorted(ged.over):
        arcs[(_over(over_node), SINK)] = Fraction(inst.peaks[over_node])
        provenance[(_over(over_node), SINK)] = ("demand", ("over", over_node))
        for nbr in adjacency[over_node]:
            if nbr in ged.under:
                arc = (_a(nbr), _over(over_node))
                arcs[arc] = None
                provenance[arc] = ("exchange", canonical_edge(nbr, over_node))
    for index, component in enumerate(ged.odd_components):
        if len(component) < 2:
            continue
        cap = ged.internal_caps[index]
        arcs[(_component(index), SINK)] = Fraction(cap)
        provenance[(_component(index), SINK)] = ("demand", ("component", index))
        for node in component:
            arc = (_a(node), _component(index))
            arcs[arc] = None
            provenance[arc] = ("component", index)
    return BipartiteConstruction(
        kind="indivisible",
        network=FlowNetwork(SOURCE, SINK, arcs),
        agents=inst.nodes,
        peaks=dict(inst.peaks),
        supply_arcs={node: (SOURCE, _a(node)) for node in inst.nodes},
        provenance=provenance,
        ged=ged,
    )


def _caps_at(
    const_caps: Mapping[Arc, Fraction], linear_arcs: Iterable[Arc], lam: Fraction
) -> dict[Arc, Fraction]:
    caps = dict(const_caps)
    for arc in linear_arcs:
        caps[arc] = lam
    return caps


def _full_shipping_deficit(
    net: FlowNetwork,
    const_caps: Mapping[Arc, Fraction],
    linear_arcs: frozenset[Arc],
    lam: Fraction,
) -> tuple[Fraction, Flow, FlowNetwork]:
    caps = _caps_at(const_caps, linear_arcs, lam)
    capped = net.with_caps(caps)
    flow = max_flow(capped)
    supply = sum(caps.values(), Fraction(0))
    return supply - flow.value, flow, capped


def _sup_full_shipping(
    net: FlowNetwork,
    const_caps: Mapping[Arc, Fraction],
    linear_arcs: frozenset[Arc],
    lo: Fraction,
    hi: Fraction,
):
    """Largest lambda in [lo, hi] at which every parameterized source arc still
    ships its full cap, found by discrete Newton from the right.

    Requires deficit(lo) == 0 and deficit(hi) >= 0, and returns hi with its
    probe's flow and network when deficit(hi) == 0; each step intersects the
    supporting line of the current minimum cut with zero, which is exact in
    rational arithmetic and lands on the true breakpoint in finitely many cuts.
    """
    deficit, flow, capped = _full_shipping_deficit(net, const_caps, linear_arcs, hi)
    current = hi
    while deficit > 0:
        cut_side = min_cut(capped, flow)
        supply_const = sum(const_caps.values(), Fraction(0))
        supply_coef = len(linear_arcs)
        cut_const = Fraction(0)
        cut_coef = 0
        for arc, cap in net.arcs.items():
            tail, head = arc
            if tail in cut_side and head not in cut_side:
                if arc in linear_arcs:
                    cut_coef += 1
                elif arc in const_caps:
                    cut_const += const_caps[arc]
                else:
                    if cap is None:
                        raise MechanismError(f"unbounded arc {arc!r} crosses a minimum cut")
                    cut_const += cap
        coef = supply_coef - cut_coef
        if coef <= 0:
            raise MechanismError("bottleneck search lost its slope")
        candidate = (cut_const - supply_const) / coef
        if not lo <= candidate < current:
            raise MechanismError("bottleneck search left its segment")
        deficit, flow, capped = _full_shipping_deficit(net, const_caps, linear_arcs, candidate)
        current = candidate
    return current, flow, capped


def _lowered_cap(caps: list[Fraction], deficit: Fraction) -> Fraction:
    """The common cap lam' at which ``sum(max(0, cap - lam') for cap in caps)``
    equals ``deficit``: a sorted sweep down the caps of a cut side's agents."""
    if not caps:
        raise MechanismError("bottleneck search lost its slope")
    caps = sorted(caps, reverse=True)
    total, count = caps[0], 1
    while count < len(caps) and total - deficit < count * caps[count]:
        total += caps[count]
        count += 1
    return (total - deficit) / count


def _bottleneck_identity(capped: FlowNetwork, cut_side: frozenset[str]) -> None:
    """Assert the breakpoint identity: the bottleneck group's joint supply equals
    the capacity it is shipping into (its demand image plus crossing edge caps)."""
    supply_in = Fraction(0)
    shipped_into = Fraction(0)
    for (tail, head), cap in capped.arcs.items():
        if tail == capped.source:
            if head in cut_side:
                supply_in += cap
        elif tail in cut_side and head not in cut_side:
            if cap is None:
                raise MechanismError(f"unbounded arc {(tail, head)!r} crosses the bottleneck cut")
            shipped_into += cap
    if supply_in != shipped_into:
        raise MechanismError(
            f"bottleneck identity violated: supply {supply_in} != demand image {shipped_into}"
        )


@dataclass(frozen=True)
class Breakpoint:
    """One event of the parametric rule: either a bottleneck freeze (type-2,
    with its maximal group and the demand image it saturates) or the terminal
    peaks-reached event (type-1, empty image)."""

    lam: Fraction
    kind: str
    bottleneck: frozenset[str]
    image: frozenset[str]


def egalitarian_profile(construction: BipartiteConstruction) -> UtilityProfile:
    """Water-filling egalitarian profile for the A-side agents of a construction:
    raise a common cap, freeze the maximal bottleneck group at each breakpoint,
    recurse on the rest.

    Each breakpoint is found by discrete Newton from the largest active peak down,
    every active agent capped at ``min(lam, peak)``. The caps grow with ``lam``, so
    the minimum cuts are nested (Gallo, Grigoriadis & Tarjan): every probe stays at
    or above the breakpoint and no cut is used twice.

    The profile carries the breakpoints (type-2 bottleneck freezes in order, then
    the terminal type-1 peaks event when some agents never bottleneck) and the
    last probe's flow: a maximum flow of the network with every supply arc
    pinned to its value.
    """
    net = construction.network
    supply_arcs = construction.supply_arcs
    peaks = construction.peaks
    frozen: dict[str, Fraction] = {}
    trace: list[Breakpoint] = []
    active = sorted(supply_arcs)
    previous_break = Fraction(0)
    capped, flow = net, None
    while active:
        lam = top = Fraction(max(peaks[agent] for agent in active))
        # At or below the previous breakpoint every active agent sits at its
        # peak, and the last probe shipped exactly these caps already.
        while top > previous_break:
            caps = {supply_arcs[agent]: frozen[agent] for agent in frozen}
            caps.update({supply_arcs[agent]: min(lam, Fraction(peaks[agent])) for agent in active})
            capped = net.with_caps(caps)
            flow = max_flow(capped)
            deficit = sum(caps.values(), Fraction(0)) - flow.value
            if not deficit:
                break
            # On a certified minimum cut the deficit is the cut side's excess.
            cut_side = min_cut(capped, flow)
            cut_caps = [caps[supply_arcs[a]] for a in active if supply_arcs[a][1] in cut_side]
            lowered = _lowered_cap(cut_caps, deficit)
            if not previous_break <= lowered < lam:
                raise MechanismError("bottleneck search left its segment")
            lam = lowered
        if lam == top:
            trace.append(
                Breakpoint(lam=top, kind="type-1", bottleneck=frozenset(active), image=frozenset())
            )
            for agent in active:
                frozen[agent] = Fraction(peaks[agent])
            break
        previous_break = lam
        bottleneck_side = maximal_min_cut(capped, flow)
        _bottleneck_identity(capped, bottleneck_side)
        newly = [agent for agent in active if supply_arcs[agent][1] in bottleneck_side]
        if not newly:
            raise MechanismError("breakpoint without a bottlenecked agent")
        fresh_nodes = {supply_arcs[agent][1] for agent in newly}
        image = frozenset(
            head for (tail, head), x in flow.values.items() if tail in fresh_nodes and x > 0
        )
        trace.append(Breakpoint(lam=lam, kind="type-2", bottleneck=frozenset(newly), image=image))
        for agent in newly:
            frozen[agent] = min(lam, Fraction(peaks[agent]))
        active = [agent for agent in active if agent not in newly]

    if flow is None:  # no agents, so no probe: the zero flow ships the empty profile
        flow = Flow(values=dict.fromkeys(net.arcs, Fraction(0)), value=Fraction(0))
    # ``capped`` and ``flow`` are the last probe's, and it solved the frozen caps.
    if flow.value != sum(frozen.values(), Fraction(0)) or any(
        capped.arcs[arc] != frozen[agent] for agent, arc in supply_arcs.items()
    ):
        raise MechanismError("frozen egalitarian profile is not fully shippable")
    return UtilityProfile(frozen, flow=flow, breakpoints=tuple(trace))


def egalitarian_lp(construction: BipartiteConstruction) -> UtilityProfile:
    """Iterated common-cap maximization over the throughput polymatroid.

    Round k maximizes one common value for all unfrozen agents subject to
    membership, then freezes the agents that cannot be raised further (those on
    the sink-unreachable side of the membership flow, plus peak-tight ones).
    Cross-check oracle for :func:`egalitarian_profile`; must agree exactly.
    """
    net = construction.network
    supply_arcs = construction.supply_arcs
    peaks = construction.peaks
    frozen: dict[str, Fraction] = {}
    active = sorted(supply_arcs)
    while active:
        top = Fraction(min(peaks[agent] for agent in active))
        const_caps = {supply_arcs[agent]: frozen[agent] for agent in frozen}
        linear = frozenset(supply_arcs[agent] for agent in active)
        lam, flow, capped = _sup_full_shipping(net, const_caps, linear, Fraction(0), top)
        blocked = maximal_min_cut(capped, flow)
        tight = [
            agent
            for agent in active
            if supply_arcs[agent][1] in blocked or Fraction(peaks[agent]) == lam
        ]
        if not tight:
            raise MechanismError("no tight agent at an optimal common cap")
        for agent in tight:
            frozen[agent] = lam
        active = [agent for agent in active if agent not in tight]
    return UtilityProfile(frozen)


def egalitarian_flow(construction: BipartiteConstruction, profile: UtilityProfile) -> Flow:
    """A maximum flow of the construction that ships exactly ``profile``: every
    supply arc is pinned to its agent's value, and in the divisible construction
    every demand arc too, so both margins of the doubled network equal the
    profile."""
    pinned = {arc: profile[agent] for agent, arc in construction.supply_arcs.items()}
    if construction.kind == "divisible":
        pinned.update({(_b(agent), SINK): profile[agent] for agent in construction.agents})
    flow = max_flow(construction.network.with_caps(pinned))
    if flow.value != profile.total:
        raise MechanismError(f"profile is not realizable by a {construction.kind} maximum flow")
    return flow


def egalitarian_divisible(inst: Instance) -> tuple[UtilityProfile, dict[tuple[str, str], Fraction]]:
    """Egalitarian profile for divisible goods plus a symmetric edge exchange
    realizing it: f_ij = (g(a_i, b_j) + g(a_j, b_i)) / 2 with both flow margins
    pinned to the profile. The profile carries that pinned flow and the fill's
    breakpoints."""
    construction = build_divisible(inst)
    filled = egalitarian_profile(construction)
    flow = egalitarian_flow(construction, filled)
    profile = replace(filled, flow=flow)
    exchange: dict[tuple[str, str], Fraction] = {}
    for u, v in inst.edges:
        amount = (flow.on(_a(u), _b(v)) + flow.on(_a(v), _b(u))) / 2
        exchange[(u, v)] = amount
    for node in inst.nodes:
        induced = sum(
            (amount for edge, amount in exchange.items() if node in edge), Fraction(0)
        )
        if induced != profile[node]:
            raise MechanismError(f"symmetrized exchange misses the profile at {node!r}")
    return profile, exchange


def probabilistic_marginals(profile: UtilityProfile) -> dict[str, dict[int, Fraction]]:
    """Per-agent distribution over the two integers bracketing each utility:
    floor(x)+1 with probability frac(x), floor(x) with the rest."""
    marginals: dict[str, dict[int, Fraction]] = {}
    for agent in sorted(profile):
        x = profile[agent]
        base = floor(x)
        frac = x - base
        if frac:
            marginals[agent] = {base: 1 - frac, base + 1: frac}
        else:
            marginals[agent] = {base: Fraction(1)}
    return marginals


@dataclass(frozen=True)
class Lottery:
    """Probability distribution over maximum b-matchings with an exact expected profile.

    ``flow`` is the egalitarian maximum flow the lottery realizes and
    ``combination`` its decomposition into integral maximum flows, one member
    per entry, in order.
    """

    entries: tuple[tuple[BMatching, Fraction], ...]
    expected: UtilityProfile
    flow: Flow
    combination: ConvexCombination

    def __post_init__(self) -> None:
        if any(p <= 0 for _, p in self.entries):
            raise MechanismError("lottery probabilities must be positive")
        if sum((p for _, p in self.entries), Fraction(0)) != 1:
            raise MechanismError("lottery probabilities must sum to 1")

    def to_json(self) -> list[dict]:
        return [
            {"prob": f"{p.numerator}/{p.denominator}", "matching": matching.to_json()}
            for matching, p in self.entries
        ]


def _matching_from_member(
    inst: Instance,
    construction: BipartiteConstruction,
    perfect_part: BMatching | None,
    components: list[tuple[int, tuple[str, ...], Instance]],
    member: Flow,
) -> BMatching:
    """The b-matching of one integral member; ``components`` lists each
    multi-node odd component's index, nodes and induced instance."""
    multiplicities: dict[tuple[str, str], int] = {}
    if perfect_part is not None:
        multiplicities.update(perfect_part.multiplicities)
    for arc, tag in construction.provenance.items():
        if tag[0] == "exchange":
            amount = member.on(*arc)
            if amount.denominator != 1:
                raise MechanismError("integral member has a fractional exchange arc")
            if amount:
                edge = tag[1]
                multiplicities[edge] = multiplicities.get(edge, 0) + int(amount)
    for index, component, sub in components:
        targets = {}
        for node in component:
            amount = member.on(_a(node), _component(index))
            if amount.denominator != 1:
                raise MechanismError("integral member has a fractional component arc")
            targets[node] = int(amount)
        realized = realize_targets(sub, targets)
        if realized is None:
            raise MechanismError(
                f"component {component!r}: internal targets {targets!r} are unrealizable"
            )
        multiplicities.update(realized.multiplicities)
    matching = BMatching({edge: mult for edge, mult in multiplicities.items() if mult})
    matching.check_feasible(inst)
    utilities = matching.utilities(inst)
    for agent in construction.agents:
        outflow = member.on(*construction.supply_arcs[agent])
        if utilities[agent] != outflow:
            raise MechanismError(
                f"agent {agent!r}: matched {utilities[agent]} but the member ships {outflow}"
            )
    return matching


def build_lottery(
    inst: Instance, construction: BipartiteConstruction, profile: UtilityProfile
) -> Lottery:
    """Realize a fractional egalitarian profile as a lottery over integral maximum
    b-matchings: decompose the profile's maximum flow (the water-fill's own when
    the profile carries one on this network), then map every integral member back
    to a b-matching (perfect side internally, over-demanded exchange from the
    arcs, components completed to their internal totals)."""
    if construction.kind != "indivisible":
        raise MechanismError("lotteries are defined for the indivisible construction")
    ged = construction.ged
    assert ged is not None
    flow = profile.flow
    if flow is None or flow.values.keys() != construction.network.arcs.keys():
        flow = egalitarian_flow(construction, profile)  # not made by this construction
    try:
        combination = decompose_max_flow(construction.network, flow)
    except FlowError as exc:
        raise MechanismError(f"the profile's flow does not decompose: {exc}") from exc

    perfect_part: BMatching | None = None
    if ged.perfect:
        perfect_nodes = sorted(ged.perfect)
        perfect_part = realize_targets(
            inst.induced(perfect_nodes),
            {node: inst.peaks[node] for node in perfect_nodes},
        )
        if perfect_part is None:
            raise MechanismError("perfectly matched agents cannot be saturated internally")

    components = [
        (index, component, inst.induced(component))
        for index, component in enumerate(ged.odd_components)
        if len(component) >= 2
    ]
    entries = []
    expected = {agent: Fraction(0) for agent in construction.agents}
    for member, weight in combination.entries:
        matching = _matching_from_member(inst, construction, perfect_part, components, member)
        if matching.total_utility != flow.value:
            raise MechanismError("lottery member is not a maximum b-matching")
        utilities = matching.utilities(inst)
        for agent in expected:
            expected[agent] += weight * utilities[agent]
        entries.append((matching, weight))
    for agent in expected:
        if expected[agent] != profile[agent]:
            raise MechanismError(f"lottery expectation misses the profile at {agent!r}")
    return Lottery(
        entries=tuple(entries), expected=profile, flow=flow, combination=combination
    )


def sample_lottery(lottery: Lottery, seed: int) -> BMatching:
    """Draw one matching; exact probabilities, deterministic for a given seed."""
    denominator = lcm(*(p.denominator for _, p in lottery.entries))
    draw = random.Random(seed).randrange(denominator)
    cumulative = 0
    for matching, p in lottery.entries:
        cumulative += p.numerator * (denominator // p.denominator)
        if draw < cumulative:
            return matching
    raise MechanismError("lottery probabilities did not cover the draw")


@dataclass(frozen=True)
class IndivisibleOutcome:
    """Bundle of everything the indivisible pipeline produces for one instance."""

    ged: GedDecomposition
    construction: BipartiteConstruction
    profile: UtilityProfile
    marginals: dict[str, dict[int, Fraction]]
    lottery: Lottery


def indivisible_outcome(inst: Instance) -> IndivisibleOutcome:
    """Run the full indivisible pipeline: decompose, build, egalitarize, lotterize."""
    ged = ged_decompose(inst)
    construction = build_indivisible(inst, ged)
    profile = egalitarian_profile(construction)
    return IndivisibleOutcome(
        ged=ged,
        construction=construction,
        profile=profile,
        marginals=probabilistic_marginals(profile),
        lottery=build_lottery(inst, construction, profile),
    )


def bipartite_egalitarian(
    inst: Instance, suppliers: Iterable[str], demanders: Iterable[str]
) -> UtilityProfile:
    """The direct two-sided egalitarian rule on a bipartite instance: water-fill
    the supplier side against fixed demands and the demander side against fixed
    supplies. On a bipartite graph the doubled network of :func:`build_divisible`
    is the disjoint union of those two networks, so one fill on it is the rule."""
    supply_set = set(suppliers)
    demand_set = set(demanders)
    if supply_set & demand_set or supply_set | demand_set != set(inst.peaks):
        raise InstanceError("suppliers and demanders must partition the nodes")
    for u, v in inst.edges:
        if (u in supply_set) == (v in supply_set):
            raise InstanceError(f"edge ({u!r}, {v!r}) does not cross the bipartition")
    return egalitarian_profile(build_divisible(inst))
