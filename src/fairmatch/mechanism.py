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
    Scaled,
    decompose_max_flow,
    max_flow,
    maximal_min_cut,
)
from .instance import BMatching, Instance, InstanceError, UtilityProfile, canonical_edge, format_rational
from .matching import GedDecomposition, _realize, ged_decompose

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
    arcs: dict[Arc, int | None] = {}
    provenance: dict[Arc, tuple] = {}
    for node, peak in inst.peaks.items():
        arcs[(SOURCE, _a(node))] = peak
        provenance[(SOURCE, _a(node))] = ("supply", node)
        arcs[(_b(node), SINK)] = peak
        provenance[(_b(node), SINK)] = ("demand", node)
    for u, v in inst.edges:
        cap = inst.capacities.get((u, v))
        for tail, head in ((u, v), (v, u)):
            arc = (_a(tail), _b(head))
            arcs[arc] = cap
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
    edges = {edge: edge for edge in inst.edges}  # the instance's own tuples
    arcs: dict[Arc, int | None] = {}
    provenance: dict[Arc, tuple] = {}
    for node, peak in inst.peaks.items():
        arcs[(SOURCE, _a(node))] = peak
        provenance[(SOURCE, _a(node))] = ("supply", node)
    for node in sorted(ged.perfect | ged.over):
        arcs[(_a(node), _mirror(node))] = None
        provenance[(_a(node), _mirror(node))] = ("mirror", node)
        arcs[(_mirror(node), SINK)] = inst.peaks[node]
        provenance[(_mirror(node), SINK)] = ("demand", ("mirror", node))
    for over_node in sorted(ged.over):
        arcs[(_over(over_node), SINK)] = inst.peaks[over_node]
        provenance[(_over(over_node), SINK)] = ("demand", ("over", over_node))
        for nbr in adjacency[over_node]:
            if nbr in ged.under:
                arc = (_a(nbr), _over(over_node))
                arcs[arc] = None
                provenance[arc] = ("exchange", edges[canonical_edge(nbr, over_node)])
    for index, component in enumerate(ged.odd_components):
        if len(component) < 2:
            continue
        arcs[(_component(index), SINK)] = ged.internal_caps[index]
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


def _full_shipping_deficit(
    net: FlowNetwork,
    const_caps: Mapping[Arc, Fraction],
    linear_arcs: frozenset[Arc],
    lam: Fraction,
) -> tuple[Fraction, Flow]:
    caps = {**const_caps, **dict.fromkeys(linear_arcs, lam)}
    flow = max_flow(net.with_caps(caps))
    supply = sum(caps.values(), Fraction(0))
    return supply - flow.value, flow


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
    probe's flow when deficit(hi) == 0; each step intersects the
    supporting line of the current minimum cut with zero, which is exact in
    rational arithmetic and lands on the true breakpoint in finitely many cuts.
    """
    deficit, flow = _full_shipping_deficit(net, const_caps, linear_arcs, hi)
    current = hi
    while deficit > 0:
        cut_side = flow.cut
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
        deficit, flow = _full_shipping_deficit(net, const_caps, linear_arcs, candidate)
        current = candidate
    return current, flow


def _lowered_cap(caps: list[int], deficit: int, scale: int) -> Fraction:
    """The common cap lam' at which ``sum(max(0, cap - lam') for cap in caps)``
    equals ``deficit``, both times ``scale``: a sorted sweep down the caps of a
    cut side's agents."""
    if not caps:
        raise MechanismError("bottleneck search lost its slope")
    caps = sorted(caps, reverse=True)
    total, count = caps[0], 1
    while count < len(caps) and total - deficit < count * caps[count]:
        total += caps[count]
        count += 1
    return Fraction(total - deficit, count * scale)


def _bottleneck_identity(capped: FlowNetwork, cut_side: frozenset[str]) -> None:
    """Assert the breakpoint identity: the bottleneck group's joint supply equals
    the capacity it is shipping into (its demand image plus crossing edge caps)."""
    idx = capped.index
    scale, caps = capped.scaled_caps
    inside = [node in cut_side for node in idx.nodes]
    supply_in = shipped_into = 0
    for arc, cap, tail, head in zip(idx.arcs, caps, idx.tails, idx.heads):
        if tail == idx.source:
            if inside[head]:
                supply_in += cap
        elif inside[tail] and not inside[head]:
            if cap is None:
                raise MechanismError(f"unbounded arc {arc!r} crosses the bottleneck cut")
            shipped_into += cap
    if supply_in != shipped_into:
        supply_in, shipped_into = Fraction(supply_in, scale), Fraction(shipped_into, scale)
        raise MechanismError(f"bottleneck identity violated: supply {supply_in} != demand image {shipped_into}")


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
    or above the breakpoint and no cut is used twice. Only the first probe solves
    from zero flow; each later probe starts from the flow of the probe before it,
    whose supply arcs carry at most the old caps: within a search the caps only
    fall (``max_flow`` cancels the excess), across breakpoints they only rise.

    A probe runs on ints: the previous probe's caps with the active supply arcs
    rewritten, on the probe's least scale. Its only ``Fraction`` is a lowered ``lam``.

    The profile carries the breakpoints (type-2 bottleneck freezes in order, then
    the terminal type-1 peaks event when some agents never bottleneck) and the
    last probe's flow: a maximum flow of the network with every supply arc
    pinned to its value.
    """
    net = construction.network
    supply_arcs = construction.supply_arcs
    peaks = construction.peaks
    slots = {agent: net.index.arc_ids[arc] for agent, arc in supply_arcs.items()}
    frozen: dict[str, Fraction] = {}
    trace: list[Breakpoint] = []
    active = sorted(supply_arcs)
    previous_break = Fraction(0)
    flow = None
    scale, caps = net.scaled_caps
    while active:
        lam = top = Fraction(max(peaks[agent] for agent in active))
        # At or below the previous breakpoint every active agent sits at its
        # peak, and the last probe shipped exactly these caps already.
        while top > previous_break:
            # frozen agents keep the caps of the probe before, which froze them
            probe = lcm(scale, lam.denominator)
            caps = [None if c is None else c * (probe // scale) for c in caps] if probe != scale else caps[:]
            level = lam.numerator * (probe // lam.denominator)
            for agent in active:
                caps[slots[agent]] = min(level, peaks[agent] * probe)
            flow = max_flow(net.with_scaled_caps(probe, caps), start=flow)
            scale, caps = flow.network.scaled_caps
            # the flow's value is its cut's capacity, a sum of caps on this scale
            shipped = flow.value.numerator * (scale // flow.value.denominator)
            deficit = sum(caps[slot] for slot in slots.values()) - shipped
            if not deficit:
                break
            # On the minimum cut max_flow certified, the deficit is the cut side's excess.
            cut_side = flow.cut
            cut_caps = [caps[slots[a]] for a in active if supply_arcs[a][1] in cut_side]
            lowered = _lowered_cap(cut_caps, deficit, scale)
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
        bottleneck_side = maximal_min_cut(flow.network, flow)
        _bottleneck_identity(flow.network, bottleneck_side)
        newly = [agent for agent in active if supply_arcs[agent][1] in bottleneck_side]
        if not newly:
            raise MechanismError("breakpoint without a bottlenecked agent")
        fresh_nodes = {supply_arcs[agent][1] for agent in newly}
        image = frozenset(
            head for (tail, head), x in zip(net.index.arcs, flow.values.ints) if tail in fresh_nodes and x > 0
        )
        trace.append(Breakpoint(lam=lam, kind="type-2", bottleneck=frozenset(newly), image=image))
        for agent in newly:  # min(lam, peak)
            frozen[agent] = lam if lam.numerator <= peaks[agent] * lam.denominator else Fraction(peaks[agent])
        active = [agent for agent in active if agent not in newly]

    if flow is None:  # no agents, so no probe: the zero flow ships the empty profile
        flow = Flow(values=Scaled(net.index, 1, [0] * len(caps)), value=Fraction(0))
    # ``flow`` is the last probe's, and its network has the frozen caps.
    if flow.value.numerator * scale != sum(caps[slot] for slot in slots.values()) * flow.value.denominator or any(
        frozen[agent].numerator * scale != caps[slot] * frozen[agent].denominator for agent, slot in slots.items()
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
        lam, flow = _sup_full_shipping(net, const_caps, linear, Fraction(0), top)
        blocked = maximal_min_cut(flow.network, flow)
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


def egalitarian_divisible(inst: Instance) -> tuple[UtilityProfile, dict[tuple[str, str], Fraction]]:
    """Egalitarian profile for divisible goods plus a symmetric edge exchange
    realizing it: f_ij = (g(a_i, b_j) + g(a_j, b_i)) / 2 with both flow margins
    pinned to the profile. The profile carries that pinned flow and the fill's
    breakpoints."""
    construction = build_divisible(inst)
    filled = egalitarian_profile(construction)
    pinned = {arc: filled[agent] for agent, arc in construction.supply_arcs.items()}
    pinned.update({(_b(agent), SINK): filled[agent] for agent in construction.agents})
    # The fill's flow ships the profile on every supply arc; max_flow cancels
    # what it carries above the profile on demand arcs, then augments back.
    flow = max_flow(construction.network.with_caps(pinned), start=filled.flow)
    # the fill's closing check showed its flow's value to be the profile's total
    if flow.value != filled.flow.value:
        raise MechanismError("profile is not realizable by a divisible maximum flow")
    profile = replace(filled, flow=flow)
    # twice each amount, on the flow's ints: both endpoints sum in one pass
    ints, scale, arc_ids = flow.values.ints, 2 * flow.values.scale, flow.values.index.arc_ids
    exchange: dict[tuple[str, str], Fraction] = {}
    shared: dict[int, Fraction] = {}  # equal amounts share one Fraction
    induced = dict.fromkeys(inst.nodes, 0)
    for edge in inst.edges:
        u, v = edge
        twice = ints[arc_ids[(_a(u), _b(v))]] + ints[arc_ids[(_a(v), _b(u))]]
        exchange[edge] = shared.setdefault(twice, Fraction(twice, scale))
        induced[u] += twice
        induced[v] += twice
    for node in inst.nodes:
        x = profile[node]
        if induced[node] * x.denominator != x.numerator * scale:
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
    flow: Flow
    combination: ConvexCombination

    def __post_init__(self) -> None:
        if any(p <= 0 for _, p in self.entries):
            raise MechanismError("lottery probabilities must be positive")
        if sum((p for _, p in self.entries), Fraction(0)) != 1:
            raise MechanismError("lottery probabilities must sum to 1")

    def to_json(self) -> list[dict]:
        return [
            {"prob": format_rational(p), "matching": matching.to_json()}
            for matching, p in self.entries
        ]


def build_lottery(
    inst: Instance, construction: BipartiteConstruction, profile: UtilityProfile
) -> Lottery:
    """Realize a fractional egalitarian profile as a lottery over integral maximum
    b-matchings: decompose the profile's maximum flow, which must be a flow of
    this construction's network (the water-fill's own), then map every integral
    member back to a b-matching (perfect side internally, over-demanded exchange
    from the arcs, components completed to their internal totals).

    Each member is read once, on its ints: an arc is integral when its int is a
    multiple of the member's scale. Members often share a component's targets,
    so each distinct (component, targets) is realized once per lottery. The
    expectation is totalled in ints over the weights' common denominator."""
    if construction.kind != "indivisible":
        raise MechanismError("lotteries are defined for the indivisible construction")
    ged = construction.ged
    assert ged is not None
    flow = profile.flow
    if flow is None or flow.values.keys() != construction.network.arcs.keys():
        raise MechanismError("the profile carries no flow of this construction")
    try:
        combination = decompose_max_flow(construction.network, flow)
    except FlowError as exc:
        raise MechanismError(f"the profile's flow does not decompose: {exc}") from exc

    # Every maximum b-matching matches V^P perfectly inside V^P (Gallai-Edmonds
    # structure theorem), so the decomposition's own matching holds that part.
    perfect_part = BMatching(
        {edge: mult for edge, mult in ged.matching.multiplicities.items() if ged.perfect.issuperset(edge)}
    )
    degrees = perfect_part.utilities(inst)
    if any(degrees[node] != inst.peaks[node] for node in ged.perfect):
        raise MechanismError("perfectly matched agents cannot be saturated internally")

    # What every member is read on, by arc id: the exchange arcs with their edges, the supply
    # arcs, and per multi-node odd component its arc per node in instance order (_realize's
    # order) and its edges.
    arc_ids = construction.network.index.arc_ids
    exchange = [(arc_ids[arc], tag[1]) for arc, tag in construction.provenance.items() if tag[0] == "exchange"]
    supply = [(agent, arc_ids[arc]) for agent, arc in construction.supply_arcs.items()]
    components = []
    for index, component in enumerate(ged.odd_components):
        if len(component) >= 2:
            keep = set(component)
            arcs = {node: arc_ids[(_a(node), _component(index))] for node in inst.peaks if node in keep}
            edges = tuple(e for e in inst.edges if e[0] in keep and e[1] in keep)
            components.append((component, arcs, edges))
    denominator = lcm(*(weight.denominator for _, weight in combination.entries))
    expected = dict.fromkeys(construction.supply_arcs, 0)  # times the denominator
    entries = []
    realized: dict[tuple, BMatching | None] = {}
    for member, weight in combination.entries:
        ints, scale = member.values.ints, member.values.scale
        multiplicities = dict(perfect_part.multiplicities)
        for arc, edge in exchange:  # one arc per edge, none inside V^P
            amount, fraction = divmod(ints[arc], scale)
            if fraction:
                raise MechanismError("integral member has a fractional exchange arc")
            multiplicities[edge] = amount
        for component, arcs, edges in components:
            targets = {}
            for node, arc in arcs.items():
                amount, fraction = divmod(ints[arc], scale)
                if fraction:
                    raise MechanismError("integral member has a fractional component arc")
                targets[node] = amount
            key = (component, tuple(targets.values()))
            if key not in realized:
                realized[key] = _realize(targets, edges)
            matched = realized[key]
            if matched is None:
                listed = {node: targets[node] for node in component}
                raise MechanismError(f"component {component!r}: internal targets {listed!r} are unrealizable")
            multiplicities.update(matched.multiplicities)
        matching = BMatching({edge: mult for edge, mult in multiplicities.items() if mult})
        matching.check_feasible(inst)
        utilities = matching.utilities(inst)
        share = weight.numerator * (denominator // weight.denominator)
        for agent, arc in supply:
            used = utilities[agent]
            if used * scale != ints[arc]:
                shipped = Fraction(ints[arc], scale)
                raise MechanismError(f"agent {agent!r}: matched {used} but the member ships {shipped}")
            expected[agent] += share * used
        if sum(utilities.values()) != flow.value:
            raise MechanismError("lottery member is not a maximum b-matching")
        entries.append((matching, weight))
    for agent, total in expected.items():
        if Fraction(total, denominator) != profile[agent]:
            raise MechanismError(f"lottery expectation misses the profile at {agent!r}")
    return Lottery(entries=tuple(entries), flow=flow, combination=combination)


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
