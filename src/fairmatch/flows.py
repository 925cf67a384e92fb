"""Exact-rational s-t maximum flow, minimum cuts, and decomposition of a
fractional maximum flow into a convex combination of integral maximum flows."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import ceil, floor
from typing import Mapping

Arc = tuple[str, str]
#: Unbounded capacity sentinel. Never allowed on source- or sink-incident arcs.
UNBOUNDED = None


class FlowError(ValueError):
    """Invalid network, flow, or decomposition arguments."""


def _coerce_cap(arc: Arc, cap) -> Fraction | None:
    if cap is UNBOUNDED:
        return None
    value = Fraction(cap)
    if value < 0:
        raise FlowError(f"arc {arc!r}: negative capacity {cap!r}")
    return value


@dataclass(frozen=True)
class FlowNetwork:
    """Directed capacitated network with distinguished source and sink."""

    source: str
    sink: str
    arcs: dict[Arc, Fraction | None]

    def __post_init__(self) -> None:
        if self.source == self.sink:
            raise FlowError("source and sink must differ")
        coerced: dict[Arc, Fraction | None] = {}
        for arc, cap in self.arcs.items():
            u, v = arc
            if u == v:
                raise FlowError(f"self-loop arc {arc!r}")
            if v == self.source:
                raise FlowError(f"arc into the source: {arc!r}")
            if u == self.sink:
                raise FlowError(f"arc out of the sink: {arc!r}")
            value = _coerce_cap(arc, cap)
            if value is None and (u == self.source or v == self.sink):
                raise FlowError(f"unbounded capacity on terminal-incident arc {arc!r}")
            coerced[arc] = value
        object.__setattr__(self, "arcs", coerced)

    @cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        """Residual-traversal neighbor lists (both arc directions), sorted; the
        keys are the node set. Built once per network."""
        nbrs: dict[str, set[str]] = {self.source: set(), self.sink: set()}
        for u, v in self.arcs:
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
        return {node: tuple(sorted(out)) for node, out in nbrs.items()}

    def with_caps(self, overrides: Mapping[Arc, Fraction | int | None]) -> "FlowNetwork":
        """A copy with some arc capacities replaced. The arc set is unchanged, so
        the copy shares this network's neighbor lists."""
        unknown = set(overrides) - set(self.arcs)
        if unknown:
            raise FlowError(f"cannot override missing arcs {sorted(unknown)!r}")
        arcs = dict(self.arcs)
        arcs.update(overrides)
        copy = FlowNetwork(self.source, self.sink, arcs)
        copy.__dict__["neighbors"] = self.neighbors
        return copy


@dataclass(frozen=True)
class Flow:
    """A feasible flow: exact arc values plus the value shipped source to sink."""

    values: dict[Arc, Fraction]
    value: Fraction

    def on(self, u: str, v: str) -> Fraction:
        return self.values.get((u, v), Fraction(0))

    def to_json(self) -> list[dict]:
        return [
            {"from": u, "to": v, "amount": f"{x.numerator}/{x.denominator}"}
            for (u, v), x in sorted(self.values.items())
            if x
        ]


def _residual(net: FlowNetwork, values: Mapping[Arc, Fraction], u: str, v: str) -> Fraction | None:
    """Residual capacity from u to v; None means unbounded. A missing arc or
    flow value counts as 0."""
    back = values.get((v, u), 0)
    if (u, v) not in net.arcs:
        return back
    cap = net.arcs[(u, v)]
    return None if cap is None else cap - values.get((u, v), 0) + back


def _search(net: FlowNetwork, values: Mapping[Arc, Fraction], backward: bool = False) -> dict[str, str]:
    """BFS parent map of the residual network of ``values``: forward from the
    source, or backward from the sink (along residual arcs into each node).
    Stops once it reaches the other terminal."""
    start, goal = (net.sink, net.source) if backward else (net.source, net.sink)
    nbrs = net.neighbors
    parent = {start: start}
    queue = deque([start])
    while queue and goal not in parent:
        u = queue.popleft()
        for v in nbrs[u]:
            if v in parent:
                continue
            spare = _residual(net, values, v, u) if backward else _residual(net, values, u, v)
            if spare is None or spare > 0:
                parent[v] = u
                queue.append(v)
    return parent


def _check_feasible(net: FlowNetwork, flow: Flow) -> None:
    balance: dict[str, Fraction] = {}
    for arc, x in flow.values.items():
        if arc not in net.arcs:
            raise FlowError(f"flow on missing arc {arc!r}")
        cap = net.arcs[arc]
        if x < 0 or (cap is not None and x > cap):
            raise FlowError(f"arc {arc!r}: flow {x} outside [0, {cap}]")
        u, v = arc
        balance[u] = balance.get(u, Fraction(0)) - x
        balance[v] = balance.get(v, Fraction(0)) + x
    for node, net_in in balance.items():
        if node not in (net.source, net.sink) and net_in != 0:
            raise FlowError(f"conservation violated at {node!r} (imbalance {net_in})")
    if balance.get(net.source, Fraction(0)) != -flow.value:
        raise FlowError("flow value does not match net outflow of the source")


def max_flow(net: FlowNetwork) -> Flow:
    """Maximum flow by shortest augmenting paths; integral whenever capacities are."""
    values: dict[Arc, Fraction] = {arc: Fraction(0) for arc in net.arcs}
    total = Fraction(0)
    while True:
        parent = _search(net, values)
        if net.sink not in parent:
            return Flow(values=values, value=total)
        path: list[Arc] = []
        v = net.sink
        while v != net.source:
            path.append((parent[v], v))
            v = parent[v]
        path.reverse()
        bottleneck: Fraction | None = None
        for u, v in path:
            spare = _residual(net, values, u, v)
            if spare is not None and (bottleneck is None or spare < bottleneck):
                bottleneck = spare
        if bottleneck is None:
            raise FlowError("unbounded augmenting path (unbounded terminal arc?)")
        for u, v in path:
            back = values.get((v, u), 0)
            cancel = min(bottleneck, back)
            if cancel:
                values[(v, u)] = back - cancel
            if bottleneck - cancel:
                values[(u, v)] += bottleneck - cancel
        total += bottleneck


def min_cut(net: FlowNetwork, flow: Flow) -> frozenset[str]:
    """The minimal minimum cut (source side): nodes the source reaches in the
    residual network, certified against ``flow``.

    Raises :class:`FlowError` when ``flow`` is not maximum.
    """
    _check_feasible(net, flow)
    reachable = _search(net, flow.values)
    if net.sink in reachable:
        raise FlowError("flow is not maximum: augmenting path exists")
    return frozenset(reachable)


def maximal_min_cut(net: FlowNetwork, flow: Flow) -> frozenset[str]:
    """The maximal minimum cut (source side): nodes that cannot reach the sink."""
    _check_feasible(net, flow)
    reaches_sink = _search(net, flow.values, backward=True)
    if net.source in reaches_sink:
        raise FlowError("flow is not maximum: augmenting path exists")
    return frozenset(net.neighbors.keys() - reaches_sink.keys())


def is_maximum(net: FlowNetwork, flow: Flow) -> bool:
    try:
        min_cut(net, flow)
    except FlowError:
        return False
    return True


@dataclass(frozen=True)
class ConvexCombination:
    """Integral maximum flows with positive rational weights summing to one."""

    entries: tuple[tuple[Flow, Fraction], ...]

    def __post_init__(self) -> None:
        weights = [w for _, w in self.entries]
        if any(w <= 0 or w > 1 for w in weights):
            raise FlowError("weights must lie in (0, 1]")
        if sum(weights, Fraction(0)) != 1:
            raise FlowError("weights must sum to exactly 1")

    def combined_values(self) -> dict[Arc, Fraction]:
        arcs: dict[Arc, Fraction] = {}
        for flow, weight in self.entries:
            for arc, x in flow.values.items():
                arcs[arc] = arcs.get(arc, Fraction(0)) + weight * x
        return arcs


def _integral_flow_in_box(
    net: FlowNetwork,
    lower: dict[Arc, int],
    upper: dict[Arc, int],
    value: int,
) -> dict[Arc, int]:
    """An integral flow of the given value with lower <= g <= upper on every arc.

    Standard lower-bound reduction: shift out the lower bounds, force the value
    with a zero-slack return arc, and saturate the induced super-source.
    """
    super_source, super_sink = "@@box_source", "@@box_sink"
    excess: dict[str, int] = {}
    helper_arcs: dict[Arc, Fraction | None] = {}
    for arc, lo in lower.items():
        hi = upper[arc]
        u, v = arc
        if hi - lo:
            helper_arcs[("n:" + u, "n:" + v)] = Fraction(hi - lo)
        excess[v] = excess.get(v, 0) + lo
        excess[u] = excess.get(u, 0) - lo
    excess[net.source] = excess.get(net.source, 0) + value
    excess[net.sink] = excess.get(net.sink, 0) - value
    helper_arcs[("n:" + net.sink, "n:" + net.source)] = Fraction(0)
    need = 0
    for node, amount in excess.items():
        if amount > 0:
            helper_arcs[(super_source, "n:" + node)] = Fraction(amount)
            need += amount
        elif amount < 0:
            helper_arcs[("n:" + node, super_sink)] = Fraction(-amount)
    helper = FlowNetwork(super_source, super_sink, helper_arcs)
    solved = max_flow(helper)
    if solved.value != need:
        raise FlowError("no integral maximum flow inside the rounding box")
    result: dict[Arc, int] = {}
    for arc, lo in lower.items():
        u, v = arc
        shifted = solved.values.get(("n:" + u, "n:" + v), Fraction(0))
        if shifted.denominator != 1:
            raise FlowError("box flow came out fractional")
        result[arc] = lo + int(shifted)
    return result


def decompose_max_flow(net: FlowNetwork, flow: Flow) -> ConvexCombination:
    """Write a rational maximum flow as an exact convex combination of integral
    maximum flows of the same network.

    Iterative peeling: pick an integral maximum flow inside the current
    rounding box [floor(f), ceil(f)], peel it with the largest weight that keeps
    the remainder inside the box, and recurse. Each peel pins at least one
    fractional arc to an integer, so the support has at most #arcs + 1 members.
    """
    for arc, cap in net.arcs.items():
        if cap is not None and cap.denominator != 1:
            raise FlowError(f"arc {arc!r}: decomposition requires integer capacities")
    if not is_maximum(net, flow):
        raise FlowError("decomposition requires a maximum flow")
    if flow.value.denominator != 1:
        raise FlowError("maximum flow value is fractional despite integer capacities")
    target = int(flow.value)

    current = {arc: flow.values.get(arc, Fraction(0)) for arc in net.arcs}
    remaining = Fraction(1)
    entries: list[tuple[Flow, Fraction]] = []
    for _ in range(len(net.arcs) + 1):
        fractional = [arc for arc, x in current.items() if x.denominator != 1]
        if not fractional:
            member = Flow(values=dict(current), value=Fraction(target))
            if not is_maximum(net, member):
                raise FlowError("peeled member is not a maximum flow")
            entries.append((member, remaining))
            break
        lower = {arc: floor(x) for arc, x in current.items()}
        upper = {arc: ceil(x) for arc, x in current.items()}
        integral = _integral_flow_in_box(net, lower, upper, target)
        theta = Fraction(1)
        for arc in fractional:
            frac = current[arc] - lower[arc]
            bound = frac if integral[arc] == upper[arc] else 1 - frac
            theta = min(theta, bound)
        if not 0 < theta < 1:
            raise FlowError("peeling made no progress")
        member = Flow(
            values={arc: Fraction(g) for arc, g in integral.items()},
            value=Fraction(target),
        )
        if not is_maximum(net, member):
            raise FlowError("peeled member is not a maximum flow")
        entries.append((member, theta * remaining))
        current = {
            arc: (x - theta * integral[arc]) / (1 - theta) for arc, x in current.items()
        }
        remaining *= 1 - theta
    else:
        raise FlowError("decomposition failed to terminate")

    combo = ConvexCombination(entries=tuple(entries))
    recombined = combo.combined_values()
    for arc in net.arcs:
        if recombined.get(arc, Fraction(0)) != flow.values.get(arc, Fraction(0)):
            raise FlowError(f"decomposition does not reproduce the flow on arc {arc!r}")
    return combo
