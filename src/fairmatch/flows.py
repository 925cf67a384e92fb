"""Exact-rational s-t maximum flow, minimum cuts, and decomposition of a
fractional maximum flow into a convex combination of integral maximum flows."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping

from .instance import _exact, format_rational

Arc = tuple[str, str]
#: Unbounded capacity sentinel. Never allowed on source- or sink-incident arcs.
UNBOUNDED = None


class FlowError(ValueError):
    """Invalid network, flow, or decomposition arguments."""


def _coerce_cap(arc: Arc, cap, terminal: bool) -> Fraction | None:
    if cap is UNBOUNDED:
        if terminal:
            raise FlowError(f"unbounded capacity on terminal-incident arc {arc!r}")
        return None
    if not _exact(cap):
        raise FlowError(f"arc {arc!r}: capacity {cap!r} is not an int or a Fraction")
    value = cap if isinstance(cap, Fraction) else Fraction(cap)
    if value.numerator < 0:
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
            coerced[arc] = _coerce_cap(arc, cap, u == self.source or v == self.sink)
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

    @cached_property
    def scaled_caps(self) -> tuple[int, dict[Arc, int | None]]:
        """``scale``, a common denominator of the finite caps, and the caps times
        it (unbounded stays None). A :meth:`with_caps` copy derives its own from
        its parent's, so its scale may be a multiple of the least one."""
        scale = lcm(*{cap.denominator for cap in self.arcs.values() if cap is not None})
        return scale, {
            arc: None if c is None else c.numerator * (scale // c.denominator) for arc, c in self.arcs.items()
        }

    def with_caps(self, overrides: Mapping[Arc, Fraction | int | None]) -> "FlowNetwork":
        """A copy with some arc capacities replaced. The arc set is unchanged, so
        only the new caps are checked and scaled, and the copy shares this
        network's already coerced and scaled caps and its neighbor lists."""
        unknown = set(overrides) - set(self.arcs)
        if unknown:
            raise FlowError(f"cannot override missing arcs {sorted(unknown)!r}")
        arcs, new = dict(self.arcs), {}
        for (u, v), cap in overrides.items():
            arcs[(u, v)] = new[(u, v)] = _coerce_cap((u, v), cap, u == self.source or v == self.sink)
        old, caps = self.scaled_caps
        scale = lcm(old, *{cap.denominator for cap in new.values() if cap is not None})
        caps = {arc: None if c is None else c * (scale // old) for arc, c in caps.items()}
        for arc, cap in new.items():
            caps[arc] = None if cap is None else cap.numerator * (scale // cap.denominator)
        copy = object.__new__(FlowNetwork)
        copy.__dict__.update(source=self.source, sink=self.sink, arcs=arcs, neighbors=self.neighbors)
        copy.__dict__["scaled_caps"] = scale, caps
        return copy


class ScaledValues(Mapping):
    """A flow's arc values as ints over one common ``scale``, read-only: an arc
    becomes a ``Fraction`` only when it is read."""

    def __init__(self, scale: int, ints: dict[Arc, int]) -> None:
        self.scale, self.ints = scale, ints

    def __getitem__(self, arc: Arc) -> Fraction:
        return Fraction(self.ints[arc], self.scale)

    def __iter__(self) -> Iterator[Arc]:
        return iter(self.ints)

    def __len__(self) -> int:
        return len(self.ints)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class Flow:
    """A feasible flow: exact arc values plus the value shipped source to sink.
    A flow returned by :func:`max_flow` keeps its ints as :class:`ScaledValues`
    and carries ``cut``, the source side of the minimal minimum cut certifying it."""

    values: Mapping[Arc, Fraction]
    value: Fraction
    cut: frozenset[str] | None = field(default=None, compare=False, repr=False)

    def on(self, u: str, v: str) -> Fraction:
        return self.values.get((u, v), Fraction(0))

    def to_json(self) -> list[dict]:
        return [
            {"from": u, "to": v, "amount": format_rational(x)}
            for (u, v), x in sorted(self.values.items())
            if x
        ]


def _residual(caps: Mapping, values: Mapping, u: str, v: str) -> Fraction | int | None:
    """Residual capacity from u to v under ``caps`` (the arcs or their scaled
    copy); None means unbounded. A missing arc or flow value counts as 0."""
    back = values.get((v, u), 0)
    if (u, v) not in caps:
        return back
    cap = caps[(u, v)]
    return None if cap is None else cap - values.get((u, v), 0) + back


def _search(net: FlowNetwork, caps: Mapping, values: Mapping, backward: bool = False) -> dict[str, str]:
    """BFS parent map of the residual network of ``values`` under ``caps``:
    forward from the source, or backward from the sink (along residual arcs
    into each node). Stops once it reaches the other terminal."""
    start, goal = (net.sink, net.source) if backward else (net.source, net.sink)
    nbrs = net.neighbors
    parent = {start: start}
    queue = deque([start])
    while queue and goal not in parent:
        u = queue.popleft()
        for v in nbrs[u]:
            if v in parent:
                continue
            spare = _residual(caps, values, v, u) if backward else _residual(caps, values, u, v)
            if spare is None or spare > 0:
                parent[v] = u
                queue.append(v)
    return parent


def _tree_path(parent: dict[str, str], v: str) -> list[Arc]:
    """Arcs of the search-tree path from the root of ``parent`` to ``v``."""
    path: list[Arc] = []
    while parent[v] != v:
        path.append((parent[v], v))
        v = parent[v]
    path.reverse()
    return path


def _scaled(net: FlowNetwork, flow: Flow | None, as_start: bool = False) -> tuple[int, dict, dict[Arc, int], int]:
    """``scale``, a common denominator of the finite caps and of ``flow``, and
    the caps (unbounded stays None), arc values and value times ``scale``, as
    the ints every search and check of this module runs on."""
    scale, caps = net.scaled_caps
    if flow is None:
        return scale, caps, {}, 0
    own = flow.values
    if not isinstance(own, ScaledValues):
        names = ("start value", "start flow") if as_start else ("flow value", "flow")
        for arc, x in [*own.items(), (None, flow.value)]:
            if not _exact(x):
                where = names[0] if arc is None else f"arc {arc!r}: {names[1]}"
                raise FlowError(f"{where} {x!r} is not an int or a Fraction")
        least = lcm(*{x.denominator for x in own.values()})
        own = ScaledValues(least, {arc: x.numerator * (least // x.denominator) for arc, x in own.items()})
    common = lcm(scale, own.scale, flow.value.denominator)
    if common != scale:
        caps = {arc: None if c is None else c * (common // scale) for arc, c in caps.items()}
    values = own.ints if common == own.scale else {arc: x * (common // own.scale) for arc, x in own.ints.items()}
    return common, caps, values, flow.value.numerator * (common // flow.value.denominator)


def _certify(net: FlowNetwork, caps: Mapping, values: Mapping[Arc, int], total: int, scale: int, side=None) -> None:
    """Raise :class:`FlowError` unless ``values`` is a feasible flow of value
    ``total`` under ``caps``, all scaled by ``scale``. Given a source ``side``
    (``values`` then holds every arc), also unless the arcs leaving it have
    capacity ``total``: no flow ships more than any cut's capacity (weak
    duality; Ahuja, Magnanti & Orlin, *Network Flows*, 1993, section 6.5), so
    the flow is maximum and the cut minimum."""
    balance: dict[str, int] = {}
    crossing = 0
    for arc, x in values.items():
        if arc not in caps:
            raise FlowError(f"flow on missing arc {arc!r}")
        cap = caps[arc]
        if x < 0 or (cap is not None and x > cap):
            bound = None if cap is None else Fraction(cap, scale)
            raise FlowError(f"arc {arc!r}: flow {Fraction(x, scale)} outside [0, {bound}]")
        u, v = arc
        balance[u] = balance.get(u, 0) - x
        balance[v] = balance.get(v, 0) + x
        if side is not None and u in side and v not in side:
            if cap is None:
                raise FlowError(f"flow is not maximum: unbounded arc {arc!r} leaves its cut")
            crossing += cap
    for node, net_in in balance.items():
        if node not in (net.source, net.sink) and net_in:
            raise FlowError(f"conservation violated at {node!r} (imbalance {Fraction(net_in, scale)})")
    if balance.get(net.source, 0) != -total:
        raise FlowError("flow value does not match net outflow of the source")
    if side is not None and crossing != total:
        raise FlowError("flow is not maximum: its cut has more capacity than its value")


def _cancel_excess(net: FlowNetwork, caps: Mapping[Arc, int], values: dict[Arc, int]) -> int:
    """Bring every terminal arc down to its cap: cancel the flow it carries above
    the cap along shortest paths of positive-flow arcs, searched in
    ``net.neighbors`` order. Arcs out of the source go first, each along paths
    from its head to the sink; then arcs into the sink, each along paths from
    the source to its tail. Returns the value cancelled."""
    source, sink = net.source, net.sink
    nbrs = net.neighbors
    terminal_arcs = [(source, head) for head in nbrs[source]]
    terminal_arcs += [(tail, sink) for tail in nbrs[sink]]
    cancelled = 0
    for arc in terminal_arcs:
        tail, head = arc
        start, goal = (head, sink) if tail == source else (source, tail)
        excess = values[arc] - caps[arc]
        while excess > 0:
            parent = {start: start}
            queue = deque([start])
            while queue and goal not in parent:
                u = queue.popleft()
                for v in nbrs[u]:
                    if v not in parent and values.get((u, v), 0) > 0:
                        parent[v] = u
                        queue.append(v)
            if goal not in parent:
                raise FlowError(f"arc {arc!r}: cannot cancel the flow above its cap")
            path = _tree_path(parent, goal)
            amount = min([excess, *(values[a] for a in path)])
            for a in [arc, *path]:
                values[a] -= amount
            excess -= amount
            cancelled += amount
    return cancelled


def max_flow(net: FlowNetwork, start: Flow | None = None) -> Flow:
    """Maximum flow by shortest augmenting paths; integral whenever capacities
    and ``start`` are.

    Without ``start`` the search begins from zero flow. With it, it begins from
    ``start``, which must be a feasible flow of ``net`` except that terminal
    arcs (out of the source or into the sink) may carry more than their caps;
    that excess is cancelled first (see :func:`_cancel_excess`). Raises :class:`FlowError` when the excess
    cannot be cancelled or ``start`` is infeasible in any other way.

    The search runs on ints: caps and ``start`` times a common denominator,
    which keeps the same paths. The last search reaches the nodes of the
    minimal minimum cut; the flow is certified against that cut on the same
    ints (see :func:`_certify`) and returned with it, as :class:`ScaledValues`
    divided by their gcd with the scale: the least common denominator.
    """
    scale, caps, given, total = _scaled(net, start, as_start=True)
    values = dict.fromkeys(net.arcs, 0)
    if start is not None:
        values.update(given)
        total -= _cancel_excess(net, caps, values)
        _certify(net, caps, values, total, scale)
    while True:
        parent = _search(net, caps, values)
        if net.sink not in parent:
            _certify(net, caps, values, total, scale, side=parent)
            common = gcd(scale, total, *values.values())
            return Flow(
                values=ScaledValues(scale // common, {arc: x // common for arc, x in values.items()}),
                value=Fraction(total, scale),
                cut=frozenset(parent),
            )
        path = _tree_path(parent, net.sink)
        bottleneck: int | None = None
        for u, v in path:
            spare = _residual(caps, values, u, v)
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


def _feasible(net: FlowNetwork, flow: Flow) -> tuple[dict, dict[Arc, int]]:
    """The scaled caps and values of ``flow``, checked feasible."""
    scale, caps, values, total = _scaled(net, flow)
    _certify(net, caps, values, total, scale)
    return caps, values


def min_cut(net: FlowNetwork, flow: Flow) -> frozenset[str]:
    """The minimal minimum cut (source side): nodes the source reaches in the
    residual network, certified against ``flow``.

    Raises :class:`FlowError` when ``flow`` is not maximum.
    """
    reachable = _search(net, *_feasible(net, flow))
    if net.sink in reachable:
        raise FlowError("flow is not maximum: augmenting path exists")
    return frozenset(reachable)


def maximal_min_cut(net: FlowNetwork, flow: Flow) -> frozenset[str]:
    """The maximal minimum cut (source side): nodes that cannot reach the sink."""
    reaches_sink = _search(net, *_feasible(net, flow), backward=True)
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
    loose: Mapping[Arc, int],
    value: int,
) -> dict[Arc, int]:
    """An integral flow of the given value with lower <= g <= lower + 1 on the
    ``loose`` arcs and g == lower on every other arc.

    Standard lower-bound reduction: shift out the lower bounds, force the value
    with a zero-slack return arc, and saturate the induced super-source.
    """
    super_source, super_sink = "@@box_source", "@@box_sink"
    excess: dict[str, int] = {}
    helper_arcs: dict[Arc, int] = {}
    for arc, lo in lower.items():
        u, v = arc
        if arc in loose:
            helper_arcs[("n:" + u, "n:" + v)] = 1
        excess[v] = excess.get(v, 0) + lo
        excess[u] = excess.get(u, 0) - lo
    excess[net.source] = excess.get(net.source, 0) + value
    excess[net.sink] = excess.get(net.sink, 0) - value
    helper_arcs[("n:" + net.sink, "n:" + net.source)] = 0
    need = 0
    for node, amount in excess.items():
        if amount > 0:
            helper_arcs[(super_source, "n:" + node)] = amount
            need += amount
        elif amount < 0:
            helper_arcs[("n:" + node, super_sink)] = -amount
    helper = FlowNetwork(super_source, super_sink, helper_arcs)
    solved = max_flow(helper)
    if solved.value != need:
        raise FlowError("no integral maximum flow inside the rounding box")
    shifted = solved.values
    if shifted.scale != 1:
        raise FlowError("box flow came out fractional")
    return {arc: lo + shifted.ints.get(("n:" + arc[0], "n:" + arc[1]), 0) for arc, lo in lower.items()}


def decompose_max_flow(net: FlowNetwork, flow: Flow) -> ConvexCombination:
    """Write a rational maximum flow as an exact convex combination of integral
    maximum flows of the same network.

    Iterative peeling: pick an integral maximum flow inside the current
    rounding box [floor(f), ceil(f)], peel it with the largest weight that keeps
    the remainder inside the box, and recurse. Each peel pins at least one
    fractional arc to an integer, so the support has at most #arcs + 1 members.

    The peeling runs on ints: ``rest`` (the unpeeled flow) and ``left`` (its
    weight) times the flow's common denominator, so the remainder is
    ``rest / left``. Each member is certified against the input's minimum cut.
    """
    for arc, cap in net.arcs.items():
        if cap is not None and cap.denominator != 1:
            raise FlowError(f"arc {arc!r}: decomposition requires integer capacities")
    # unit-scale caps, whatever scale the network's own scaled caps have
    caps = {arc: None if cap is None else cap.numerator for arc, cap in net.arcs.items()}
    try:
        cut = min_cut(net, flow)
    except FlowError as exc:
        raise FlowError("decomposition requires a maximum flow") from exc
    if flow.value.denominator != 1:
        raise FlowError("maximum flow value is fractional despite integer capacities")
    target = int(flow.value)
    scale, _, scaled, _ = _scaled(net, flow)

    rest = {arc: scaled.get(arc, 0) for arc in net.arcs}
    left = scale
    entries: list[tuple[Flow, Fraction]] = []
    for _ in range(len(net.arcs) + 1):
        lower: dict[Arc, int] = {}
        loose: dict[Arc, int] = {}
        for arc, x in rest.items():
            lower[arc], r = divmod(x, left)
            if r:
                loose[arc] = r
        if loose:
            integral = _integral_flow_in_box(net, lower, loose, target)
            weight = min(r if integral[arc] > lower[arc] else left - r for arc, r in loose.items())
        else:
            integral, weight = lower, left
        _certify(net, caps, integral, target, 1, side=cut)
        member = Flow(values=ScaledValues(1, integral), value=Fraction(target))
        entries.append((member, Fraction(weight, scale)))
        for arc, g in integral.items():
            rest[arc] -= weight * g
        left -= weight
        if not left:
            break
    else:
        raise FlowError("decomposition failed to terminate")

    for arc, x in rest.items():
        if x:
            raise FlowError(f"decomposition does not reproduce the flow on arc {arc!r}")
    return ConvexCombination(entries=tuple(entries))
