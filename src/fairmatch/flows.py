"""Exact-rational s-t maximum flow, minimum cuts, and decomposition of a
fractional maximum flow into a convex combination of integral maximum flows."""

from __future__ import annotations

from collections import namedtuple
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


def _check_cap(arc: Arc, cap, terminal: bool) -> None:
    """Raise :class:`FlowError` unless ``cap`` is None (unbounded, off the
    terminal arcs) or a nonnegative int or Fraction."""
    if cap is UNBOUNDED:
        if terminal:
            raise FlowError(f"unbounded capacity on terminal-incident arc {arc!r}")
    elif not _exact(cap):
        raise FlowError(f"arc {arc!r}: capacity {cap!r} is not an int or a Fraction")
    elif cap.numerator < 0:
        raise FlowError(f"arc {arc!r}: negative capacity {cap!r}")


#: A network's ids: ``nodes`` and ``arcs`` by id (and ``arc_ids``), the tail,
#: head, ``source`` and ``sink`` ids, and per node its residual row, a list of
#: ``(neighbor, forward arc, backward arc)`` in ``neighbors`` order, with -1 for a
#: missing arc. Caps and flow values on it are int lists over arc ids with one
#: extra 0 at the end, so that arc -1 has no capacity and no flow.
_Index = namedtuple("_Index", "nodes arcs tails heads rows source sink arc_ids", defaults=[None])


def _built(source, sink, arcs: Mapping, **cached) -> "FlowNetwork":
    """A network from already checked arcs, with some cached properties given."""
    net = object.__new__(FlowNetwork)
    net.__dict__.update(source=source, sink=sink, arcs=arcs, **cached)
    return net


@dataclass(frozen=True)
class FlowNetwork:
    """Directed capacitated network with distinguished source and sink. Given
    any mapping of int, Fraction or None caps, it keeps them as :class:`Scaled`."""

    source: str
    sink: str
    arcs: Mapping[Arc, Fraction | None]

    def __post_init__(self) -> None:
        if self.source == self.sink:
            raise FlowError("source and sink must differ")
        caps = []
        for arc, cap in self.arcs.items():
            u, v = arc
            if u == v:
                raise FlowError(f"self-loop arc {arc!r}")
            if v == self.source:
                raise FlowError(f"arc into the source: {arc!r}")
            if u == self.sink:
                raise FlowError(f"arc out of the sink: {arc!r}")
            _check_cap(arc, cap, u == self.source or v == self.sink)
            caps.append(cap)
        scale = lcm(*{cap.denominator for cap in caps if cap is not None})
        ints = [None if c is None else c.numerator * (scale // c.denominator) for c in caps]
        # the index is built here, from the arcs as given, before the view replaces them
        object.__setattr__(self, "arcs", Scaled(self.index, scale, ints + [0]))

    @cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        """Sorted residual-traversal neighbor lists (both arc directions) by node."""
        nbrs: dict[str, set[str]] = {self.source: set(), self.sink: set()}
        for u, v in self.arcs:
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
        return {node: tuple(sorted(out)) for node, out in nbrs.items()}

    @cached_property
    def index(self) -> _Index:
        """Built once per arc set: node ids follow ``neighbors``, arc ids ``arcs``."""
        ids = {node: k for k, node in enumerate(self.neighbors)}
        arc_ids = {arc: a for a, arc in enumerate(self.arcs)}
        rows = [  # lists: rows built by tuple(generator) pile up in the tuple free lists once freed
            [(ids[v], arc_ids.get((u, v), -1), arc_ids.get((v, u), -1)) for v in out]
            for u, out in self.neighbors.items()
        ]
        tails, heads = [ids[u] for u, _ in self.arcs], [ids[v] for _, v in self.arcs]
        return _Index(list(ids), list(self.arcs), tails, heads, rows, 0, 1, arc_ids)

    @property
    def scaled_caps(self) -> tuple[int, list[int | None]]:
        """``scale``, the least common denominator of the finite caps, and the
        caps times it by arc id (unbounded stays None), ending with the extra 0."""
        return self.arcs.scale, self.arcs.ints

    def with_caps(self, overrides: Mapping[Arc, Fraction | int | None]) -> "FlowNetwork":
        """A copy with some arc capacities replaced. Only the new caps are
        checked; they are written into this network's scaled caps."""
        arc_ids = self.index.arc_ids
        if unknown := overrides.keys() - arc_ids.keys():
            raise FlowError(f"cannot override missing arcs {sorted(unknown)!r}")
        for (u, v), cap in overrides.items():
            _check_cap((u, v), cap, u == self.source or v == self.sink)
        old, caps = self.scaled_caps
        scale = lcm(old, *{cap.denominator for cap in overrides.values() if cap is not None})
        caps = [None if c is None else c * (scale // old) for c in caps]
        for arc, cap in overrides.items():
            caps[arc_ids[arc]] = None if cap is None else cap.numerator * (scale // cap.denominator)
        return self.with_scaled_caps(scale, caps)

    def with_scaled_caps(self, scale: int, caps: list[int | None]) -> "FlowNetwork":
        """A copy sharing this network's index, with unchecked ``caps`` over
        ``scale`` (by arc id, ending with the extra 0), divided by their gcd
        with it: a copy solves on the least common denominator of its caps."""
        common = gcd(scale, *filter(None, caps)) if scale > 1 else 1
        if common > 1:
            scale, caps = scale // common, [None if c is None else c // common for c in caps]
        shared = {"neighbors": self.neighbors, "index": self.index}
        return _built(self.source, self.sink, Scaled(self.index, scale, caps), **shared)


class Scaled(Mapping):
    """Values on a network's arcs, read-only: ``ints`` over one common
    ``scale``, a list by arc id on the network's index ending with the extra 0.
    A network's caps (None: unbounded) and a solved flow's values are both this
    view; a value becomes a ``Fraction`` only when it is read."""

    def __init__(self, index: _Index, scale: int, ints: list[int | None]) -> None:
        self.index, self.scale, self.ints = index, scale, ints

    def __getitem__(self, arc: Arc) -> Fraction | None:
        x = self.ints[self.index.arc_ids[arc]]
        return None if x is None else Fraction(x, self.scale)

    def __contains__(self, arc) -> bool:
        return arc in self.index.arc_ids

    def __iter__(self) -> Iterator[Arc]:
        return iter(self.index.arcs)

    def __len__(self) -> int:
        return len(self.index.arcs)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class Flow:
    """A feasible flow: exact arc values plus the value shipped source to sink.
    A flow returned by :func:`max_flow` keeps its ints as :class:`Scaled` and
    carries ``side``, the source side of the minimal minimum cut certifying it
    (true at the ids of its nodes on the network's index), and ``network``, the
    network object it was certified on. Only :func:`max_flow` sets them:
    neither is an init field. ``cut`` names that side when it is read."""

    values: Mapping[Arc, Fraction]
    value: Fraction
    side: list | None = field(default=None, init=False, compare=False, repr=False)
    network: FlowNetwork | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def cut(self) -> frozenset[str] | None:
        """The nodes of ``side``, built on each read; None off :func:`max_flow`."""
        return None if self.side is None else _nodes(self.network.index, self.side)

    def to_json(self) -> list[dict]:
        return [
            {"from": u, "to": v, "amount": format_rational(x)}
            for (u, v), x in sorted(self.values.items())
            if x
        ]


def _search(net: FlowNetwork, caps: list, values: list[int], backward: bool = False) -> list:
    """Breadth-first depths in the residual network of ``values`` under ``caps``
    from the source, or backward from the sink (along residual arcs into each
    node), up to the depth of the other terminal: per node, None if the search
    did not reach it, else its distance plus 1. The start reads 1, so every
    reached entry is true and the list is a source side for :func:`_certify`.
    Forward, these are the levels of one phase of :func:`max_flow`."""
    idx = net.index
    start, goal = (idx.sink, idx.source) if backward else (idx.source, idx.sink)
    depth: list = [None] * len(idx.rows)
    depth[start] = 1
    queue = [start]
    for u in queue:
        if depth[goal] is not None:
            break
        deeper = depth[u] + 1
        if backward:  # the arc from v into u is the row entry's backward arc
            for v, b, f in idx.rows[u]:
                if depth[v] is None and (caps[f] is None or caps[f] > values[f] or values[b]):
                    depth[v] = deeper
                    queue.append(v)
        else:
            for v, f, b in idx.rows[u]:
                if depth[v] is None and (caps[f] is None or caps[f] > values[f] or values[b]):
                    depth[v] = deeper
                    queue.append(v)
    return depth


def _augment(path: list[tuple[int, int, int]], caps: list, values: list[int]) -> int:
    """Push the bottleneck along ``path``, row entries from the source to the
    sink, cancelling flow on each backward arc first; returns the bottleneck,
    found in one pass before another updates the values. :class:`FlowError`
    when no arc of the path is bounded."""
    bottleneck = None
    for _, f, b in path:
        if caps[f] is not None:
            spare = caps[f] - values[f] + values[b]
            if bottleneck is None or spare < bottleneck:
                bottleneck = spare
    if bottleneck is None:
        raise FlowError("unbounded augmenting path (unbounded terminal arc?)")
    for _, f, b in path:  # arc -1 takes 0 and stays 0
        back = values[b]
        if back >= bottleneck:
            values[b] = back - bottleneck
        else:
            values[b] = 0
            values[f] += bottleneck - back
    return bottleneck


def _blocking(idx: _Index, caps: list, values: list[int], depth: list) -> int:
    """Augment along shortest paths until none is left at the sink's ``depth``:
    one phase of Dinic's algorithm. A depth-first walk takes, in row order, arcs
    with residual into the next depth, short of the sink's unless into the sink,
    with one current-arc pointer per node. A pointer stays on an arc the walk
    went on along, and moves past one with no residual or into a dead end, whose
    depth becomes None. Each walk finds the first shortest path in row order,
    the path the next :func:`_search` would find (see :func:`max_flow`).
    Returns the value shipped."""
    rows, source, sink = idx.rows, idx.source, idx.sink
    last = depth[sink]
    pointer = [0] * len(rows)
    path: list = []  # row entries from the source to u
    u, shipped = source, 0
    while True:
        if u == sink:
            shipped += _augment(path, caps, values)
            # back to the tail of the first arc left without residual: a walk
            # from the source would retrace the path up to there
            for k, (_, f, b) in enumerate(path):
                if caps[f] == values[f] and not values[b]:
                    break
            del path[k:]
            u = path[-1][0] if path else source
            continue
        row, k, deeper = rows[u], pointer[u], depth[u] + 1
        end = len(row)
        while k < end:
            v, f, b = row[k]
            if depth[v] == deeper and (deeper < last or v == sink):
                if caps[f] is None or caps[f] > values[f] or values[b]:
                    break
            k += 1
        pointer[u] = k
        if k < end:
            path.append(row[k])
            u = row[k][0]
        elif u == source:
            return shipped
        else:
            depth[u] = None
            path.pop()
            u = path[-1][0] if path else source
            pointer[u] += 1


def _scaled(net: FlowNetwork, flow: Flow | None, as_start: bool = False) -> tuple[int, list, list[int], int]:
    """``scale``, a common denominator of the finite caps and of ``flow``, and
    the caps (unbounded stays None), a new list of the arc values by arc id and
    the value, all times ``scale``: the ints every search and check of this
    module runs on. A :class:`Scaled` flow on ``net``'s arc list is read as it
    is; any other flow is checked and written on ``net``'s arc ids first."""
    scale, caps = net.scaled_caps
    if flow is None:
        return scale, caps, [0] * len(caps), 0
    own = flow.values
    if not isinstance(own, Scaled) or own.index.arcs != net.index.arcs:
        names = ("start value", "start flow") if as_start else ("flow value", "flow")
        for arc, x in [*own.items(), (None, flow.value)]:
            if not _exact(x):
                where = names[0] if arc is None else f"arc {arc!r}: {names[1]}"
                raise FlowError(f"{where} {x!r} is not an int or a Fraction")
        arc_ids, ints = net.index.arc_ids, [0] * len(caps)
        least = lcm(*{x.denominator for x in own.values()})
        for arc, x in own.items():
            if arc not in arc_ids:
                raise FlowError(f"flow on missing arc {arc!r}")
            ints[arc_ids[arc]] = x.numerator * (least // x.denominator)
        own = Scaled(net.index, least, ints)
    common = lcm(scale, own.scale, flow.value.denominator)
    if common != scale:
        caps = [None if c is None else c * (common // scale) for c in caps]
    factor = common // own.scale
    values = [x * factor for x in own.ints]  # a new list: max_flow augments it in place
    return common, caps, values, flow.value.numerator * (common // flow.value.denominator)


def _certify(net: FlowNetwork, caps: list, values: list[int], total: int, scale: int, side=None) -> None:
    """Raise :class:`FlowError` unless ``values`` is a feasible flow of value
    ``total`` under ``caps``, all scaled by ``scale``. Given a source ``side``
    (true at the ids of its nodes), also unless the arcs leaving it have
    capacity ``total``: no flow ships more than any cut's capacity (weak
    duality; Ahuja, Magnanti & Orlin, *Network Flows*, 1993, section 6.5), so
    the flow is maximum and the cut minimum."""
    idx = net.index
    balance = [0] * len(idx.nodes)
    crossing = 0
    for arc, x, cap, u, v in zip(idx.arcs, values, caps, idx.tails, idx.heads):
        if x < 0 or (cap is not None and x > cap):
            _bounds(idx, caps, values, scale)
        balance[u] -= x
        balance[v] += x
        if side is not None and side[u] and not side[v]:
            if cap is None:
                raise FlowError(f"flow is not maximum: unbounded arc {arc!r} leaves its cut")
            crossing += cap
    for node, net_in in enumerate(balance):
        if net_in and node != idx.source and node != idx.sink:
            raise FlowError(f"conservation violated at {idx.nodes[node]!r} (imbalance {Fraction(net_in, scale)})")
    if balance[idx.source] != -total:
        raise FlowError("flow value does not match net outflow of the source")
    if side is not None and crossing != total:
        raise FlowError("flow is not maximum: its cut has more capacity than its value")


def _bounds(idx: _Index, caps: list, values: list[int], scale: int) -> None:
    """Raise :class:`FlowError` at the first arc, in arc order, outside [0, cap]."""
    for arc, x, cap in zip(idx.arcs, values, caps):
        if x < 0 or (cap is not None and x > cap):
            raise FlowError(f"arc {arc!r}: flow {Fraction(x, scale)} outside [0, {cap and Fraction(cap, scale)}]")


def _cancel_excess(net: FlowNetwork, caps: list, values: list[int]) -> int:
    """Bring every terminal arc down to its cap: cancel the flow it carries above
    the cap along shortest paths of positive-flow arcs, in row order. Arcs out
    of the source go first, each along paths from its head to the sink; then
    arcs into the sink, each from the source to its tail, skipping arcs without
    excess. A search keeps the arc each reached node came by in a dict of the
    reached nodes; a walk back along the tails gives the path and the amount.
    Returns the value cancelled."""
    idx = net.index
    source, sink, rows, tails = idx.source, idx.sink, idx.rows, idx.tails
    terminal = [f for _, f, _ in rows[source]] + [b for _, _, b in rows[sink]]
    cancelled = 0
    for arc in [a for a in terminal if values[a] > caps[a]]:
        start, goal = (idx.heads[arc], sink) if tails[arc] == source else (source, tails[arc])
        excess = values[arc] - caps[arc]
        while excess > 0:
            came = {start: -1}  # by node: the arc it came by, along arcs with flow (arc -1 has none)
            queue = [start]
            for u in queue:
                if goal in came:
                    break
                for v, f, _ in rows[u]:
                    if v not in came and values[f] > 0:
                        came[v] = f
                        queue.append(v)
            if goal not in came:
                raise FlowError(f"arc {idx.arcs[arc]!r}: cannot cancel the flow above its cap")
            path, amount, v = [arc], excess, goal
            while v != start:
                path.append(f := came[v])
                amount = min(amount, values[f])
                v = tails[f]
            for a in path:
                values[a] -= amount
            excess -= amount
            cancelled += amount
    return cancelled


def max_flow(net: FlowNetwork, start: Flow | None = None) -> Flow:
    """Maximum flow by shortest augmenting paths; integral whenever capacities
    and ``start`` are. The search begins from zero flow, or from ``start``: a
    feasible flow of ``net`` except that terminal arcs (out of the source or
    into the sink) may carry more than their caps. That excess is cancelled
    first (see :func:`_cancel_excess`); :class:`FlowError` when it cannot be,
    or when ``start`` is infeasible in any other way. Only its bounds are checked
    then (:func:`_bounds`): augmenting keeps each inner node's imbalance and moves
    the source's outflow with the value, so the one closing certificate rejects
    an unbalanced or mis-valued start, with the same message.

    The paths are found in phases (Dinitz 1970; Ahuja, Magnanti & Orlin,
    *Network Flows*, 1993, section 7.4): one :func:`_search` sets the depths,
    then :func:`_blocking` augments along every path of the sink's depth. They
    are the paths of one breadth-first search per path (Edmonds & Karp 1972).
    That search sets each node's parent at first discovery, in row order, so
    its path to the sink is the first shortest path in row order, which is the
    path the walk finds. Augmenting only removes level arcs and adds arcs one
    level back, which lie on no path of that length, so each later walk of the
    phase finds the path the next search would.

    It runs on the network's index, on ints: caps and ``start`` times a common
    denominator, which keeps the same paths. The search that misses the sink
    reaches the minimal minimum cut; the flow is certified against it
    (:func:`_certify`) and returned as the :class:`Scaled` list it was solved
    on, over the least common denominator, with that search's depths as
    ``side`` and with ``net``.
    """
    idx = net.index
    scale, caps, values, total = _scaled(net, start, as_start=True)
    if start is not None:
        total -= _cancel_excess(net, caps, values)
        # an inner arc above its cap would give a negative spare and push another past its cap
        _bounds(idx, caps, values, scale)
    while True:
        depth = _search(net, caps, values)
        if depth[idx.sink] is None:
            _certify(net, caps, values, total, scale, side=depth)
            common = gcd(scale, total, *values)
            if common > 1:
                values = [x // common for x in values]
            flow = Flow(values=Scaled(idx, scale // common, values), value=Fraction(total, scale))
            object.__setattr__(flow, "side", depth)  # not init fields: no other caller vouches
            object.__setattr__(flow, "network", net)
            return flow
        total += _blocking(idx, caps, values, depth)


def _check_cut(idx: _Index, caps: list, total: int, side: list) -> None:
    """Raise :class:`FlowError` unless the arcs leaving the source ``side``
    (true at the ids of its nodes) have capacity ``total``, with
    :func:`_certify`'s messages: the cut of a maximum flow."""
    crossing = 0
    for arc, cap, u, v in zip(idx.arcs, caps, idx.tails, idx.heads):
        if side[u] and not side[v]:
            if cap is None:
                raise FlowError(f"flow is not maximum: unbounded arc {arc!r} leaves its cut")
            crossing += cap
    if crossing != total:
        raise FlowError("flow is not maximum: its cut has more capacity than its value")


def _maximum(net: FlowNetwork, flow: Flow, backward: bool = False) -> tuple[int, list[int], list[bool]]:
    """``flow``'s scale and values on ``net`` and a minimum cut's source side
    (true at its nodes' ids) if ``flow`` is maximum there: what the source reaches
    in the residual network, or if ``backward`` what cannot reach the sink. The
    flow is certified feasible first, unless ``max_flow`` certified it on this
    very object (a copy may share the index); the side must pass :func:`_check_cut`."""
    scale, caps, values, total = _scaled(net, flow)
    if flow.network is not net:
        _certify(net, caps, values, total, scale)
    idx = net.index
    depth = _search(net, caps, values, backward)
    if depth[idx.source if backward else idx.sink] is not None:
        raise FlowError("flow is not maximum: augmenting path exists")
    side = [(reached is None) == backward for reached in depth]
    _check_cut(idx, caps, total, side)
    return scale, values, side


def _nodes(idx: _Index, side: list) -> frozenset[str]:
    """The nodes at the true entries of ``side``."""
    return frozenset(node for node, inside in zip(idx.nodes, side) if inside)


def min_cut(net: FlowNetwork, flow: Flow) -> frozenset[str]:
    """The minimal minimum cut (source side): nodes the source reaches in the
    residual network, certified against ``flow``.

    Raises :class:`FlowError` when ``flow`` is not maximum.
    """
    return _nodes(net.index, _maximum(net, flow)[2])


def maximal_min_cut(net: FlowNetwork, flow: Flow) -> frozenset[str]:
    """The maximal minimum cut (source side): nodes that cannot reach the sink,
    certified against ``flow`` like :func:`min_cut`."""
    return _nodes(net.index, _maximum(net, flow, backward=True)[2])


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


def _integral_flow_in_box(net: FlowNetwork, lower: list[int], loose: Mapping[int, int], value: int) -> list[int]:
    """An integral flow of the given value with lower <= g <= lower + 1 on the
    ``loose`` arcs and g == lower on every other arc, all by arc id.

    Standard lower-bound reduction: shift out the lower bounds and saturate the
    induced super-source. The helper keeps ``net``'s ids, arcs (cap 1 if loose,
    else 0) and rows, and adds a super source n, a super sink n + 1 and their arcs.
    """
    idx = net.index
    n, m = len(idx.nodes), len(idx.arcs)
    excess = [0] * n
    for lo, u, v in zip(lower, idx.tails, idx.heads):
        excess[v] += lo
        excess[u] -= lo
    excess[idx.source] += value
    excess[idx.sink] -= value
    tails, heads, caps = [*idx.tails], [*idx.heads], [int(a in loose) for a in range(m)]
    rows = [*idx.rows, [], []]
    # super arcs in reverse name order, each put first in both its rows: a row
    # lists its super neighbor first, and the super rows list nodes in name order
    for _, node in sorted(((idx.nodes[k], k) for k in range(n) if excess[k]), reverse=True):
        tail, head = (n, node) if excess[node] > 0 else (node, n + 1)
        rows[tail] = [(head, len(caps), -1), *rows[tail]]
        rows[head] = [(tail, -1, len(caps)), *rows[head]]
        tails.append(tail)
        heads.append(head)
        caps.append(abs(excess[node]))
    arcs = list(zip(tails, heads))
    index = _Index(range(n + 2), arcs, tails, heads, rows, n, n + 1)
    solved = max_flow(_built(n, n + 1, Scaled(index, 1, caps + [0]), index=index))
    if solved.value != sum(x for x in excess if x > 0):
        raise FlowError("no integral maximum flow inside the rounding box")
    shifted = solved.values
    if shifted.scale != 1:
        raise FlowError("box flow came out fractional")
    return [lo + x for lo, x in zip(lower, shifted.ints[:m])] + [0]


def decompose_max_flow(net: FlowNetwork, flow: Flow) -> ConvexCombination:
    """Write a rational maximum flow as an exact convex combination of integral
    maximum flows of the same network.

    Iterative peeling: pick an integral maximum flow inside the current
    rounding box [floor(f), ceil(f)], peel it with the largest weight that keeps
    the remainder inside the box, and recurse. Each peel pins at least one
    fractional arc to an integer, so the support has at most #arcs + 1 members.
    The peeling runs on ints by arc id: ``rest`` (the unpeeled flow) and
    ``left`` (its weight) times the flow's common denominator, so the remainder
    is ``rest / left``. Each member is certified against the input's minimum
    cut: the source side of the residual search that shows the input maximum.
    """
    scale, caps = net.scaled_caps
    if scale != 1:  # the least common denominator of the caps
        arc = next(arc for arc, cap in zip(net.index.arcs, caps) if cap is not None and cap % scale)
        raise FlowError(f"arc {arc!r}: decomposition requires integer capacities")
    try:
        scale, rest, side = _maximum(net, flow)
    except FlowError as exc:
        raise FlowError("decomposition requires a maximum flow") from exc
    if flow.value.denominator != 1:
        raise FlowError("maximum flow value is fractional despite integer capacities")
    target = int(flow.value)
    idx = net.index

    left = scale
    entries: list[tuple[Flow, Fraction]] = []
    for _ in range(len(net.arcs) + 1):
        lower = [x // left for x in rest]
        loose = {a: r for a, x in enumerate(rest) if (r := x % left)}
        if loose:
            integral = _integral_flow_in_box(net, lower, loose, target)
            weight = min(r if integral[a] > lower[a] else left - r for a, r in loose.items())
        else:
            integral, weight = lower, left
        _certify(net, caps, integral, target, 1, side=side)
        member = Flow(values=Scaled(idx, 1, integral), value=Fraction(target))
        entries.append((member, Fraction(weight, scale)))
        rest = [x - weight * g for x, g in zip(rest, integral)]
        left -= weight
        if not left:
            break
    else:
        raise FlowError("decomposition failed to terminate")

    for arc, x in zip(idx.arcs, rest):
        if x:
            raise FlowError(f"decomposition does not reproduce the flow on arc {arc!r}")
    return ConvexCombination(entries=tuple(entries))
