"""Maximum matchings (blossom), maximum b-matchings via node expansion, the
Gallai-Edmonds decomposition with arbitrary peaks, and target realization."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .instance import (
    BMatching,
    ExpandedInstance,
    Instance,
    canonical_edge,
    contract_matching,
    expand_nodes,
)


class MatchingError(ValueError):
    """Invalid matching-engine arguments."""


def _blossom_search(n: int, adj: list[list[int]], mate: list[int], root: int):
    """One alternating-forest phase from ``root``.

    Returns ``(endpoint, parent)`` when an augmenting path to ``endpoint`` was
    found, else ``(-1, outer)`` where ``outer`` marks all vertices reachable
    from ``root`` by an even alternating path (blossoms fully included).
    """
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    outer[root] = True
    queue = deque([root])

    def lowest_common_base(a: int, b: int) -> int:
        seen = [False] * n
        x = base[a]
        while True:
            seen[x] = True
            if mate[x] == -1:
                break
            x = base[parent[mate[x]]]
        y = base[b]
        while not seen[y]:
            y = base[parent[mate[y]]]
        return y

    def mark_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                stem = lowest_common_base(v, to)
                in_blossom = [False] * n
                mark_path(v, stem, to, in_blossom)
                mark_path(to, stem, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if mate[to] == -1:
                    return to, parent
                outer[mate[to]] = True
                queue.append(mate[to])
    return -1, outer


def _augment(mate: list[int], parent: list[int], endpoint: int) -> None:
    v = endpoint
    while v != -1:
        prev = parent[v]
        nxt = mate[prev]
        mate[v] = prev
        mate[prev] = v
        v = nxt


def maximum_matching_indices(n: int, adj: list[list[int]]) -> list[int]:
    """Maximum-cardinality matching on an indexed graph; returns the mate array."""
    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            endpoint, result = _blossom_search(n, adj, mate, v)
            if endpoint != -1:
                _augment(mate, result, endpoint)
    return mate


def gallai_edmonds_indices(n: int, adj: list[list[int]], mate: list[int]) -> set[int]:
    """The D set: vertices missed by some maximum matching.

    One failed blossom search per exposed vertex of a maximum matching; the
    union of the outer-labelled vertices is exactly D.
    """
    avoidable: set[int] = set()
    for v in range(n):
        if mate[v] == -1:
            endpoint, outer = _blossom_search(n, adj, mate, v)
            if endpoint != -1:
                raise MatchingError("matching passed to the decomposition is not maximum")
            avoidable.update(i for i in range(n) if outer[i])
    return avoidable


def _indexed(nodes: tuple[str, ...], edges: Iterable[tuple[str, str]]):
    index = {node: i for i, node in enumerate(nodes)}
    adj: list[list[int]] = [[] for _ in nodes]
    for u, v in edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    for out in adj:
        out.sort()
    return index, adj


def max_matching(inst: Instance) -> frozenset[tuple[str, str]]:
    """Maximum-cardinality matching of a unit-peak instance."""
    if any(peak != 1 for peak in inst.peaks.values()):
        raise MatchingError("max_matching requires unit peaks; use max_bmatching instead")
    nodes = inst.nodes
    _, adj = _indexed(nodes, inst.edges)
    mate = maximum_matching_indices(len(nodes), adj)
    return frozenset(
        canonical_edge(nodes[v], nodes[mate[v]]) for v in range(len(nodes)) if mate[v] > v
    )


def _expanded_mate(expanded: ExpandedInstance):
    nodes = expanded.copy_nodes
    index, adj = _indexed(nodes, expanded.edges)
    mate = maximum_matching_indices(len(nodes), adj)
    return nodes, index, adj, mate


def max_bmatching(inst: Instance) -> BMatching:
    """Maximum-total-utility b-matching via node expansion and blossom."""
    expanded = expand_nodes(inst)
    nodes, _, _, mate = _expanded_mate(expanded)
    pairs = [
        (nodes[v], nodes[mate[v]]) for v in range(len(nodes)) if mate[v] > v
    ]
    return contract_matching(expanded, pairs)


@dataclass(frozen=True)
class GedDecomposition:
    """Partition into under-demanded (V^U), over-demanded (V^O) and perfectly
    matched (V^P) agents, plus the connected components of V^U.

    ``internal_caps[k]`` is the maximum utility component k can generate
    internally (sum of its peaks minus one) when it has at least two nodes,
    else None.
    """

    under: frozenset[str]
    over: frozenset[str]
    perfect: frozenset[str]
    odd_components: tuple[tuple[str, ...], ...]
    internal_caps: tuple[int | None, ...]

    def to_json_dict(self) -> dict:
        return {
            "under": sorted(self.under),
            "over": sorted(self.over),
            "perfect": sorted(self.perfect),
            "components": [list(component) for component in self.odd_components],
        }


def ged_decompose(inst: Instance) -> GedDecomposition:
    """Gallai-Edmonds decomposition of an uncapacitated instance with peaks.

    Computed on the unit-peak expansion: the standard D/A/C sets of the copy
    graph collapse onto whole nodes (copies are interchangeable), mapping
    D -> V^U, A -> V^O, C -> V^P.
    """
    expanded = expand_nodes(inst)
    nodes, index, adj, mate = _expanded_mate(expanded)
    avoidable = gallai_edmonds_indices(len(nodes), adj, mate)
    under: set[str] = set()
    for i, copy in enumerate(nodes):
        if i in avoidable:
            under.add(expanded.parent(copy))
    for node in under:
        if any(index[copy] not in avoidable for copy in expanded.copies[node]):
            raise MatchingError(f"copies of {node!r} disagree on avoidability")
    adjacency = inst.adjacency()
    over = {
        node
        for node in inst.peaks
        if node not in under and any(nbr in under for nbr in adjacency[node])
    }
    perfect = set(inst.peaks) - under - over

    components: list[tuple[str, ...]] = []
    seen: set[str] = set()
    for start in sorted(under):
        if start in seen:
            continue
        stack = [start]
        component: set[str] = set()
        while stack:
            node = stack.pop()
            if node in component:
                continue
            component.add(node)
            stack.extend(nbr for nbr in adjacency[node] if nbr in under and nbr not in component)
        seen |= component
        components.append(tuple(sorted(component)))
    components.sort(key=lambda comp: comp[0])
    caps = tuple(
        sum(inst.peaks[node] for node in comp) - 1 if len(comp) >= 2 else None
        for comp in components
    )
    return GedDecomposition(
        under=frozenset(under),
        over=frozenset(over),
        perfect=frozenset(perfect),
        odd_components=tuple(components),
        internal_caps=caps,
    )


def realize_targets(inst: Instance, targets: Mapping[str, int]) -> BMatching | None:
    """A b-matching of ``inst`` with utility exactly ``targets[i]`` at every node,
    or None when no such b-matching exists.

    Solved as a maximum b-matching with peaks replaced by the targets: the
    targets are realizable exactly when that maximum meets the target total.
    """
    if set(targets) != set(inst.peaks):
        raise MatchingError("targets must cover exactly the instance nodes")
    total = 0
    for node, t in targets.items():
        if not isinstance(t, int) or t < 0:
            raise MatchingError(f"node {node!r}: target must be a nonnegative integer")
        if t > inst.peaks[node]:
            raise MatchingError(f"node {node!r}: target {t} exceeds peak {inst.peaks[node]}")
        total += t
    if not inst.is_uncapacitated:
        raise MatchingError("realize_targets requires an uncapacitated instance")
    if total % 2:
        return None

    positive = [node for node in inst.nodes if targets[node] > 0]
    trimmed = inst.induced(positive, name=f"{inst.name}[targets]")
    shrunk = Instance(
        name=trimmed.name,
        peaks={node: targets[node] for node in trimmed.peaks},
        edges=trimmed.edges,
    )
    matched = max_bmatching(shrunk)
    if matched.total_utility != total:
        return None
    result = BMatching(dict(matched.multiplicities))
    result.check_feasible(inst)
    return result
