"""Maximum matchings (blossom), maximum b-matchings on a reduced node expansion,
the Gallai-Edmonds decomposition with arbitrary peaks, and target realization."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping

from .instance import (
    BMatching,
    Edge,
    ExpansionError,
    Instance,
    _copy_graph,
    _node_index,
    expand_nodes,
)


class MatchingError(ValueError):
    """Invalid matching-engine arguments."""


def _blossom_search(n: int, adj: list[list[int]], mate: list[int], roots: list[int]):
    """One alternating-forest phase grown from every vertex in ``roots`` at once.

    Returns ``(endpoint, parent)`` when an augmenting path was found, else
    ``(-1, outer)`` where ``outer`` marks all vertices reachable from a root by
    an even alternating path (blossoms fully included). ``endpoint`` is either
    an exposed non-root vertex, whose path ``parent`` encodes for `_augment`,
    or, with several roots, a vertex where two trees meet.

    A contraction costs time proportional to the blossoms it merges: each base
    keeps the list of its members, and only the marked bases are relabelled.
    The newly outer vertices are queued in ascending index order.
    """
    parent = [-1] * n
    base = list(range(n))
    members: dict[int, list[int]] = {}
    outer = [False] * n
    for root in roots:
        outer[root] = True
    queue = deque(roots)

    def lowest_common_base(a: int, b: int) -> int:
        """The base where the tree paths of ``a`` and ``b`` meet, or -1 when they
        lie in different trees."""
        seen = set()
        x = base[a]
        while True:
            seen.add(x)
            if mate[x] == -1:
                break
            x = base[parent[mate[x]]]
        y = base[b]
        while y not in seen:
            if mate[y] == -1:
                return -1
            y = base[parent[mate[y]]]
        return y

    def mark_path(v: int, stem: int, child: int, in_blossom: set[int]) -> None:
        while base[v] != stem:
            in_blossom.add(base[v])
            in_blossom.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or mate[v] == to:
                continue
            if outer[to]:
                stem = lowest_common_base(v, to)
                if stem == -1:
                    return to, parent
                in_blossom: set[int] = set()
                mark_path(v, stem, to, in_blossom)
                mark_path(to, stem, v, in_blossom)
                merged = members.setdefault(stem, [stem])
                newly_outer = []
                for b in in_blossom:
                    for i in members.pop(b, (b,)):
                        base[i] = stem
                        merged.append(i)
                        if not outer[i]:
                            outer[i] = True
                            newly_outer.append(i)
                newly_outer.sort()
                queue.extend(newly_outer)
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


def maximum_matching_indices(n: int, adj: list[list[int]], mate: list[int]) -> list[int]:
    """Maximum-cardinality matching on an indexed graph; returns the mate array.

    Starts from the matching ``mate`` (-1 marks an exposed vertex; it is not
    modified). One search per exposed vertex, in index order. A vertex whose
    neighbor list equals that of the last root whose search failed is skipped:
    an augmenting path from it would be one from that root too, and a root with
    no augmenting path keeps none after later augmentations. Copies of one agent
    are such twins.
    """
    mate = list(mate)
    failed = None
    for v in range(n):
        if mate[v] == -1 and adj[v] != failed:
            endpoint, result = _blossom_search(n, adj, mate, [v])
            if endpoint != -1:
                _augment(mate, result, endpoint)
            else:
                failed = adj[v]
    return mate


def gallai_edmonds_indices(n: int, adj: list[list[int]], mate: list[int]) -> set[int]:
    """The D set: vertices missed by some maximum matching.

    One alternating forest grown from every exposed vertex of a maximum
    matching; its outer vertices are exactly D (Gallai-Edmonds structure
    theorem). Two trees that meet close an augmenting path, so the matching
    was not maximum.
    """
    endpoint, outer = _blossom_search(n, adj, mate, [v for v in range(n) if mate[v] == -1])
    if endpoint != -1:
        raise MatchingError("matching passed to the decomposition is not maximum")
    return {i for i in range(n) if outer[i]}


def _spare(peaks: list[int], ends: list[tuple[int, int]], z: list[int]) -> list[int]:
    spare = list(peaks)
    for (u, v), mult in zip(ends, z):
        spare[u] -= mult
        spare[v] -= mult
    return spare


def _reduced(spare: list[int], ends: list[tuple[int, int]], z: list[int]):
    """The copy graph of ``z`` that does not grow with the peaks: each node
    keeps two copies per edge that ``z`` uses (one if ``z`` uses it once),
    matched to the other endpoint's copies in edge order, then min(spare, 2)
    exposed copies. Returns the copies per node, the mate array of the kept
    pairs (copies numbered as `_copy_graph` numbers them) and the kept
    multiplicities, by node and edge id."""
    kept = [min(mult, 2) for mult in z]
    counts = [min(left, 2) for left in spare]
    for (u, v), pairs in zip(ends, kept):
        counts[u] += pairs
        counts[v] += pairs
    free = list(accumulate(counts, initial=0))
    mate = [-1] * free[-1]
    for (u, v), pairs in zip(ends, kept):
        for _ in range(pairs):
            cu, cv = free[u], free[v]
            free[u] += 1
            free[v] += 1
            mate[cu] = cv
            mate[cv] = cu
    return counts, mate, kept


def _fold(z: list[int], mate: list[int], owner: list[int], edge_of: dict, nodes: list[str]) -> None:
    """Add the matching ``mate`` of a copy graph whose copy c belongs to node
    ``owner[c]`` to the multiplicities ``z`` by edge id; every matched pair must
    join two nodes that ``edge_of`` maps to an edge id."""
    for v, w in enumerate(mate):
        if w == -1:
            continue
        if mate[w] != v:
            raise MatchingError(f"mate array is not symmetric at copies {v} and {w}")
        if v < w:
            edge = edge_of.get((owner[v], owner[w]))
            if edge is None:
                pair = tuple(sorted((nodes[owner[v]], nodes[owner[w]])))
                raise MatchingError(f"copies {v} and {w} are matched across non-edge {pair!r}")
            z[edge] += 1


def _maximum(peaks: Mapping[str, int], edges: tuple[Edge, ...]) -> BMatching:
    """A maximum b-matching of ``edges`` under ``peaks`` (nonnegative; every
    endpoint is a key).

    Copies of one agent are twins, so a shortest augmenting (or even
    alternating) path of the full copy graph meets each agent at most once as
    an outer and at most once as an inner vertex: a repeat can be shortcut. Such
    a path uses at most two matched pairs per edge and two exposed copies per
    agent, so it lies in the reduced graph of `_reduced`. Blossom runs on that
    graph, seeded with z, and every augmentation is folded back into z until a
    round augments nothing; then z is maximum.

    A round is skipped when the reduced graph would hold fewer than two exposed
    copies, Σ min(spare, 2): an augmenting path joins two distinct exposed
    copies, so that round could not augment, and z is the same. Spares are
    nonnegative, so that sum is below 2 exactly when Σ spare is.

    z starts from the peaks' high bits: the maximum for floor(b / 2^k), doubled
    and topped up greedily along ``edges``, seeds level k - 1, so each level
    needs only O(n) augmentations.

    Everything runs on one index built per call: node ids in ``peaks`` order,
    edge ids in ``edges`` order, z and the spare counts as int lists, and each
    round's graph built by `_copy_graph` from its copy counts. Only the
    b-matching is returned; `ged_decompose` builds the one graph it reads.
    """
    nodes = list(peaks)
    ends, nbrs = _node_index(peaks, edges)
    edge_of = {}
    for edge, (u, v) in enumerate(ends):
        edge_of[u, v] = edge_of[v, u] = edge
    z = [0] * len(ends)
    for shift in reversed(range(max([1, *peaks.values()]).bit_length())):
        level = [peak >> shift for peak in peaks.values()]
        z = [2 * mult for mult in z]
        spare = _spare(level, ends, z)
        for edge, (u, v) in enumerate(ends):
            extra = min(spare[u], spare[v])
            spare[u] -= extra
            spare[v] -= extra
            z[edge] += extra
        while sum(spare) >= 2:  # at least two exposed copies
            counts, mate, kept = _reduced(spare, ends, z)
            exposed = mate.count(-1)
            owner, adj = _copy_graph(counts, nbrs)[1:]
            mate = maximum_matching_indices(len(mate), adj, mate)
            if mate.count(-1) == exposed:
                break
            z = [mult - pairs for mult, pairs in zip(z, kept)]
            _fold(z, mate, owner, edge_of, nodes)
            spare = _spare(level, ends, z)
    return BMatching({edge: mult for edge, mult in zip(edges, z) if mult})


def _check_uncapacitated(inst: Instance) -> None:
    if not inst.is_uncapacitated:
        raise ExpansionError(
            f"instance {inst.name!r} has finite edge capacities; expansion is unsupported"
        )


def max_bmatching(inst: Instance) -> BMatching:
    """Maximum-total-utility b-matching, by blossom on the reduced copy graph."""
    _check_uncapacitated(inst)
    return _maximum(inst.peaks, inst.edges)


@dataclass(frozen=True)
class GedDecomposition:
    """Partition into under-demanded (V^U), over-demanded (V^O) and perfectly
    matched (V^P) agents, plus the connected components of V^U.

    ``internal_caps[k]`` is the maximum utility component k can generate
    internally (sum of its peaks minus one) when it has at least two nodes,
    else None. ``matching`` is the maximum b-matching the classes came from; it
    takes no part in equality or in the JSON form.
    """

    under: frozenset[str]
    over: frozenset[str]
    perfect: frozenset[str]
    odd_components: tuple[tuple[str, ...], ...]
    internal_caps: tuple[int | None, ...]
    matching: BMatching = field(compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "under": sorted(self.under),
            "over": sorted(self.over),
            "perfect": sorted(self.perfect),
            "components": [list(component) for component in self.odd_components],
        }


def ged_decompose(inst: Instance) -> GedDecomposition:
    """Gallai-Edmonds decomposition of an uncapacitated instance with peaks.

    The standard D/A/C sets of the unit-peak copy graph collapse onto whole
    nodes (copies are interchangeable), mapping D -> V^U, A -> V^O, C -> V^P.
    D is read off the one copy graph this builds, through `expand_nodes`: the
    reduced copy graph (see `_reduced`) of the maximum b-matching z that
    `_maximum` returns, seeded with z's kept pairs. A shortest even alternating
    path of the full copy graph shortcuts into it, so it has the full graph's
    D set on every agent.
    """
    _check_uncapacitated(inst)
    matching = _maximum(inst.peaks, inst.edges)
    ends = _node_index(inst.peaks, inst.edges)[0]
    z = [matching.multiplicities.get(edge, 0) for edge in inst.edges]
    counts, mate, _ = _reduced(_spare(list(inst.peaks.values()), ends, z), ends, z)
    expanded = expand_nodes(dict(zip(inst.peaks, counts)), inst.edges)
    avoidable = gallai_edmonds_indices(len(mate), expanded.adj, mate)
    under = {expanded.owner[i] for i in avoidable}
    for node in under:
        if any(i not in avoidable for i in expanded.indices[node]):
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
        matching=matching,
    )


def realize_targets(inst: Instance, targets: Mapping[str, int]) -> BMatching | None:
    """A b-matching of ``inst`` with utility exactly ``targets[i]`` at every node,
    or None when no such b-matching exists.

    Solved as a maximum b-matching with peaks replaced by the targets: the
    targets are realizable exactly when that maximum meets the target total.
    """
    if set(targets) != set(inst.peaks):
        raise MatchingError("targets must cover exactly the instance nodes")
    for node, t in targets.items():
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise MatchingError(f"node {node!r}: target must be a nonnegative integer")
        if t > inst.peaks[node]:
            raise MatchingError(f"node {node!r}: target {t} exceeds peak {inst.peaks[node]}")
    if not inst.is_uncapacitated:
        raise MatchingError("realize_targets requires an uncapacitated instance")
    matched = _realize({node: targets[node] for node in inst.peaks}, inst.edges)
    if matched is not None:
        matched.check_feasible(inst)
    return matched


def _realize(targets: Mapping[str, int], edges: tuple[Edge, ...]) -> BMatching | None:
    """A b-matching of ``edges`` with utility exactly ``targets`` at every node, or None."""
    total = sum(targets.values())
    if total % 2:
        return None
    matched = _maximum(targets, edges)
    return matched if matched.total_utility == total else None
