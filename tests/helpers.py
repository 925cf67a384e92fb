"""Shared fixtures and generators for the test suite: canonical instances,
exhaustive small-graph enumeration up to isomorphism, random instance sampling,
independent certificates (brute-force matching, deficiency witnesses), and
reference implementations that the engine is compared against."""

from __future__ import annotations

import random
from fractions import Fraction
from collections import deque
from itertools import combinations, permutations, product
from typing import Iterable

from fairmatch import (
    BMatching,
    ExpandedInstance,
    Flow,
    FlowNetwork,
    GedDecomposition,
    Instance,
    InstanceError,
    MatchingError,
    canonical_edge,
    egalitarian_profile,
    expand_nodes,
)
from fairmatch.matching import gallai_edmonds_indices, maximum_matching_indices
from fairmatch.mechanism import SINK, SOURCE, BipartiteConstruction


def triangle(peaks: tuple[int, int, int] = (1, 1, 1)) -> Instance:
    return Instance.build(
        "triangle",
        list(zip("abc", peaks)),
        [("a", "b"), ("b", "c"), ("c", "a")],
    )


def path_instance(n: int, peaks: tuple[int, ...] | None = None, name: str | None = None) -> Instance:
    peaks = peaks or tuple(1 for _ in range(n))
    return Instance.build(
        name or f"path{n}",
        [(f"s{i}", peaks[i - 1]) for i in range(1, n + 1)],
        [(f"s{i}", f"s{i + 1}") for i in range(1, n)],
    )


def diamond_instance() -> Instance:
    return Instance.build(
        "diamond",
        [("a1", 2), ("a2", 5), ("a3", 3), ("a4", 2)],
        [("a1", "a3"), ("a1", "a4"), ("a2", "a4"), ("a2", "a3"), ("a4", "a3")],
    )


HUB15_PEAKS = {
    "s1": 2, "s2": 3, "s3": 2, "s4": 4, "s5": 4, "s6": 5, "s7": 2, "s8": 4,
    "s9": 2, "s10": 2, "s11": 2, "s12": 2, "s13": 2, "s14": 2, "s15": 2,
}

HUB15_EDGES = [
    ("s1", "s2"), ("s2", "s3"), ("s3", "s1"),
    ("s6", "s2"), ("s6", "s4"), ("s6", "s5"),
    ("s7", "s8"),
    ("s9", "s10"), ("s10", "s11"), ("s11", "s12"), ("s12", "s9"),
    ("s9", "s11"), ("s10", "s12"),
    ("s13", "s14"), ("s14", "s15"), ("s13", "s15"),
    ("s13", "s7"), ("s12", "s6"),
]


def hub15_instance() -> Instance:
    return Instance.build("hub15", list(HUB15_PEAKS.items()), HUB15_EDGES)


def hub15_json() -> dict:
    return hub15_instance().to_json_dict()


Pair = tuple[int, int]


def is_connected(n: int, edges: frozenset[Pair]) -> bool:
    if n <= 1:
        return True
    nbrs: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in nbrs[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def connected_graphs(n: int) -> list[frozenset[Pair]]:
    """All labeled connected graphs on vertices 0..n-1."""
    pairs = list(combinations(range(n), 2))
    graphs = []
    for bits in product((0, 1), repeat=len(pairs)):
        edges = frozenset(p for p, bit in zip(pairs, bits) if bit)
        if is_connected(n, edges):
            graphs.append(edges)
    return graphs


def _relabel(edges: frozenset[Pair], perm: tuple[int, ...]) -> frozenset[Pair]:
    return frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def graph_classes(n: int) -> list[tuple[frozenset[Pair], list[tuple[int, ...]]]]:
    """Connected graphs on n vertices up to isomorphism, each with its
    automorphism group (as vertex permutations)."""
    seen: set[frozenset[Pair]] = set()
    classes = []
    for edges in connected_graphs(n):
        if edges in seen:
            continue
        orbit = {_relabel(edges, perm) for perm in permutations(range(n))}
        seen |= orbit
        autos = [
            perm for perm in permutations(range(n)) if _relabel(edges, perm) == edges
        ]
        classes.append((edges, autos))
    return classes


def peaked_instances_up_to_iso(max_nodes: int, max_peak: int) -> list[Instance]:
    """One representative per isomorphism class of (connected graph, peak vector)."""
    instances = []
    for n in range(1, max_nodes + 1):
        for edges, autos in graph_classes(n):
            seen_peaks: set[tuple[int, ...]] = set()
            for peaks in product(range(1, max_peak + 1), repeat=n):
                canon = min(
                    tuple(peaks[perm.index(v)] for v in range(n)) for perm in autos
                )
                if canon in seen_peaks:
                    continue
                seen_peaks.add(canon)
                instances.append(
                    Instance.build(
                        f"n{n}",
                        [(f"v{i}", canon[i]) for i in range(n)],
                        [(f"v{u}", f"v{v}") for u, v in sorted(edges)],
                    )
                )
    return instances


def random_connected_instance(
    rng: random.Random,
    max_nodes: int,
    max_peak: int,
    extra_edge_prob: float = 0.35,
    min_nodes: int = 2,
) -> Instance:
    n = rng.randint(min_nodes, max_nodes)
    edges: set[Pair] = set()
    for v in range(1, n):
        edges.add(tuple(sorted((rng.randrange(v), v))))
    for pair in combinations(range(n), 2):
        if pair not in edges and rng.random() < extra_edge_prob:
            edges.add(pair)
    peaks = [rng.randint(1, max_peak) for _ in range(n)]
    return Instance.build(
        "random",
        [(f"v{i}", peaks[i]) for i in range(n)],
        [(f"v{u}", f"v{v}") for u, v in sorted(edges)],
    )


def random_bipartite_instance(
    rng: random.Random, max_side: int, max_peak: int, cap_prob: float = 0.0
):
    """A connected bipartite instance plus its (suppliers, demanders) bipartition.
    Each edge gets a cap in 1..max(1, max_peak // 2) with probability ``cap_prob``;
    small caps bind more often."""
    while True:
        left = rng.randint(1, max_side)
        right = rng.randint(1, max_side)
        suppliers = [f"s{i}" for i in range(left)]
        demanders = [f"d{j}" for j in range(right)]
        edges = {
            (s, d)
            for s in suppliers
            for d in demanders
            if rng.random() < 0.6
        }
        nodes = [(v, rng.randint(1, max_peak)) for v in suppliers + demanders]
        caps = {}
        if cap_prob:
            top = max(1, max_peak // 2)
            caps = {e: rng.randint(1, top) for e in sorted(edges) if rng.random() < cap_prob}
        inst = Instance.build(
            "bipartite", nodes, [(*e, caps[e]) if e in caps else e for e in sorted(edges)]
        )
        index = {v: i for i, (v, _) in enumerate(nodes)}
        as_pairs = frozenset(
            tuple(sorted((index[u], index[v]))) for u, v in inst.edges
        )
        if is_connected(len(nodes), as_pairs):
            return inst, suppliers, demanders


def reversed_network(net: FlowNetwork) -> FlowNetwork:
    """The network with every arc reversed and source/sink swapped."""
    return FlowNetwork(
        source=net.sink,
        sink=net.source,
        arcs={(v, u): cap for (u, v), cap in net.arcs.items()},
    )


def direct_bipartite_rule(
    inst: Instance, suppliers: list[str], demanders: list[str]
) -> dict[str, Fraction]:
    """The direct two-sided egalitarian rule on its own network, independent of
    ``build_divisible``: water-fill the suppliers against fixed demands on the
    supplier-to-demander network, then the demanders against fixed supplies on
    its reverse."""
    supply_set = set(suppliers)
    arcs: dict[tuple[str, str], Fraction | None] = {}
    for node in sorted(suppliers):
        arcs[(SOURCE, "s/" + node)] = Fraction(inst.peaks[node])
    for node in sorted(demanders):
        arcs[("d/" + node, SINK)] = Fraction(inst.peaks[node])
    for u, v in inst.edges:
        supplier, demander = (u, v) if u in supply_set else (v, u)
        cap = inst.capacities.get((u, v))
        arcs[("s/" + supplier, "d/" + demander)] = None if cap is None else Fraction(cap)
    net = FlowNetwork(SOURCE, SINK, arcs)
    values: dict[str, Fraction] = {}
    for side, network, terminal, prefix in (
        (suppliers, net, SOURCE, "s/"),
        (demanders, reversed_network(net), SINK, "d/"),
    ):
        construction = BipartiteConstruction(
            kind="direct",
            network=network,
            agents=tuple(sorted(side)),
            peaks={node: inst.peaks[node] for node in side},
            supply_arcs={node: (terminal, prefix + node) for node in side},
            provenance={},
        )
        values.update(egalitarian_profile(construction).values)
    return values


def reference_blossom_search(n: int, adj: list[list[int]], mate: list[int], root: int):
    """Single-root blossom search that walks all n vertices per contraction; the
    reference for ``fairmatch.matching._blossom_search``.

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


def reference_maximum_matching(n: int, adj: list[list[int]]) -> list[int]:
    """Maximum matching by one reference search per exposed vertex; the mate array."""
    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            endpoint, result = reference_blossom_search(n, adj, mate, v)
            if endpoint != -1:
                w = endpoint
                while w != -1:
                    prev = result[w]
                    nxt = mate[prev]
                    mate[w] = prev
                    mate[prev] = w
                    w = nxt
    return mate


def reference_gallai_edmonds(n: int, adj: list[list[int]], mate: list[int]) -> set[int]:
    """The D set as the union of one failed reference search per exposed vertex."""
    avoidable: set[int] = set()
    for v in range(n):
        if mate[v] == -1:
            endpoint, outer = reference_blossom_search(n, adj, mate, v)
            if endpoint != -1:
                raise MatchingError("matching passed to the decomposition is not maximum")
            avoidable.update(i for i in range(n) if outer[i])
    return avoidable


def is_integral(flow: Flow) -> bool:
    return all(x.denominator == 1 for x in flow.values.values())


def indexed_graph(nodes: tuple[str, ...], edges: Iterable[tuple[str, str]]):
    """The node index and sorted integer neighbor lists of a graph on ``nodes``."""
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
    _, adj = indexed_graph(nodes, inst.edges)
    mate = maximum_matching_indices(len(nodes), adj)
    return frozenset(
        canonical_edge(nodes[v], nodes[mate[v]]) for v in range(len(nodes)) if mate[v] > v
    )


# The string view of the expansion: copy k of node i is named ``i#k``, 1 <= k <= b_i.


def parent(expanded: ExpandedInstance, copy: str) -> str:
    """The node whose copy is named ``copy``."""
    node = copy.rpartition("#")[0]
    if copy not in expanded.copies.get(node, ()):
        raise InstanceError(f"{copy!r} is not a copy node of this expansion")
    return node


def copy_adjacency(expanded: ExpandedInstance) -> dict[str, tuple[str, ...]]:
    nbrs: dict[str, list[str]] = {copy: [] for copy in expanded.copy_nodes}
    for u, v in expanded.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return {copy: tuple(sorted(out)) for copy, out in nbrs.items()}


def contract_matching(expanded: ExpandedInstance, matching: Iterable[tuple[str, str]]) -> BMatching:
    """Shrink a matching of the copy graph back to a b-matching of the base instance."""
    pairs = [canonical_edge(u, v) for u, v in matching]
    edge_set = set(expanded.edges)
    touched: set[str] = set()
    mults: dict[tuple[str, str], int] = {}
    for cu, cv in pairs:
        if (cu, cv) not in edge_set:
            raise InstanceError(f"({cu!r}, {cv!r}) is not an edge of the expansion")
        if cu in touched or cv in touched:
            raise InstanceError(f"copy node matched twice in ({cu!r}, {cv!r})")
        touched.update((cu, cv))
        edge = canonical_edge(parent(expanded, cu), parent(expanded, cv))
        mults[edge] = mults.get(edge, 0) + 1
    return BMatching(mults)


def _full_expansion_mate(inst: Instance):
    expanded = expand_nodes(inst)
    nodes = expanded.copy_nodes
    index, adj = indexed_graph(nodes, expanded.edges)
    return expanded, nodes, index, adj, maximum_matching_indices(len(nodes), adj)


def reference_max_bmatching(inst: Instance) -> BMatching:
    """Maximum b-matching by blossom on the full unit-peak copy graph, with
    sum b_u * b_v edges; the reference for ``fairmatch.max_bmatching``."""
    expanded, nodes, _, _, mate = _full_expansion_mate(inst)
    pairs = [(nodes[v], nodes[mate[v]]) for v in range(len(nodes)) if mate[v] > v]
    return contract_matching(expanded, pairs)


def reference_ged_decompose(inst: Instance) -> GedDecomposition:
    """The Gallai-Edmonds decomposition read off the full unit-peak copy graph;
    the reference for ``fairmatch.ged_decompose``."""
    expanded, nodes, index, adj, mate = _full_expansion_mate(inst)
    avoidable = gallai_edmonds_indices(len(nodes), adj, mate)
    under: set[str] = set()
    for i, copy in enumerate(nodes):
        if i in avoidable:
            under.add(parent(expanded, copy))
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
    pairs = [(nodes[v], nodes[mate[v]]) for v in range(len(nodes)) if mate[v] > v]
    return GedDecomposition(
        under=frozenset(under),
        over=frozenset(over),
        perfect=frozenset(perfect),
        odd_components=tuple(components),
        internal_caps=caps,
        matching=contract_matching(expanded, pairs),
    )


def instance_automorphisms(inst: Instance) -> list[dict[str, str]]:
    """All node permutations preserving adjacency and peaks (brute force)."""
    nodes = inst.nodes
    edges = set(inst.edges)
    autos = []
    for perm in permutations(nodes):
        mapping = dict(zip(nodes, perm))
        if any(inst.peaks[a] != inst.peaks[b] for a, b in mapping.items()):
            continue
        if all(tuple(sorted((mapping[u], mapping[v]))) in edges for u, v in edges):
            autos.append(mapping)
    return autos


def relabeled(inst: Instance, mapping: dict[str, str]) -> Instance:
    return Instance.build(
        inst.name + "-relabeled",
        [(mapping[node], peak) for node, peak in inst.peaks.items()],
        [
            (mapping[u], mapping[v])
            + ((inst.capacities[(u, v)],) if (u, v) in inst.capacities else ())
            for u, v in inst.edges
        ],
    )


def brute_force_max_matching_size(n: int, edges: list[Pair]) -> int:
    """Exhaustive maximum matching size on an indexed graph."""
    best = 0
    order = sorted(edges)

    def extend(position: int, used: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        for k in range(position, len(order)):
            u, v = order[k]
            if not (used >> u & 1) and not (used >> v & 1):
                extend(k + 1, used | 1 << u | 1 << v, size + 1)

    extend(0, 0, 0)
    return best


def deficiency_upper_bound(total_vertices: int, odd_components: int, witness_size: int) -> int:
    """Berge-Tutte: max matching size <= (|V| - (odd(G - U) - |U|)) / 2."""
    return (total_vertices - (odd_components - witness_size)) // 2


def expected_value(marginals: dict[int, Fraction]) -> Fraction:
    return sum((p * units for units, p in marginals.items()), Fraction(0))
