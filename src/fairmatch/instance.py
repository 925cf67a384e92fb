"""Exchange instances: agents with integer peaks trading a homogeneous good over a graph.

The instance file format is a UTF-8 JSON object::

    {"name": "triangle",
     "nodes": [{"id": "a", "peak": 1}, ...],
     "edges": [{"u": "a", "v": "b", "cap": null}, ...]}

``cap`` is a positive integer bound on the units exchanged over that edge, or
``null``/absent for an unbounded edge.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    from .flows import Flow
    from .mechanism import Breakpoint


class InstanceError(ValueError):
    """A malformed instance: bad file, duplicate ids, self-loops, bad peaks."""


class ExpansionError(InstanceError):
    """Node expansion is defined only for uncapacitated instances."""


Edge = tuple[str, str]


def canonical_edge(u: str, v: str) -> Edge:
    """Order an undirected edge with the lexicographically smaller endpoint first."""
    if u == v:
        raise InstanceError(f"self-loop at node {u!r}")
    return (u, v) if u < v else (v, u)


def format_rational(x: Fraction) -> str:
    """Serialize an exact rational as an explicit ``p/q`` string in lowest terms."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Instance:
    """An exchange network.

    ``peaks`` maps each node id to the units it holds (its peak, >= 1); ``edges``
    are canonicalized unordered pairs; ``capacities`` holds only the finite
    per-edge bounds (absent key = unbounded edge).
    """

    name: str
    peaks: dict[str, int]
    edges: tuple[Edge, ...]
    capacities: dict[Edge, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[Edge] = set()
        for node, peak in self.peaks.items():
            if not isinstance(peak, int) or isinstance(peak, bool) or peak < 1:
                raise InstanceError(f"node {node!r}: peak must be a positive integer, got {peak!r}")
        for u, v in self.edges:
            if u == v:
                raise InstanceError(f"self-loop at node {u!r}")
            if (u, v) != canonical_edge(u, v):
                raise InstanceError(f"edge ({u!r}, {v!r}) is not canonicalized")
            if (u, v) in seen:
                raise InstanceError(f"duplicate edge ({u!r}, {v!r})")
            seen.add((u, v))
            for endpoint in (u, v):
                if endpoint not in self.peaks:
                    raise InstanceError(f"edge endpoint {endpoint!r} is not a declared node")
        for edge, cap in self.capacities.items():
            if edge not in seen:
                raise InstanceError(f"capacity given for unknown edge {edge!r}")
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
                raise InstanceError(f"edge {edge!r}: capacity must be a positive integer, got {cap!r}")

    @classmethod
    def build(
        cls,
        name: str,
        nodes: Iterable[tuple[str, int]],
        edges: Iterable[tuple[str, str] | tuple[str, str, int | None]],
    ) -> "Instance":
        """Construct and validate an instance from node/edge listings."""
        peaks: dict[str, int] = {}
        for node, peak in nodes:
            if not isinstance(node, str) or not node:
                raise InstanceError(f"node id must be a non-empty string, got {node!r}")
            if node in peaks:
                raise InstanceError(f"duplicate node id {node!r}")
            peaks[node] = peak
        edge_list: list[Edge] = []
        capacities: dict[Edge, int] = {}
        for entry in edges:
            u, v = entry[0], entry[1]
            cap = entry[2] if len(entry) > 2 else None
            edge = canonical_edge(u, v)
            edge_list.append(edge)
            if cap is not None:
                capacities[edge] = cap
        return cls(name=name, peaks=peaks, edges=tuple(edge_list), capacities=capacities)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self.peaks)

    @property
    def is_uncapacitated(self) -> bool:
        return not self.capacities

    def capacity(self, u: str, v: str) -> int | None:
        return self.capacities.get(canonical_edge(u, v))

    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Neighbor lists, sorted for deterministic iteration."""
        nbrs: dict[str, list[str]] = {node: [] for node in self.peaks}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {node: tuple(sorted(out)) for node, out in nbrs.items()}

    def induced(self, nodes: Iterable[str], name: str | None = None) -> "Instance":
        """The subinstance induced on ``nodes`` (edges with both endpoints kept)."""
        keep = set(nodes)
        unknown = keep - set(self.peaks)
        if unknown:
            raise InstanceError(f"unknown nodes {sorted(unknown)!r}")
        peaks = {node: peak for node, peak in self.peaks.items() if node in keep}
        edges = tuple(e for e in self.edges if e[0] in keep and e[1] in keep)
        kept = set(edges)
        caps = {e: c for e, c in self.capacities.items() if e in kept}
        return Instance(name=name or f"{self.name}[induced]", peaks=peaks, edges=edges, capacities=caps)

    def replace(
        self,
        peaks: Mapping[str, int] | None = None,
        hide_edges: Iterable[tuple[str, str]] = (),
        add_edges: Iterable[tuple[str, str]] = (),
        name: str | None = None,
    ) -> "Instance":
        """A copy with some peaks re-reported and/or edges hidden or added."""
        new_peaks = dict(self.peaks)
        for node, peak in (peaks or {}).items():
            if node not in new_peaks:
                raise InstanceError(f"unknown node {node!r}")
            new_peaks[node] = peak
        hidden = {canonical_edge(u, v) for u, v in hide_edges}
        missing = hidden - set(self.edges)
        if missing:
            raise InstanceError(f"cannot hide non-existent edges {sorted(missing)!r}")
        edges = [e for e in self.edges if e not in hidden]
        caps = {e: c for e, c in self.capacities.items() if e not in hidden}
        for u, v in add_edges:
            edge = canonical_edge(u, v)
            if edge in edges:
                raise InstanceError(f"edge {edge!r} already present")
            edges.append(edge)
        return Instance(name=name or self.name, peaks=new_peaks, edges=tuple(edges), capacities=caps)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "nodes": [{"id": node, "peak": peak} for node, peak in self.peaks.items()],
            "edges": [
                {"u": u, "v": v, "cap": self.capacities.get((u, v))} for u, v in self.edges
            ],
        }


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance file; raises :class:`InstanceError` on bad input."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise InstanceError("JSON nesting is too deep") from None
    except ValueError:
        # json.loads refuses an integer longer than the interpreter's digit limit
        raise InstanceError(f"an integer has more than {sys.get_int_max_str_digits()} digits") from None
    if not isinstance(data, dict):
        raise InstanceError("instance file must be a JSON object")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise InstanceError("field 'name' must be a string")
    raw_nodes = data.get("nodes")
    if not isinstance(raw_nodes, list):
        raise InstanceError("field 'nodes' must be a list")
    nodes: list[tuple[str, int]] = []
    for k, entry in enumerate(raw_nodes):
        if not isinstance(entry, dict) or "id" not in entry or "peak" not in entry:
            raise InstanceError(f"nodes[{k}]: expected an object with 'id' and 'peak'")
        node_id = entry["id"]
        if not isinstance(node_id, str) or not node_id:
            raise InstanceError(f"nodes[{k}].id: must be a non-empty string")
        nodes.append((node_id, entry["peak"]))
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise InstanceError("field 'edges' must be a list")
    edges: list[tuple[str, str, int | None]] = []
    for k, entry in enumerate(raw_edges):
        if not isinstance(entry, dict) or "u" not in entry or "v" not in entry:
            raise InstanceError(f"edges[{k}]: expected an object with 'u' and 'v'")
        u, v = entry["u"], entry["v"]
        if not isinstance(u, str) or not isinstance(v, str):
            raise InstanceError(f"edges[{k}]: endpoints must be strings")
        edges.append((u, v, entry.get("cap")))
    try:
        return Instance.build(name=name, nodes=nodes, edges=edges)
    except InstanceError:
        raise
    except (TypeError, ValueError) as exc:
        raise InstanceError(str(exc)) from None


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise InstanceError(f"not a UTF-8 file: {exc.reason} at byte {exc.start}") from None
    return parse_instance(text)


@dataclass(frozen=True)
class ExpandedInstance:
    """Unit-peak expansion: node ``i`` becomes ``b_i`` copies, numbered by integers.

    Copies are consecutive and in node order: ``indices[i]`` is the range of
    node ``i``'s copies, ``owner[c]`` the node of copy ``c``, and ``adj[c]`` the
    sorted copies adjacent to ``c`` (copies of one node share one list; they are
    never adjacent). The string view, copy ``c`` of node ``i`` named
    ``i#(c - indices[i].start + 1)``, is built on first use.

    Contracting every copy to its node maps the matchings of the expansion
    onto the b-matchings of ``base``. The map is not a bijection: copies of a
    node are interchangeable, so many matchings contract to one b-matching.
    """

    base: Instance
    indices: dict[str, range]
    owner: list[str] = field(repr=False)
    adj: list[list[int]] = field(repr=False)

    @cached_property
    def copies(self) -> dict[str, tuple[str, ...]]:
        return {
            node: tuple(f"{node}#{k}" for k in range(1, len(span) + 1))
            for node, span in self.indices.items()
        }

    @cached_property
    def copy_nodes(self) -> tuple[str, ...]:
        return tuple(copy for group in self.copies.values() for copy in group)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        copies = self.copies
        return tuple(
            canonical_edge(cu, cv) for u, v in self.base.edges for cu in copies[u] for cv in copies[v]
        )


def expand_nodes(inst: Instance) -> ExpandedInstance:
    """Expand an uncapacitated instance into its unit-peak copy graph."""
    if not inst.is_uncapacitated:
        raise ExpansionError(
            f"instance {inst.name!r} has finite edge capacities; expansion is unsupported"
        )
    indices: dict[str, range] = {}
    owner: list[str] = []
    for node, peak in inst.peaks.items():
        indices[node] = range(len(owner), len(owner) + peak)
        owner += [node] * peak
    nbrs: dict[str, list[range]] = {node: [] for node in indices}
    for u, v in inst.edges:
        nbrs[u].append(indices[v])
        nbrs[v].append(indices[u])
    adj: list[list[int]] = []
    for node, span in indices.items():
        nbrs[node].sort(key=attrgetter("start"))
        row: list[int] = []
        for other in nbrs[node]:
            row += other
        adj += [row] * len(span)
    return ExpandedInstance(base=inst, indices=indices, owner=owner, adj=adj)


@dataclass(frozen=True)
class BMatching:
    """Integer edge multiplicities; node utility is the total multiplicity at the node."""

    multiplicities: dict[Edge, int]

    def __post_init__(self) -> None:
        for edge, mult in self.multiplicities.items():
            if not isinstance(mult, int) or mult < 0:
                raise InstanceError(f"edge {edge!r}: multiplicity must be a nonnegative integer")

    def multiplicity(self, u: str, v: str) -> int:
        return self.multiplicities.get(canonical_edge(u, v), 0)

    def utilities(self, inst: Instance) -> dict[str, int]:
        """Per-node utilities x_i induced on ``inst`` (zero for untouched nodes)."""
        totals = {node: 0 for node in inst.peaks}
        for (u, v), mult in self.multiplicities.items():
            totals[u] += mult
            totals[v] += mult
        return totals

    @property
    def total_utility(self) -> int:
        return 2 * sum(self.multiplicities.values())

    def check_feasible(self, inst: Instance) -> None:
        """Raise unless this is a feasible b-matching of ``inst``."""
        edge_set = set(inst.edges)
        for edge, mult in self.multiplicities.items():
            if edge not in edge_set:
                raise InstanceError(f"multiplicity on non-edge {edge!r}")
            cap = inst.capacities.get(edge)
            if cap is not None and mult > cap:
                raise InstanceError(f"edge {edge!r}: multiplicity {mult} exceeds capacity {cap}")
        for node, used in self.utilities(inst).items():
            if node in inst.peaks and used > inst.peaks[node]:
                raise InstanceError(f"node {node!r}: utility {used} exceeds peak {inst.peaks[node]}")

    def to_json(self) -> list[dict]:
        return [
            {"u": u, "v": v, "mult": mult}
            for (u, v), mult in sorted(self.multiplicities.items())
        ]


@dataclass(frozen=True)
class UtilityProfile:
    """Exact per-agent utilities; values are nonnegative rationals.

    A profile made by the water-fill carries its ``flow``, a maximum flow of the
    construction with every supply arc pinned to the agent's value, and its
    ``breakpoints``, the fill's events in order. Neither takes part in equality.
    """

    values: dict[str, Fraction]
    flow: Flow | None = field(default=None, compare=False, repr=False)
    breakpoints: tuple[Breakpoint, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        coerced = {node: Fraction(x) for node, x in self.values.items()}
        for node, x in coerced.items():
            if x < 0:
                raise InstanceError(f"node {node!r}: negative utility {x}")
        object.__setattr__(self, "values", coerced)

    def __getitem__(self, node: str) -> Fraction:
        return self.values[node]

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    @property
    def total(self) -> Fraction:
        return sum(self.values.values(), Fraction(0))

    def validate_for(self, inst: Instance) -> None:
        """Raise unless the profile covers exactly ``inst``'s nodes with x_i <= b_i."""
        if set(self.values) != set(inst.peaks):
            raise InstanceError("profile agents do not match instance nodes")
        for node, x in self.values.items():
            if x > inst.peaks[node]:
                raise InstanceError(f"node {node!r}: utility {x} exceeds peak {inst.peaks[node]}")

    def sorted_values(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.values.values()))

    def to_json_dict(self) -> dict[str, str]:
        return {node: format_rational(x) for node, x in sorted(self.values.items())}
