"""Brute-force ground truth for small instances and the strategic-manipulation
experiment harness."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .instance import BMatching, Instance, InstanceError, UtilityProfile, format_rational
from .matching import ged_decompose
from .mechanism import build_indivisible, egalitarian_profile
from .mechanism import indivisible_outcome  # noqa: F401  kept: perfbench checks this binding

DEFAULT_ENUMERATION_LIMIT = 14
ENV_LIMIT = "FAIRMATCH_ORACLE_LIMIT"


class OracleSizeError(ValueError):
    """The instance is too large for exhaustive enumeration."""


def enumeration_limit() -> int:
    """Effective enumeration bound: the environment override, else the default
    (14 expanded nodes)."""
    raw = os.environ.get(ENV_LIMIT)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise InstanceError(f"{ENV_LIMIT} must be an integer, got {raw!r}") from None
    return DEFAULT_ENUMERATION_LIMIT


def enumerate_bmatchings(inst: Instance) -> list[BMatching]:
    """Every feasible b-matching of ``inst``, duplicate-free.

    Recursive multiplicity assignment edge by edge with remaining-peak pruning;
    refuses instances whose expanded size (sum of peaks) exceeds the bound.
    """
    bound = enumeration_limit()
    size = sum(inst.peaks.values())
    if size > bound:
        raise OracleSizeError(
            f"instance {inst.name!r} has {size} expanded nodes, over the bound {bound}"
        )
    edges = list(inst.edges)
    remaining = dict(inst.peaks)
    results: list[BMatching] = []
    chosen: dict[tuple[str, str], int] = {}

    def assign(position: int) -> None:
        if position == len(edges):
            results.append(BMatching({e: m for e, m in chosen.items() if m}))
            return
        u, v = edges[position]
        cap = inst.capacities.get((u, v))
        top = min(remaining[u], remaining[v])
        if cap is not None:
            top = min(top, cap)
        for mult in range(top + 1):
            if mult:
                chosen[(u, v)] = mult
                remaining[u] -= mult
                remaining[v] -= mult
            assign(position + 1)
            if mult:
                del chosen[(u, v)]
                remaining[u] += mult
                remaining[v] += mult

    assign(0)
    return results


def _profile_tuple(inst: Instance, matching: BMatching) -> tuple[int, ...]:
    utilities = matching.utilities(inst)
    return tuple(utilities[node] for node in inst.nodes)


@dataclass(frozen=True)
class ParetoSet:
    """Utility profiles of the maximum-total b-matchings. Profiles are tuples
    ordered like ``node_order``."""

    node_order: tuple[str, ...]
    profiles: frozenset[tuple[int, ...]]

    def as_profiles(self) -> list[UtilityProfile]:
        return [
            UtilityProfile(dict(zip(self.node_order, profile, strict=True)))
            for profile in sorted(self.profiles)
        ]


def pareto_profiles(inst: Instance) -> ParetoSet:
    """Profiles of the maximum-total b-matchings (the Pareto set, by equivalence)."""
    matchings = enumerate_bmatchings(inst)
    best = max((m.total_utility for m in matchings), default=0)
    return ParetoSet(
        node_order=inst.nodes,
        profiles=frozenset(_profile_tuple(inst, m) for m in matchings if m.total_utility == best),
    )


def undominated_profiles(inst: Instance) -> frozenset[tuple[int, ...]]:
    """Pareto-optimal profiles straight from the dominance definition: no other
    feasible profile is weakly better everywhere and strictly better somewhere.

    Independent of the maximum-total route; the two must coincide.
    """
    seen = {_profile_tuple(inst, m) for m in enumerate_bmatchings(inst)}

    def dominated(profile: tuple[int, ...]) -> bool:
        return any(
            other != profile and all(o >= p for o, p in zip(other, profile))
            for other in seen
        )

    return frozenset(profile for profile in seen if not dominated(profile))


def lorenz_dominates(z: UtilityProfile, w: UtilityProfile) -> bool:
    """Whether every prefix sum of z's ascending values weakly dominates w's."""
    if set(z.values) != set(w.values):
        raise InstanceError("Lorenz comparison requires identical agent sets")
    z_sorted = z.sorted_values()
    w_sorted = w.sorted_values()
    z_run = Fraction(0)
    w_run = Fraction(0)
    for z_val, w_val in zip(z_sorted, w_sorted, strict=True):
        z_run += z_val
        w_run += w_val
        if z_run < w_run:
            return False
    return True


def prefers_somewhere(new: Fraction, old: Fraction, peak: int) -> bool:
    """Whether SOME single-peaked preference with the given peak strictly prefers
    ``new`` to ``old``. Same-side comparisons are forced; opposite sides are free."""
    if new == old:
        return False
    if new < old <= peak:
        return False
    if peak <= old < new:
        return False
    return True


def canonical_delta(new: Fraction, old: Fraction, peak: int) -> Fraction:
    """Utility change under the canonical single-peaked utility -|x - peak|."""
    return abs(old - peak) - abs(new - peak)


@dataclass(frozen=True)
class Deviation:
    """A coalition's misreport: re-reported peaks, hidden links, invented links."""

    peaks: dict[str, int] = field(default_factory=dict)
    hide_edges: tuple[tuple[str, str], ...] = ()
    add_edges: tuple[tuple[str, str], ...] = ()

    def validate(self, inst: Instance, coalition: frozenset[str]) -> None:
        for node in self.peaks:
            if node not in coalition:
                raise InstanceError(f"peak report for non-coalition agent {node!r}")
        for u, v in self.hide_edges:
            if u not in coalition and v not in coalition:
                raise InstanceError(f"hidden edge ({u!r}, {v!r}) touches no coalition agent")
        for u, v in self.add_edges:
            if u not in coalition or v not in coalition:
                raise InstanceError(
                    f"added edge ({u!r}, {v!r}) needs both endpoints in the coalition"
                )


def apply_deviation(inst: Instance, deviation: Deviation) -> Instance:
    return inst.replace(
        peaks=deviation.peaks,
        hide_edges=deviation.hide_edges,
        add_edges=deviation.add_edges,
        name=f"{inst.name}[reported]",
    )


@dataclass(frozen=True)
class ManipulationReport:
    """Expected-utility comparison of a coalition's misreport against the truth."""

    coalition: tuple[str, ...]
    truthful: UtilityProfile
    manipulated: UtilityProfile
    deltas: dict[str, Fraction]
    gains_somewhere: dict[str, bool]
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "coalition": list(self.coalition),
            "truthful": self.truthful.to_json_dict(),
            "manipulated": self.manipulated.to_json_dict(),
            "deltas": {agent: format_rational(d) for agent, d in sorted(self.deltas.items())},
            "gains_under_some_single_peaked": dict(sorted(self.gains_somewhere.items())),
            "verdict": self.verdict,
        }


def _indivisible_profile(inst: Instance) -> UtilityProfile:
    # no lottery; decomposing first keeps the pipeline's ExpansionError for a
    # capacitated instance
    return egalitarian_profile(build_indivisible(inst, ged_decompose(inst)))


def manipulation_experiment(
    inst: Instance, deviation: Deviation, coalition: Iterable[str]
) -> ManipulationReport:
    """Run the indivisible mechanism on the true and the reported instance and
    compare the deviators' expected utilities at their TRUE peaks.

    ``deltas`` uses the canonical single-peaked utility -|x - peak|;
    ``gains_somewhere`` asks whether any single-peaked preference strictly
    prefers the manipulated outcome.
    """
    members = frozenset(coalition)
    if not members:
        raise InstanceError("the coalition is empty")
    unknown = members - set(inst.peaks)
    if unknown:
        raise InstanceError(f"unknown coalition agents {sorted(unknown)!r}")
    deviation.validate(inst, members)
    truthful = _indivisible_profile(inst)
    manipulated = _indivisible_profile(apply_deviation(inst, deviation))
    deltas: dict[str, Fraction] = {}
    gains: dict[str, bool] = {}
    for agent in sorted(members):
        old = truthful[agent]
        new = manipulated[agent]
        deltas[agent] = canonical_delta(new, old, inst.peaks[agent])
        gains[agent] = prefers_somewhere(new, old, inst.peaks[agent])
    if all(d > 0 for d in deltas.values()):
        verdict = "profitable"
    elif all(d <= 0 for d in deltas.values()):
        verdict = "unprofitable"
    else:
        verdict = "mixed"
    return ManipulationReport(
        coalition=tuple(sorted(members)),
        truthful=truthful,
        manipulated=manipulated,
        deltas=deltas,
        gains_somewhere=gains,
        verdict=verdict,
    )
