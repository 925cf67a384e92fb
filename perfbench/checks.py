"""Output checks, run outside the timed phase.

Profiles are unique, so they are compared exactly with the independent
reference ``egalitarian_lp``.  Lottery members and the divisible exchange
depend on which maximum flow the engine finds, so they are not compared with
anything; only their invariants are checked, with this file's own code.
Every check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path

from families import Base, Edge, Shown, _pair

Profile = dict[str, Fraction]


def check_profile(got: Profile, want: Profile) -> list[str]:
    if got == want:
        return []
    wrong = sorted(node for node in set(got) | set(want) if got.get(node) != want.get(node))
    return [f"profile differs from the reference at {wrong[:5]}"]


def check_lottery(
    shown: Shown, entries: list[tuple[Fraction, dict[Edge, int]]], want: Profile
) -> list[str]:
    """Positive probabilities summing to 1; every member a feasible b-matching
    of maximum total (the reference total); expectation equal to the profile."""
    problems = []
    if not entries:
        return ["empty lottery"]
    if any(p <= 0 for p, _ in entries):
        problems.append("nonpositive lottery probability")
    if sum((p for p, _ in entries), Fraction(0)) != 1:
        problems.append("lottery probabilities do not sum to 1")
    best = sum(want.values(), Fraction(0))
    expected = {node: Fraction(0) for node in shown.peaks}
    for k, (p, matching) in enumerate(entries):
        used = {node: 0 for node in shown.peaks}
        for (u, v), mult in matching.items():
            if _pair(u, v) not in shown.edges:
                problems.append(f"member {k}: multiplicity on non-edge {(u, v)!r}")
                continue
            if not isinstance(mult, int) or mult < 0:
                problems.append(f"member {k}: bad multiplicity {mult!r}")
                continue
            used[u] += mult
            used[v] += mult
        if any(used[node] > peak for node, peak in shown.peaks.items()):
            problems.append(f"member {k}: exceeds a peak")
        if sum(used.values()) != best:
            problems.append(f"member {k}: total {sum(used.values())} is not the maximum {best}")
        for node, units in used.items():
            expected[node] += p * units
    if expected != want:
        problems.append("lottery expectation differs from the reference profile")
    return problems


def check_exchange(shown: Shown, exchange: dict[Edge, Fraction], want: Profile) -> list[str]:
    """Nonnegative amounts on existing edges that add up to the profile at
    every node.  The family instances are uncapacitated, so no cap binds."""
    problems = []
    induced = {node: Fraction(0) for node in shown.peaks}
    for (u, v), amount in exchange.items():
        if _pair(u, v) not in shown.edges:
            problems.append(f"exchange on non-edge {(u, v)!r}")
            continue
        if amount < 0:
            problems.append(f"negative exchange on {(u, v)!r}")
        induced[u] += amount
        induced[v] += amount
    if induced != want:
        problems.append("exchange does not add up to the reference profile")
    return problems


def check_ged(shown: Shown, payload: dict, want: Profile) -> list[str]:
    """The three classes partition the agents, and the over-demanded and
    perfectly matched agents are saturated in the reference profile."""
    classes = [set(payload.get(key, ())) for key in ("under", "over", "perfect")]
    if sum(len(c) for c in classes) != len(shown.peaks) or set().union(*classes) != set(shown.peaks):
        return ["ged classes do not partition the agents"]
    if any(want[node] != shown.peaks[node] for node in classes[1] | classes[2]):
        return ["an over-demanded or perfect agent is not saturated"]
    return []


def parse_profile(payload: dict) -> Profile:
    return {node: Fraction(text) for node, text in payload.items()}


def parse_lottery(entries: list[dict]) -> list[tuple[Fraction, dict[Edge, int]]]:
    return [
        (Fraction(entry["prob"]), {(m["u"], m["v"]): m["mult"] for m in entry["matching"]})
        for entry in entries
    ]


class References:
    """Reference profiles by family member, cached in a JSON file.

    Keyed by the member's canonical content, so a change to a family
    invalidates only the members it changes.  ``compute(base, model)`` returns
    the canonical-label profile; ``get`` maps it to a presentation's labels.
    """

    def __init__(self, path: Path, compute):
        self.path = path
        self.compute = compute
        self.dirty = False
        try:
            self.table = json.loads(path.read_text())
        except FileNotFoundError:
            self.table = {}

    def get(self, shown: Shown, model: str) -> Profile:
        entry = self.table.setdefault(shown.base.key(), {})
        if model not in entry:
            profile = self.compute(shown.base, model)
            entry[model] = {node: f"{x.numerator}/{x.denominator}" for node, x in profile.items()}
            self.dirty = True
        return shown.to_shown(parse_profile(entry[model]))

    def save(self) -> None:
        if not self.dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        partial = self.path.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps(self.table, sort_keys=True))
        os.replace(partial, self.path)
        self.dirty = False


def lp_reference(fairmatch):
    """``compute`` for :class:`References`: the iterated-LP route of the library."""
    mechanism = fairmatch.mechanism

    def compute(base: Base, model: str) -> Profile:
        inst = fairmatch.Instance.build(base.name, list(base.peaks.items()), list(base.edges))
        build = mechanism.build_indivisible if model == "indivisible" else mechanism.build_divisible
        return dict(mechanism.egalitarian_lp(build(inst)).values)

    return compute
