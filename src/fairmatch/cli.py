"""Command-line front-end: decompose, solve, lotterize, sample, verify, manipulate.

All output is JSON (stdout by default); rationals are serialized as exact
``p/q`` strings in lowest terms. Exit status: 0 success, 1 validation error,
2 verification failure or an internal inconsistency (a ``MechanismError`` or
``MatchingError``).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .flows import FlowError, is_maximum
from .flows import max_flow  # noqa: F401  kept: perfbench checks this binding
from .instance import Instance, InstanceError, UtilityProfile, format_rational, load_instance
from .matching import MatchingError, ged_decompose
from .mechanism import (
    MechanismError,
    build_divisible,
    egalitarian_divisible,
    egalitarian_lp,
    indivisible_outcome,
    sample_lottery,
)
from .oracle import (
    Deviation,
    OracleSizeError,
    enumerate_bmatchings,
    lorenz_dominates,
    manipulation_experiment,
    pareto_profiles,
    undominated_profiles,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2


def _marginals_json(marginals: dict[str, dict[int, Fraction]]) -> dict:
    return {
        agent: {str(units): format_rational(p) for units, p in sorted(dist.items())}
        for agent, dist in sorted(marginals.items())
    }


def _emit(payload: dict, pretty_lines: list[str] | None, args: argparse.Namespace) -> None:
    if getattr(args, "pretty", False) and pretty_lines is not None:
        text = "\n".join(pretty_lines) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _profile_lines(title: str, profile: UtilityProfile) -> list[str]:
    width = max((len(agent) for agent in profile), default=0)
    lines = [title]
    for agent in sorted(profile):
        lines.append(f"  {agent:<{width}}  {format_rational(profile[agent])}")
    return lines


def _cmd_ged(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    decomposition = ged_decompose(inst)
    payload = decomposition.to_json_dict()
    lines = [
        f"under-demanded : {' '.join(payload['under']) or '-'}",
        f"over-demanded  : {' '.join(payload['over']) or '-'}",
        f"perfect        : {' '.join(payload['perfect']) or '-'}",
        "components     : " + (" | ".join(" ".join(c) for c in payload["components"]) or "-"),
    ]
    _emit(payload, lines, args)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    if args.model == "divisible":
        profile, exchange = egalitarian_divisible(inst)
        payload = {
            "model": "divisible",
            "profile": profile.to_json_dict(),
            "exchange": [
                {"u": u, "v": v, "amount": format_rational(amount)}
                for (u, v), amount in sorted(exchange.items())
            ],
        }
        lines = _profile_lines("egalitarian profile (divisible)", profile)
        if args.dump_flow:
            payload["flow"] = profile.flow.to_json()
    else:
        outcome = indivisible_outcome(inst)
        payload = {
            "model": "indivisible",
            "profile": outcome.profile.to_json_dict(),
            "marginals": _marginals_json(outcome.marginals),
        }
        lines = _profile_lines("egalitarian expected profile (indivisible)", outcome.profile)
        if args.dump_flow:
            payload["flow"] = outcome.lottery.flow.to_json()
    _emit(payload, lines, args)
    return EXIT_OK


def _cmd_lottery(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    outcome = indivisible_outcome(inst)
    payload = {
        "profile": outcome.profile.to_json_dict(),
        "entries": outcome.lottery.to_json(),
    }
    lines = _profile_lines("expected profile", outcome.profile)
    for matching, p in outcome.lottery.entries:
        pairs = " ".join(f"{u}-{v}x{m}" for (u, v), m in sorted(matching.multiplicities.items()))
        lines.append(f"  p={format_rational(p)}  {pairs or '(empty)'}")
    _emit(payload, lines, args)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.samples < 0:
        raise InstanceError(f"--samples must be nonnegative, got {args.samples}")
    inst = load_instance(args.instance)
    outcome = indivisible_outcome(inst)
    samples = [
        sample_lottery(outcome.lottery, args.seed + k).to_json() for k in range(args.samples)
    ]
    _emit({"seed": args.seed, "samples": samples}, None, args)
    return EXIT_OK


def _verify_checks(inst: Instance, with_oracle: bool) -> list[dict]:
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "status": "pass" if passed else "fail", "detail": detail})

    profile, exchange = egalitarian_divisible(inst)
    # the flow with both margins pinned: maximum on the unpinned doubled network
    flow = profile.flow
    record(
        "divisible-efficiency",
        is_maximum(build_divisible(inst).network, flow) and flow.value == profile.total,
        f"profile total {profile.total} vs doubled max flow {flow.value}",
    )
    induced_ok = all(
        sum((amount for edge, amount in exchange.items() if node in edge), Fraction(0))
        == profile[node]
        for node in inst.nodes
    )
    record("divisible-exchange-consistent", induced_ok)

    if inst.is_uncapacitated:
        outcome = indivisible_outcome(inst)
        lottery = outcome.lottery
        flow_value = lottery.flow.value
        matched = outcome.ged.matching.total_utility
        record(
            "indivisible-efficiency",
            outcome.profile.total == flow_value == matched,
            f"profile {outcome.profile.total}, flow {flow_value}, b-matching {matched}",
        )
        lp = egalitarian_lp(outcome.construction)
        record("method-agreement", lp.values == outcome.profile.values)
        expected = {agent: Fraction(0) for agent in inst.nodes}
        for matching, p in lottery.entries:
            for agent, units in matching.utilities(inst).items():
                expected[agent] += p * units
        record("lottery-expectation", expected == outcome.profile.values)
        record(
            "lottery-members-maximum",
            all(m.total_utility == matched for m, _ in lottery.entries),
        )
        recombined = lottery.combination.combined_values()
        record(
            "flow-decomposition-exact",
            all(
                recombined.get(arc, Fraction(0)) == lottery.flow.values.get(arc, Fraction(0))
                for arc in outcome.construction.network.arcs
            ),
            f"{len(lottery.combination.entries)} integral members",
        )
        expectation = {
            agent: sum(
                (p * Fraction(dist_units) for dist_units, p in outcome.marginals[agent].items()),
                Fraction(0),
            )
            for agent in outcome.marginals
        }
        record(
            "marginals-expectation",
            all(expectation[a] == outcome.profile[a] for a in expectation),
        )
        if with_oracle:
            maximal = pareto_profiles(inst)
            dominance = undominated_profiles(inst)
            record(
                "oracle-pareto-equivalence",
                maximal.profiles == dominance,
                f"{len(maximal.profiles)} maximum profiles",
            )
            bounds_ok = True
            for k, component in enumerate(outcome.ged.odd_components):
                if len(component) < 2:
                    continue
                best = max(
                    m.total_utility for m in enumerate_bmatchings(inst.induced(component))
                )
                bounds_ok = bounds_ok and best == outcome.ged.internal_caps[k]
            record("oracle-odd-component-bound", bounds_ok)
            record(
                "oracle-lorenz-dominance",
                all(lorenz_dominates(outcome.profile, p) for p in maximal.as_profiles()),
            )
            saturation_ok = all(
                all(p[inst.nodes.index(node)] == inst.peaks[node] for p in maximal.profiles)
                for node in outcome.ged.over | outcome.ged.perfect
            )
            record("oracle-saturated-classes", saturation_ok)
    return checks


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    checks = _verify_checks(inst, args.oracle)
    passed = all(check["status"] == "pass" for check in checks)
    payload = {"instance": inst.name, "checks": checks, "passed": passed}
    lines = [
        f"{check['status'].upper():4s} {check['name']}"
        + (f" ({check['detail']})" if check["detail"] else "")
        for check in checks
    ]
    lines.append("all checks passed" if passed else "VERIFICATION FAILED")
    _emit(payload, lines, args)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _parse_assignment(text: str) -> tuple[str, int]:
    node, _, value = text.partition("=")
    if not node or not value:
        raise InstanceError(f"expected ID=PEAK, got {text!r}")
    try:
        return node, int(value)
    except ValueError:
        raise InstanceError(f"peak in {text!r} must be an integer") from None


def _parse_edge(text: str) -> tuple[str, str]:
    u, _, v = text.partition(":")
    if not u or not v:
        raise InstanceError(f"expected U:V, got {text!r}")
    return u, v


def _cmd_manipulate(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    coalition = [piece for piece in args.coalition.split(",") if piece]
    deviation = Deviation(
        peaks=dict(_parse_assignment(item) for item in args.report_peak),
        hide_edges=tuple(_parse_edge(item) for item in args.hide_edge),
        add_edges=tuple(_parse_edge(item) for item in args.add_edge),
    )
    report = manipulation_experiment(inst, deviation, coalition)
    payload = report.to_json_dict()
    lines = [f"verdict: {report.verdict}"]
    for agent in report.coalition:
        lines.append(
            f"  {agent}: {format_rational(report.truthful[agent])} -> "
            f"{format_rational(report.manipulated[agent])}"
            f" (canonical delta {format_rational(report.deltas[agent])},"
            f" gains under some single-peaked: {report.gains_somewhere[agent]})"
        )
    _emit(payload, lines, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmatch",
        description="Egalitarian exchange on general networks: decompositions, "
        "profiles, lotteries, and manipulation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, pretty: bool = True) -> None:
        p.add_argument("instance", help="path to a JSON instance file")
        p.add_argument("--output", help="write the report to this path instead of stdout")
        if pretty:
            p.add_argument("--pretty", action="store_true", help="human-readable table output")

    p_ged = sub.add_parser("ged", help="Gallai-Edmonds decomposition of the instance")
    common(p_ged)
    p_ged.set_defaults(handler=_cmd_ged)

    p_solve = sub.add_parser("solve", help="egalitarian profile (divisible or indivisible)")
    p_solve.add_argument("--model", choices=("divisible", "indivisible"), required=True)
    p_solve.add_argument("--dump-flow", action="store_true", help="include the realizing flow")
    common(p_solve)
    p_solve.set_defaults(handler=_cmd_solve)

    p_lottery = sub.add_parser("lottery", help="lottery over integral maximum b-matchings")
    common(p_lottery)
    p_lottery.set_defaults(handler=_cmd_lottery)

    p_sample = sub.add_parser("sample", help="draw matchings from the lottery")
    p_sample.add_argument("--samples", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    common(p_sample, pretty=False)
    p_sample.set_defaults(handler=_cmd_sample)

    p_verify = sub.add_parser("verify", help="run the invariant suite on the instance")
    p_verify.add_argument("--oracle", action="store_true", help="include brute-force checks")
    common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_manip = sub.add_parser("manipulate", help="compare a coalition misreport to the truth")
    p_manip.add_argument("--coalition", required=True, help="comma-separated agent ids")
    p_manip.add_argument("--report-peak", action="append", default=[], metavar="ID=PEAK")
    p_manip.add_argument("--hide-edge", action="append", default=[], metavar="U:V")
    p_manip.add_argument("--add-edge", action="append", default=[], metavar="U:V")
    common(p_manip)
    p_manip.set_defaults(handler=_cmd_manipulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; 2 means "verification failed" here
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        return args.handler(args)
    except (InstanceError, OracleSizeError, FlowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (MechanismError, MatchingError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
