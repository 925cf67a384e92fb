#!/usr/bin/env python3
"""The fairmatch benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload mid-random --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the library is imported from ``src/``.
An op is one call to ``indivisible_outcome`` or ``egalitarian_divisible``, or
one ``fairmatch`` process.  Each workload cycles through a fixed rotation of
ops, issuing the next op as soon as the previous one returns, and stops at
the end of the first round of the rotation that ends after ``--seconds``.

``--trace 0`` times every op with nothing installed and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed prefix of the rotation in
passes, each op once plainly and once under the tracer, until ``--seconds``
have passed, and reports the per-layer metrics per pass.  Either way every
output is checked after the measured phase, and the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported at full machine speed; see :func:`calibration_s`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import exp, lgamma, log, log1p
from pathlib import Path
from time import perf_counter

import families
from checks import (
    References,
    check_exchange,
    check_ged,
    check_lottery,
    check_profile,
    lp_reference,
    parse_lottery,
    parse_profile,
)
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCES = HERE / ".cache" / "references.json"

WORKLOADS = ("mid-random", "big-peaks", "cli-small")
SETUP_REPEATS = 5
# instances in one traced pass: a prefix of the rotation, fixed so counts repeat exactly
TRACE_GROUPS = {"mid-random": 3, "big-peaks": 3, "cli-small": 2}
CHILD_TIMEOUT_S = 150
# calibration_s() on the reference machine (2 vCPUs, Python 3.11) when this
# process has a core to itself
CAL_REF_S = 0.00267

END_TO_END = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "indivisible_s.p50": "s",
    "divisible_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _expand(prefix: str, fields: dict[str, str]) -> dict[str, str]:
    return {f"{prefix}.{name}": unit for name, unit in fields.items()}


CALLS = {"calls": "count", "self_s": "s"}
PER_LAYER = {
    **_expand("instance.load_instance", CALLS),
    **_expand("instance.expand_nodes", {**CALLS, "copy_nodes": "count", "copy_edges": "count"}),
    **_expand("matching.maximum_matching_indices", CALLS),
    **_expand("matching.gallai_edmonds_indices", CALLS),
    **_expand("matching.ged_decompose", CALLS),
    **_expand("matching.realize_targets", CALLS),
    **_expand("matching.max_bmatching", CALLS),
    **_expand("flows.max_flow", {**CALLS, "arcs": "count"}),
    **_expand("flows.min_cut", CALLS),
    **_expand("flows.maximal_min_cut", CALLS),
    **_expand("flows.decompose_max_flow", {**CALLS, "members": "count"}),
    **_expand("mechanism.egalitarian_profile", {**CALLS, "max_flow_per_call": "count/call"}),
    "mechanism.build_indivisible.self_s": "s",
    "mechanism.build_divisible.self_s": "s",
    **_expand("mechanism.build_lottery", CALLS),
    "mechanism.egalitarian_divisible.self_s": "s",
    **_expand("mechanism.egalitarian_lp", CALLS),
    "mechanism.profile.max_denominator": "count",
    **_expand("oracle.manipulation_experiment", CALLS),
    **_expand("oracle.enumerate_bmatchings", {**CALLS, "matchings": "count"}),
    "cli.main.self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "share",
}


def calibration_s() -> float:
    """Time a fixed loop of Fraction arithmetic and dict stores, the kind of
    work the library does, with the collector off.

    Other tenants of a shared machine slow this process by up to 2x in phases
    of seconds (on the reference machine, 10-s medians of one op ranged over
    1.1-2.0x its best).  The loop slows with it, so wall time x CAL_REF_S /
    calibration is the time at full speed (the same medians then stayed within
    0.96-1.00).  The loop runs in the bench process: a change that slows the
    whole interpreter, such as a global trace hook, would slow the loop too,
    and shows only in the raw times printed beside the metrics.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        x = Fraction(0)
        for i in range(1200):
            x += Fraction(i % 7, 3)
            table[(str(i % 50), i % 13)] = x
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrated:
    """Turns the wall times of consecutive ops into full-speed times, using
    the calibration loops run before and after each op."""

    def __init__(self):
        self.last = calibration_s()

    def factor(self) -> float:
        """Call right after an op: the scale for its wall time."""
        now = calibration_s()
        scale = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return scale


@dataclass(frozen=True)
class Op:
    kind: str  # "indivisible", "divisible" or "other": which *_s.p50 it counts in
    label: str  # the call or the command line it runs
    case: int  # index of its instance in the family
    argv: tuple[str, ...] = ()  # fairmatch arguments; empty for a library call


@dataclass
class Sample:
    op: Op
    wall: float
    output: object  # what the checks need: plain data, or (exit status, stdout)
    error: str | None
    time: float  # wall at full speed


def _plain(op: Op, output):
    """Keep only what the checks read, so that retained outputs do not grow
    the heap that later ops' garbage collections scan."""
    if op.argv:
        return output
    if op.kind == "indivisible":
        return {
            "profile": dict(output.profile.values),
            "lottery": [(p, dict(m.multiplicities)) for m, p in output.lottery.entries],
            "under": len(output.ged.under),
        }
    profile, exchange = output
    return {"profile": dict(profile.values), "exchange": dict(exchange)}


class Bench:
    """One workload at one seed: inputs, the library, and the ops on them."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.fairmatch = None
        self.shown: list[families.Shown] = []
        self.paths: list[Path] = []
        self.instances: list = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def setup(self) -> float:
        """Import the library, generate the inputs, write the instance files."""
        start = perf_counter()
        for name in [m for m in sys.modules if m == "fairmatch" or m.startswith("fairmatch.")]:
            del sys.modules[name]
        self.fairmatch = importlib.import_module("fairmatch")
        importlib.import_module("fairmatch.cli")
        self.shown = families.presentations(self.workload, self.seed)
        folder = WORK / self.workload
        folder.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for k, shown in enumerate(self.shown):
            path = folder / f"{k:02d}-{shown.base.name}.json"
            path.write_text(shown.text, encoding="utf-8")
            self.paths.append(path)
        if self.workload != "cli-small":
            self.instances = [self.fairmatch.parse_instance(s.text) for s in self.shown]
        return perf_counter() - start

    def rotation(self) -> list[list[Op]]:
        """The ops, grouped by the instance they serve."""
        if self.workload != "cli-small":
            return [
                [Op("indivisible", "indivisible_outcome", case), Op("divisible", "egalitarian_divisible", case)]
                for case in range(len(self.shown))
            ]
        main_cases = len(families.CLI_SIZES) + 1
        groups = []
        for case in range(main_cases):
            path = str(self.paths[case])
            shown = self.shown[case]
            u, v = (shown.mapping[x] for x in families.hidden_edge(shown.base))
            oracle = main_cases + case
            groups.append([
                Op("other", "ged", case, ("ged", path)),
                Op("indivisible", "solve --model indivisible", case, ("solve", "--model", "indivisible", path)),
                Op("divisible", "solve --model divisible", case, ("solve", "--model", "divisible", path)),
                Op("indivisible", "lottery", case, ("lottery", path)),
                Op("other", "verify", case, ("verify", path)),
                Op("other", "manipulate --hide-edge", case,
                   ("manipulate", path, "--coalition", f"{u},{v}", "--hide-edge", f"{u}:{v}")),
                Op("other", "verify --oracle", oracle, ("verify", "--oracle", str(self.paths[oracle]))),
            ])
        return groups

    def call(self, op: Op):
        """An in-process op: a library call, or ``cli.main`` with stdout captured."""
        if op.argv:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.fairmatch.cli.main(list(op.argv))
            return code, out.getvalue()
        mechanism = self.fairmatch.mechanism
        if op.kind == "indivisible":
            return mechanism.indivisible_outcome(self.instances[op.case])
        return mechanism.egalitarian_divisible(self.instances[op.case])

    def spawn(self, op: Op):
        """One ``fairmatch`` process."""
        done = subprocess.run(
            [sys.executable, "-m", "fairmatch.cli", *op.argv],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
        return done.returncode, done.stdout

    def run_op(self, op: Op, execute, clock: Calibrated) -> Sample:
        start = perf_counter()
        try:
            output = execute(op)
            wall = perf_counter() - start
            output, error = _plain(op, output), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            wall = perf_counter() - start
            output, error = None, f"{type(exc).__name__}: {exc}"
        return Sample(op, wall, output, error, wall * clock.factor())

    def problems(self, sample: Sample, refs: References) -> list[str]:
        if sample.error is not None:
            return [sample.error]
        op = sample.op
        shown = self.shown[op.case]
        try:
            if not op.argv:
                want = refs.get(shown, op.kind)
                problems = check_profile(sample.output["profile"], want)
                if op.kind == "indivisible":
                    return problems + check_lottery(shown, sample.output["lottery"], want)
                return problems + check_exchange(shown, sample.output["exchange"], want)
            code, text = sample.output
            if code != 0:
                return [f"exit status {code}"]
            return _check_cli(op, json.loads(text), shown, refs)
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]


def _check_cli(op: Op, payload: dict, shown, refs: References) -> list[str]:
    command = op.argv[0]
    if command == "verify":
        return [] if payload["passed"] is True else ["verify did not pass"]
    if command == "ged":
        return check_ged(shown, payload, refs.get(shown, "indivisible"))
    if command == "manipulate":
        if payload["verdict"] not in ("profitable", "unprofitable", "mixed"):
            return [f"unknown verdict {payload['verdict']!r}"]
        return check_profile(parse_profile(payload["truthful"]), refs.get(shown, "indivisible"))
    model = "divisible" if "divisible" in op.argv else "indivisible"
    want = refs.get(shown, model)
    problems = check_profile(parse_profile(payload["profile"]), want)
    if command == "lottery":
        problems += check_lottery(shown, parse_lottery(payload["entries"]), want)
    elif model == "divisible":
        exchange = {(e["u"], e["v"]): Fraction(e["amount"]) for e in payload["exchange"]}
        problems += check_exchange(shown, exchange, want)
    return problems


def tail_percentile(rotation_length: int) -> int:
    """The highest whole percentile with at least 10 of the rotation's ops
    beyond it.  Fixed per workload, so a faster program that completes more
    rounds is still compared at the same percentile."""
    return max(50, min(99, (100 * rotation_length - 1000) // rotation_length))


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the average of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of their slots.

    The sample median of ``big-peaks`` sits in the gap between its 0.02-s
    divisible and 0.3-s indivisible ops and jumps across it with noise; this
    estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)

    def density(x: float) -> float:
        return exp(log_norm + (a - 1) * log(x) + (b - 1) * log1p(-x)) if 0 < x < 1 else 0.0

    weights = []
    for i in range(n):  # Simpson's rule on the slot [i/n, (i+1)/n]
        h = 1 / (8 * n)
        ends = density(i / n) + density((i + 1) / n)
        inner = sum((4 if k % 2 else 2) * density(i / n + k * h) for k in range(1, 8))
        weights.append((ends + inner) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def check_all(bench: Bench, samples: list[Sample]) -> tuple[int, list[str]]:
    refs = References(REFERENCES, lp_reference(bench.fairmatch))
    failed, notes = 0, []
    for sample in samples:
        problems = bench.problems(sample, refs)
        if problems:
            failed += 1
            op = sample.op
            notes.append(f"FAIL {op.label} on {bench.shown[op.case].base.name}: {problems[0]}")
    refs.save()
    return failed, notes


def input_properties(bench: Bench, samples: list[Sample]) -> dict[str, float]:
    """Sizes of the instances the ops ran on, and the shape of their
    indivisible outcomes.  ``expanded_edges`` is the sum of b_u * b_v over the
    edges: the edge count of node expansion, computed without expanding."""
    bases = [bench.shown[case].base for case in sorted({s.op.case for s in samples})]
    under: dict[int, int] = {}
    support: dict[int, int] = {}
    for sample in samples:
        op = sample.op
        if sample.error is not None:
            continue
        if not op.argv:
            if op.kind == "indivisible":
                under[op.case] = sample.output["under"]
                support[op.case] = len(sample.output["lottery"])
        elif sample.output[0] == 0 and op.argv[0] in ("ged", "lottery"):
            payload = json.loads(sample.output[1])
            if op.argv[0] == "ged":
                under[op.case] = len(payload["under"])
            else:
                support[op.case] = len(payload["entries"])
    agents = sum(len(bench.shown[case].peaks) for case in under)
    return {
        "instances": len(bases),
        "nodes": sum(len(b.peaks) for b in bases),
        "edges": sum(len(b.edges) for b in bases),
        "peak_sum": sum(sum(b.peaks.values()) for b in bases),
        "expanded_edges": sum(b.peaks[u] * b.peaks[v] for b in bases for u, v in b.edges),
        "under_share": sum(under.values()) / max(1, agents),
        "lottery_support_mean": statistics.mean(support.values()) if support else 0,
    }


def measure(bench: Bench, seconds: float, setup_s: float) -> tuple[dict, list[Sample], list[str]]:
    """Time every op of the closed loop in whole rounds of the rotation, so
    that every op has the same weight in the metrics."""
    ops = [op for group in bench.rotation() for op in group]
    execute = bench.spawn if bench.workload == "cli-small" else bench.call
    samples: list[Sample] = []
    clock = Calibrated()
    start = perf_counter()
    deadline = start + seconds
    rounds = 0
    while rounds == 0 or perf_counter() < deadline:
        samples += [bench.run_op(op, execute, clock) for op in ops]
        rounds += 1
    elapsed = perf_counter() - start
    who = resource.RUSAGE_CHILDREN if bench.workload == "cli-small" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    tail = tail_percentile(len(ops))
    times = [s.time for s in samples]
    values = {
        "ops_per_s": len(samples) / sum(times),
        "op_s.p50": quantile(times, 0.5),
        "op_s.tail": quantile(times, tail / 100),
        "indivisible_s.p50": quantile([s.time for s in samples if s.op.kind == "indivisible"], 0.5),
        "divisible_s.p50": quantile([s.time for s in samples if s.op.kind == "divisible"], 0.5),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    walls = [s.wall for s in samples]
    notes = [
        f"closed loop, 1 client: {len(samples)} ops in {elapsed:.2f} s; as run: "
        f"{len(samples) / elapsed:.4g} ops/s, median {quantile(walls, 0.5):.4g} s, "
        f"p{tail} {quantile(walls, tail / 100):.4g} s",
        f"full-speed share of wall time: {sum(s.time for s in samples) / sum(walls):.3f}",
        f"{rounds} rounds of a rotation of {len(ops)} ops",
        f"op_s.tail is p{tail}: {sum(t > values['op_s.tail'] for t in times)} of {len(times)} samples beyond it",
        f"setup_s is the median of {SETUP_REPEATS} set-ups (import, input generation, instance files)",
    ]
    return {name: values[name] for name in END_TO_END}, samples, notes


def trace_passes(bench: Bench, ops: list[Op], seconds: float) -> tuple[dict, list[Sample], list[str]]:
    """Run ``ops`` in passes until ``seconds`` have passed; per pass, each op
    runs plainly, then under the tracer (cli-small: also as a process first)."""
    tracer = Tracer(bench.fairmatch)
    clock = Calibrated()
    samples: list[Sample] = []
    self_s: Counter[str] = Counter()  # full-speed self time per span
    plain_s = traced_s = traced_wall = 0.0
    startup: list[float] = []
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for op in ops:
            if op.argv:
                child = bench.run_op(op, bench.spawn, clock)
            plain = bench.run_op(op, bench.call, clock)
            before = Counter(tracer.self_s)
            tracer.install()
            try:
                traced = bench.run_op(op, bench.call, clock)
            finally:
                tracer.uninstall()
            scale = traced.time / traced.wall
            for name, total in tracer.self_s.items():
                self_s[name] += (total - before[name]) * scale
            if op.argv:
                startup.append(child.time - plain.time)
            plain_s += plain.time
            traced_s += traced.time
            traced_wall += traced.wall
            samples.append(traced)
        passes += 1

    values: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = tracer.calls[span] // passes
        elif field == "self_s":
            values[name] = self_s[span] / passes
        elif field == "max_denominator":
            values[name] = tracer.counts[name]
        else:
            values[name] = tracer.counts[name] // passes
    profile_calls = tracer.calls["mechanism.egalitarian_profile"]
    if profile_calls:
        values["mechanism.egalitarian_profile.max_flow_per_call"] = (
            tracer.counts["mechanism.egalitarian_profile.max_flow"] / profile_calls
        )
    values["cli.startup_s"] = statistics.median(startup) if startup else 0
    values["trace.overhead_s"] = (traced_s - plain_s) / passes
    values["trace.coverage"] = tracer.root_s / traced_wall
    notes = [
        f"{passes} traced passes of {len(ops)} ops; per-layer values are per pass, times at full speed",
        f"untraced {plain_s / passes:.3f} s, traced {traced_s / passes:.3f} s per pass",
    ]
    return values, samples, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairmatch" / "__init__.py").is_file():
        print(f"error: no fairmatch package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(args.workload, args.seed)
    clock = Calibrated()
    setup_s = statistics.median(bench.setup() * clock.factor() for _ in range(SETUP_REPEATS))
    if not Path(bench.fairmatch.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: fairmatch was imported from {bench.fairmatch.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        ops = [op for group in bench.rotation()[: TRACE_GROUPS[args.workload]] for op in group]
        metrics, samples, notes = trace_passes(bench, ops, args.seconds)
        units = PER_LAYER
    else:
        metrics, samples, notes = measure(bench, args.seconds, setup_s)
        units = END_TO_END
    failed, failures = check_all(bench, samples)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + failures:
        print(f"  {line}")
    for name, value in input_properties(bench, samples).items():
        print(f"  input {name:<34} {value if isinstance(value, int) else round(value, 4)}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    print(f"  {'fail_frac':<48} {failed / len(samples):.6g} share")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
