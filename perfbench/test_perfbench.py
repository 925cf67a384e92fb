"""Tests of the benchmark itself: tracer coverage, output checks, determinism
and the BENCHMARK.json contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fairmatch  # noqa: E402
import families  # noqa: E402
import run  # noqa: E402
from checks import References, check_exchange, check_lottery, check_profile, lp_reference  # noqa: E402
from tracer import Tracer, traced_functions  # noqa: E402

COUNTED = ("calls", "copy_nodes", "copy_edges", "arcs", "members", "matchings", "max_denominator", "max_flow_per_call")


def _modules():
    return [m for name, m in sys.modules.items() if name == "fairmatch" or name.startswith("fairmatch.")]


def test_every_binding_of_a_traced_function_is_wrapped():
    originals = {id(fn): name for name, fn in traced_functions(fairmatch).items()}
    assert {"flows.max_flow", "instance.expand_nodes", "mechanism.indivisible_outcome", "cli.main"} <= set(
        originals.values()
    )
    tracer = Tracer(fairmatch)
    tracer.install()
    try:
        left = [
            f"{module.__name__}.{attr} ({originals[id(value)]})"
            for module in _modules()
            for attr, value in vars(module).items()
            if id(value) in originals
        ]
        assert left == []
        for module, attr in [
            (fairmatch.mechanism, "max_flow"),
            (fairmatch.cli, "max_flow"),
            (fairmatch.matching, "expand_nodes"),
            (fairmatch.oracle, "indivisible_outcome"),
            (fairmatch.cli, "indivisible_outcome"),
            (fairmatch, "max_flow"),
        ]:
            assert getattr(module, attr).__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert fairmatch.mechanism.max_flow is fairmatch.flows.max_flow
    assert not hasattr(fairmatch.cli.max_flow, "__wrapped__")


def test_tracer_counts_calls_and_nested_solves():
    tracer = Tracer(fairmatch)
    shown = families.presentations("cli-small", 1)[0]
    inst = fairmatch.parse_instance(shown.text)
    tracer.install()
    try:
        fairmatch.mechanism.indivisible_outcome(inst)
    finally:
        tracer.uninstall()
    assert tracer.calls["mechanism.indivisible_outcome"] == 1
    assert tracer.calls["mechanism.egalitarian_profile"] == 1
    under_profile = tracer.counts["mechanism.egalitarian_profile.max_flow"]
    assert 0 < under_profile < tracer.calls["flows.max_flow"]
    assert tracer.counts["instance.expand_nodes.copy_nodes"] > 0
    assert tracer.counts["mechanism.profile.max_denominator"] == 3  # hub15 has 7/3
    assert all(t >= -1e-9 for t in tracer.self_s.values())


@pytest.fixture(scope="module")
def hub15_outcome():
    shown = families.presentations("cli-small", 1)[0]
    inst = fairmatch.parse_instance(shown.text)
    refs = References(HERE / ".cache" / "test-references.json", lp_reference(fairmatch))
    return shown, fairmatch.indivisible_outcome(inst), fairmatch.egalitarian_divisible(inst), refs


def test_checks_pass_on_library_outputs(hub15_outcome):
    shown, outcome, (profile, exchange), refs = hub15_outcome
    want = refs.get(shown, "indivisible")
    entries = [(p, dict(m.multiplicities)) for m, p in outcome.lottery.entries]
    assert check_profile(dict(outcome.profile.values), want) == []
    assert check_lottery(shown, entries, want) == []
    divisible = refs.get(shown, "divisible")
    assert check_exchange(shown, dict(exchange), divisible) == []


def test_check_fails_on_perturbed_profile(hub15_outcome):
    shown, outcome, (profile, exchange), refs = hub15_outcome
    got = dict(outcome.profile.values)
    a, b = sorted(got)[:2]
    got[a] += Fraction(1, 3)
    got[b] -= Fraction(1, 3)
    assert check_profile(got, refs.get(shown, "indivisible"))
    moved = dict(exchange)
    edge = next(iter(moved))
    moved[edge] += Fraction(1, 2)
    assert check_exchange(shown, moved, refs.get(shown, "divisible"))


def test_check_fails_on_perturbed_lottery_weight(hub15_outcome):
    shown, outcome, _, refs = hub15_outcome
    want = refs.get(shown, "indivisible")
    entries = [(p, dict(m.multiplicities)) for m, p in outcome.lottery.entries]
    assert len(entries) >= 2
    shifted = [(entries[0][0] + Fraction(1, 100), entries[0][1]), (entries[1][0] - Fraction(1, 100), entries[1][1])]
    assert check_lottery(shown, shifted + entries[2:], want)
    scaled = [(p / 2, m) for p, m in entries]
    assert check_lottery(shown, scaled, want)


def test_cli_output_with_a_perturbed_profile_counts_as_failed(hub15_outcome):
    shown, outcome, _, refs = hub15_outcome
    bench = run.Bench("cli-small", 1)
    bench.shown = families.presentations("cli-small", 1)
    payload = {"model": "indivisible", "profile": outcome.profile.to_json_dict(), "marginals": {}}
    op = run.Op("indivisible", "solve --model indivisible", 0, ("solve", "--model", "indivisible", "x.json"))
    good = run.Sample(op, 0.1, (0, json.dumps(payload)), None, 0.1)
    assert bench.problems(good, refs) == []
    node = sorted(payload["profile"])[0]
    payload["profile"][node] = "1/7"
    assert bench.problems(run.Sample(op, 0.1, (0, json.dumps(payload)), None, 0.1), refs)
    assert bench.problems(run.Sample(op, 0.1, (1, ""), None, 0.1), refs) == ["exit status 1"]


SHORT_RUN = """
import hashlib, json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import run
bench = run.Bench({workload!r}, 5)
bench.setup()
values, samples, _ = run.trace_passes(bench, bench.rotation()[0], 0)
inputs = hashlib.sha256("".join(s.text for s in bench.shown).encode()).hexdigest()
counted = {{k: v for k, v in values.items() if k.rpartition(".")[2] in {counted!r}}}
print(json.dumps({{"inputs": inputs, "counters": counted}}, sort_keys=True))
"""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_and_counters_repeat_exactly(workload):
    code = SHORT_RUN.format(perfbench=str(HERE), src=str(ROOT / "src"), workload=workload, counted=COUNTED)
    outputs = []
    for hashseed in ("0", "0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]["counters"]["flows.max_flow.calls"] > 0


def test_seed_changes_the_presentation_not_the_family():
    one, two = families.presentations("mid-random", 1), families.presentations("mid-random", 2)
    assert [s.text for s in one] != [s.text for s in two]
    assert [s.base for s in one] == [s.base for s in two]
    assert [s.text for s in one] == [s.text for s in families.presentations("mid-random", 1)]
    for shown in one:
        assert sorted(shown.mapping, key=shown.mapping.get) == sorted(shown.mapping)
        assert list(shown.peaks) == [shown.mapping[node] for node in shown.base.peaks]


def test_oracle_instances_fit_the_enumeration_limit():
    oracle = [b for b in families.family("cli-small") if b.name.startswith("oracle")]
    assert oracle and all(sum(b.peaks.values()) <= families.ORACLE_PEAK_SUM for b in oracle)


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_percentile_leaves_ten_samples_of_one_rotation_beyond_it():
    assert run.tail_percentile(32) == 68
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(12) == 50


def test_quantile_is_smooth_across_a_gap():
    assert run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    assert run.quantile([0.25] * 7, 0.75) == pytest.approx(0.25)
    low, high = [0.02] * 20, [0.3] * 20
    # the sample median of a half-and-half mix jumps from 0.02 to 0.3 when one op crosses
    assert run.quantile(low + high, 0.5) == pytest.approx(0.16, abs=0.01)
    assert abs(run.quantile(low[1:] + high + [0.3], 0.5) - run.quantile(low + high, 0.5)) < 0.04


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
