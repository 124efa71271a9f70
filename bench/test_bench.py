"""Tests of the benchmark's own code, on smoke-size workloads."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_program()
import jameslab  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Every callable the package binds, plus the wrapped constructor."""
    snapshot = {
        (mod.__name__, key): value
        for mod in tracing.package_modules()
        for key, value in vars(mod).items()
        if callable(value)
    }
    snapshot[("Basis", "__init__")] = jameslab.Basis.__init__
    return snapshot


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_workload_passes_its_checks(workload, tmp_path):
    first = run.setup(workload, 0, tmp_path, None, smoke=True)
    result = run.run_pass(first.jobs, None)
    assert first.warmup.failures == []
    assert result.failures == []
    assert len(result.times) == len(first.jobs) > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_restores_bindings_and_keeps_stdout(workload, tmp_path):
    first = run.setup(workload, 0, tmp_path, None, smoke=True)
    before = _bindings()
    plain = run.run_pass(first.jobs, None)
    tracer = tracing.Tracer()
    with tracer:
        assert jameslab.cli.main is not before[("jameslab.cli", "main")]
        assert jameslab.metastability.integrate_over is not before[
            ("jameslab.metastability", "integrate_over")
        ]
        traced = run.run_pass(first.jobs, None, tracer=tracer)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []

    run.compare_stdout(plain, traced, "traced pass")
    assert traced.failures == []
    assert traced.digests == plain.digests
    metrics = tracer.metrics()
    assert set(metrics) <= set(tracing.PER_LAYER_METRICS)
    assert metrics["cli.self_s"] > 0
    if workload == "norm_search":
        assert metrics["measure_space.integrate.calls"] == 0
        assert metrics["james_core.norm_dp.calls"] > 0
        assert metrics["basis_tools.uc.replays"] > 0
    else:
        assert metrics["james_core.norm_dp.calls"] == 0
        assert metrics["measure_space.integrate.calls"] > 0
        assert metrics["measure_space.subsets"] > 0
    if workload == "refute_canonical":
        assert metrics["metastability.finder.calls"] > 0
        assert metrics["hierarchy.breach_digits"] > 0


def test_wrappers_removed_when_a_job_raises(tmp_path):
    before = _bindings()

    def broken():
        jameslab.james_norm_sq(None)

    with tracing.Tracer() as tracer:
        result = run.run_pass([workloads.Job("broken", "norm", broken, lambda out: None)],
                              None, tracer=tracer)
    assert [label for label, _ in result.failures] == ["broken"]
    assert tracer.metrics()["james_core.norm_dp.calls"] == 1
    after = _bindings()
    assert [key for key in before if after[key] is not before[key]] == []


def test_wrong_expected_values_are_failures():
    # the threshold check expects the bound for B = 2, the job asks for B = 3
    wrong_bound = workloads.cli_job(
        "threshold", "hierarchy", ["threshold", "--B", "3", "--eps", "1/2"],
        workloads.check_threshold(Fraction(2), Fraction(1, 2)),
    )
    right_bound = workloads.cli_job(
        "threshold B=3", "hierarchy", ["threshold", "--B", "3", "--eps", "1/2"],
        workloads.check_threshold(Fraction(3), Fraction(1, 2)),
    )
    crash = workloads.Job("crash", "norm", lambda: 1 // 0, lambda out: None)
    result = run.run_pass([wrong_bound, right_bound, crash], {"threshold B=3": "0" * 64})
    assert [label for label, _ in result.failures] == ["threshold", "threshold B=3", "crash"]
    assert "digest" in result.failures[1][1]
    matrix = "n\\p,0,1\n0,1/2,0\n1,1/2,1/2\n"
    assert workloads.check_matrix_csv(matrix, 1, Fraction(1, 2)) is None
    assert workloads.check_matrix_csv(matrix, 1, Fraction(1, 3)) is not None


def test_counting_pass_repeats_exactly(tmp_path):
    first = run.setup("norm_search", 0, tmp_path, None, smoke=True)
    counts = []
    for _ in range(2):
        profile = tracing.new_counting_profile()
        run.run_pass(first.jobs, None, profile=profile)
        counts.append(tracing.count_constructions(profile))
    assert counts[0] == counts[1]
    assert counts[0]["scalars.fraction_new"] > 0
    assert counts[0]["scalars.root2_new"] > 0


def test_inputs_depend_only_on_the_seed():
    a = workloads.random_basis_columns(6, workloads.random.Random("7"))
    b = workloads.random_basis_columns(6, workloads.random.Random("7"))
    assert a == b
    assert jameslab.Basis(6, a).columns == a  # invertible, as the generator promises
    assert workloads._is_singular(((Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(1))))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == tracing.PER_LAYER_METRICS


def test_predictions_name_real_metrics_and_workloads():
    doc = json.loads((run.BENCH_DIR / "predictions.json").read_text(encoding="utf-8"))
    assert set(doc["groups"]) == set(run.WORKLOADS)
    named = [name for p in doc["predictions"] for name in p["per_layer"]]
    assert sorted(named) == sorted(tracing.PER_LAYER_METRICS)
    for p in doc["predictions"]:
        for workload, groups in p["moves"].items():
            assert set(groups) <= set(doc["groups"][workload])
