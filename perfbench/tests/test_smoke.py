"""Smoke test of the benchmark harness, so that it cannot rot.

Runs both workloads at toy size, traced and untraced, and feeds every
checker one wrong value.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NULL_TRACER  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# per-layer metrics each toy workload must report as nonzero, so that a
# renamed span cannot silently report 0
TOUCHED = {
    "library": ["design.design_pipeline.calls", "analysis.figure_dataset.fig3.rows",
                "analysis.rows_to_csv.bytes", "design.closed_form_R.mismatch",
                "spectral.full_spectrum.dft.eigenvalues", "design.minimax_h.eigenvalues",
                "spectral.oracle_max_abs_err", "topology.parse_model.calls",
                "simulate.run_consensus.ring.node_steps", "simulate.run_consensus.dense.node_steps",
                "simulate.verify_consensus.trials", "simulate.uniform_vector.values"],
    "cli": [f"cli.{cmd}.ms" for cmd in run.CLI_COMMANDS],
}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_toy_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--size", "toy", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    if trace == "0":
        names = [m["name"] for m in run.END_TO_END]
    else:
        names = [name for name, _, _ in run.PER_LAYER]
    assert list(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]
    if trace == "1":
        assert all(result["metrics"][name]["value"] > 0 for name in TOUCHED[workload])


def test_manifest_matches_benchmark_json():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.manifest()


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "library", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_wrong_value_is_counted_as_a_failed_operation():
    workload = workloads.library("toy", seed=3)
    request = next(op for op in workload.ops if op.kind == "design_request")
    out = request.run(NULL_TRACER)
    assert request.check(out, {}) == []

    corrupted = replace(request, run=lambda tr: dict(out, gamma=(out["gamma"] or 0.0) + 1e-6))
    raising = replace(request, run=lambda tr: 1 / 0)
    workload.ops = [request, corrupted, raising]
    log: list[str] = []
    result = run.run_pass(workload, traced=False, failure_log=log)
    assert result.failed == 2
    assert len(log) == 2 and all(line.startswith(f"library {request.label}") for line in log)


# --- each checker, fed one wrong value ----------------------------------------


def test_figure_csv_checker():
    reference = checks.figure_reference_path(7).read_text()
    assert checks.check_figure_csv(reference, reference) == []
    header, first, *rest = reference.split("\n")
    cells = first.split(";")
    cells[6] = repr(float(cells[6]) * (1 + 1e-15))
    wrong = "\n".join([header, ";".join(cells), *rest])
    assert len(checks.check_figure_csv(reference, wrong)) == 1


def test_design_request_checker():
    reference = checks.load_design_reference()["ring:n=8,a=0.3"]
    good = {k: reference[k] for k in ("h", "gamma", "rate", "tag", "error")}
    assert checks.check_design_request(reference, good) == []
    assert len(checks.check_design_request(reference, dict(good, h=good["h"] + 1e-9))) == 1
    assert len(checks.check_design_request(reference, dict(good, tag="Mismatch"))) == 1
    assert len(checks.check_design_request(reference, dict(good, error="SizeError"))) == 1


def test_oracle_checker():
    closed = np.array([0.0, 1.0 + 0.5j, 2.0])
    assert checks.check_oracle(checks.oracle_error(closed, closed + 1e-12)) == []
    assert len(checks.check_oracle(checks.oracle_error(closed, closed + 1e-8))) == 1


def test_minimax_checker():
    assert checks.check_minimax(0.5, 0.6, 0.5) == []
    assert len(checks.check_minimax(0.61, 0.6, 0.61)) == 1
    assert len(checks.check_minimax(0.5, 0.6, 0.5 + 1e-8)) == 1


def _toy_fixed_step(dense=False, steps=60):
    spec = "rnearest:n=40,r=3,a=0.3"
    x0 = np.random.default_rng(0).random(40)
    return x0, workloads.fixed_step_run(NULL_TRACER, spec, x0, steps, dense)


def test_drift_checker():
    x0, out = _toy_fixed_step()
    averages = out["trace"].averages
    assert checks.check_drift(averages, x0) == []
    wrong = averages.copy()
    wrong[-1] += 1e-9
    assert len(checks.check_drift(wrong, x0)) == 1


def test_dense_agreement_checker():
    _, structured = _toy_fixed_step()
    _, dense = _toy_fixed_step(dense=True)
    assert checks.check_dense_agreement(structured["trace"], dense["trace"]) == []
    wrong = replace(dense["trace"], error_norms=dense["trace"].error_norms + 1e-10)
    assert len(checks.check_dense_agreement(structured["trace"], wrong)) == 1


def test_final_error_checker():
    x0, out = _toy_fixed_step()
    model, norms = out["model"], out["trace"].error_norms
    eigenvalues = workloads.spectral.closed_values(model)
    args = (x0, out["h"], eigenvalues, model.degree_weight)
    assert checks.check_final_error(norms, *args) == []
    rho = checks.spectral_radius(out["h"], eigenvalues)
    wrong = norms.copy()
    wrong[-1] = 2 * rho ** (len(norms) - 1) * norms[0] + 1e-6
    assert len(checks.check_final_error(wrong, *args)) == 1


def test_uniform_checker():
    values = workloads.simulate.uniform_vector(5, 64)
    reference = checks.splitmix_reference(5, 64)
    assert checks.check_uniform(values, reference) == []
    wrong = values.copy()
    wrong[10] = np.nextafter(wrong[10], 1.0)
    assert len(checks.check_uniform(wrong, reference)) == 1


def test_cli_checkers():
    assert checks.check_exit(2, 2) == []
    assert len(checks.check_exit(0, 2)) == 1
    assert checks.check_equal("x", {"h": 0.5}, {"h": 0.5}) == []
    assert len(checks.check_equal("x", {"h": 0.5000000000000001}, {"h": 0.5})) == 1
    values = np.array([1.0 + 2.0j, 3.0])
    assert len(checks.check_equal("x", values + 1e-16j, values)) == 1
