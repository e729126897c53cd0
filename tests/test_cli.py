import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from consensus_spectra import closed_values, parse_model
from consensus_spectra.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDesignCommand:
    def test_json_payload(self, capsys):
        code, out, err = invoke(
            capsys, "design", "--model", "ring:n=4,a=0.5", "--method", "pipeline", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["h"] == pytest.approx(0.727273, abs=1e-6)
        assert payload["rate"] == pytest.approx(0.545455, abs=1e-6)
        assert payload["method"] == "PairSolve"
        assert payload["reconciliation"]["tag"] == "Identical"
        assert payload["assumptions"]

    def test_degenerate_exit_code(self, capsys):
        code, out, err = invoke(capsys, "design", "--model", "ring:n=3,a=0")
        assert code == 2
        assert err.startswith("error type=DegenerateError")

    def test_minimax_method(self, capsys):
        code, out, _ = invoke(
            capsys, "design", "--model", "ring:n=4,a=0", "--method", "minimax"
        )
        assert code == 0
        assert json.loads(out)["h"] == pytest.approx(2 / 3, abs=1e-8)

    def test_closed_method_mixed_parity_exit_2(self, capsys):
        code, _, err = invoke(
            capsys, "design", "--model", "torus:dims=4x5,a=0.3", "--method", "closed"
        )
        assert code == 2
        assert "UnsupportedParityError" in err

    def test_minimax_with_a_degenerate_pair(self, capsys):
        # the 3-ring's pair has equal moduli, so neither the pair nor the
        # catalog reconciliation exists; minimax still solves
        code, out, _ = invoke(capsys, "design", "--model", "ring:n=3,a=0.3", "--method", "minimax")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "Minimax"
        assert (payload["lambda_s"], payload["lambda_l"], payload["reconciliation"]) == (None, None, None)
        assert payload["h"] > 0

    def test_mixed_parity_has_no_reconciliation(self, capsys):
        code, out, _ = invoke(capsys, "design", "--model", "torus:dims=4x5,a=0.3")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "PairSolve"
        assert payload["reconciliation"] is None
        assert payload["lambda_s"]["index"] == [0, 1]

    def test_csv_header_and_one_row(self, capsys):
        code, out, _ = invoke(capsys, "design", "--model", "ring:n=4,a=0.5", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header == "model;h;gamma;rate;method"
        fields = row.split(";")
        assert fields[0] == "ring:n=4,a=0.5" and fields[-1] == "PairSolve"
        assert float(fields[1]) == pytest.approx(8 / 11, abs=1e-12)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, fmt):
        argv = ["design", "--model", "rnearest:n=12,r=3,a=0.25", "--format", fmt]
        code, printed, _ = invoke(capsys, *argv)
        assert code == 0
        path = tmp_path / f"design.{fmt}"
        code, out, _ = invoke(capsys, *argv, "--out", str(path))
        assert (code, out) == (0, "")
        assert path.read_bytes() == printed.encode()

    def test_model_string_round_trips(self, capsys):
        code, out, _ = invoke(capsys, "design", "--model", "rnearest:n=12,r=3,a=0.25")
        printed = json.loads(out)["model"]
        assert parse_model(printed) == parse_model("rnearest:n=12,r=3,a=0.25")


class TestSpectrumCommand:
    def test_csv_real_parts(self, capsys):
        code, out, _ = invoke(capsys, "spectrum", "--model", "ring:n=4,a=0", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index;re;im"
        res = [round(float(line.split(";")[1]), 9) for line in lines[1:]]
        assert res == [0.0, 1.0, 2.0, 1.0]

    def test_source_oracle(self, capsys):
        code, out, _ = invoke(
            capsys, "spectrum", "--model", "ring:n=5,a=0.4", "--source", "dft", "--format", "json"
        )
        assert code == 0
        assert len(json.loads(out)) == 5

    def test_oracle_above_dense_cap(self, capsys):
        # the O(n log n) oracle has no cap: 20000 nodes, twice the dense one
        model = parse_model("ring:n=20000,a=0.3")
        code, out, _ = invoke(
            capsys, "spectrum", "--model", "ring:n=20000,a=0.3", "--source", "dft", "--format", "json"
        )
        assert code == 0
        got = np.array([complex(rec["re"], rec["im"]) for rec in json.loads(out)])
        assert np.max(np.abs(got - closed_values(model))) <= 1e-9


class TestValidationErrors:
    def test_bad_model_exit_1(self, capsys):
        code, _, err = invoke(capsys, "design", "--model", "ring:n=2,a=0")
        assert code == 1
        assert err.startswith("error type=ParameterError")

    def test_unknown_kind_exit_1(self, capsys):
        code, _, err = invoke(capsys, "spectrum", "--model", "mesh:n=4,a=0")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("design", "--model", "ring:n=4,a=0", "--method", "bogus"),
            ("design", "--format", "json"),
            ("spectrum", "--model", "ring:n=4,a=0", "--source", "cartesian"),
            ("design", "--model", "ring:n=4,a=0", "--dense-cap", "32"),
        ],
        ids=["bad-choice", "missing-model", "removed-source", "removed-flag"],
    )
    def test_usage_error_exit_1(self, capsys, argv):
        code, _, err = invoke(capsys, *argv)
        assert code == 1
        assert "usage:" in err

    def test_help_exit_0(self, capsys):
        code, out, _ = invoke(capsys, "design", "--help")
        assert code == 0
        assert "--method" in out


class TestSimulateAndVerify:
    def test_simulate_csv(self, capsys):
        code, out, _ = invoke(
            capsys,
            "simulate",
            "--model",
            "ring:n=8,a=0.2",
            "--steps",
            "50",
            "--seed",
            "7",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "step;error_norm;average"
        assert len(lines) >= 10

    def test_simulate_above_dense_cap(self, capsys):
        # the structured step is O(n), so no cap applies to it
        code, out, _ = invoke(
            capsys, "simulate", "--model", "ring:n=20000,a=0.3", "--steps", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["steps"] == 3

    def test_simulate_negative_steps_exit_1(self, capsys):
        code, out, err = invoke(capsys, "simulate", "--model", "ring:n=8,a=0.3", "--steps", "-5")
        assert code == 1
        assert out == ""
        lines = err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error type=ParameterError")

    def test_simulate_json_summary(self, capsys):
        code, out, _ = invoke(
            capsys, "simulate", "--model", "torus:dims=4x4,a=0", "--format", "json", "--steps", "200"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["converged"]
        assert payload["h"] == pytest.approx(0.4, abs=1e-9)

    def test_verify_report(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--model", "ring:n=16,a=0.3", "--trials", "3", "--seed", "42"
        )
        assert code == 0
        report = json.loads(out)
        assert len(report) == 3
        assert all(entry["pass"] for entry in report)
        assert set(report[0]) == {"trial", "seed", "empirical_factor", "gamma", "pass", "note"}


class TestSweepAndFigure:
    def test_sweep_rows(self, capsys):
        code, out, _ = invoke(
            capsys,
            "sweep",
            "--model",
            "ring:n=4,a=0.5",
            "--vary",
            "n=4,8,16",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[1].split(";")[1] == "4"

    def test_sweep_range_grammar(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--model", "ring:n=8,a=0", "--vary", "a=0:0.4:0.2", "--format", "csv"
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 4

    def test_sweep_integer_range(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--model", "ring:n=8,a=0.3", "--vary", "n=4:8:2", "--format", "json"
        )
        assert code == 0
        assert [json.loads(line)["n"] for line in out.strip().split("\n")] == [4, 6, 8]

    def test_sweep_bad_vary_exit_1(self, capsys):
        code, _, err = invoke(
            capsys, "sweep", "--model", "ring:n=8,a=0", "--vary", "q=1,2"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "model, vary",
        [
            ("ring:n=8,a=0.3", "n=3.5"),
            ("torus:dims=3x4,a=0.3", "dims=3xq"),
            ("ring:n=8,a=0.3", "a=0:x"),
            # a range may not step an integer field through fractions
            ("ring:n=8,a=0.3", "n=3:5:0.5"),
        ],
    )
    def test_sweep_non_numeric_vary_exit_1(self, model, vary):
        # run as a subprocess, so an escaping exception would show as a
        # traceback on stderr
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "consensus_spectra.cli", "sweep", "--model", model, "--vary", vary],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error type=ParameterError")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_sweep_field_of_another_kind_records_error(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--model", "ring:n=12,a=0.3", "--vary", "r=3,5", "--format", "json"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert [row["r"] for row in rows] == [3, 5]
        assert all(row["error"].startswith("ParameterError: ring takes no r") for row in rows)
        assert all(row["rate"] is None for row in rows)

    def test_figure_to_file(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "figure", "--id", "6", "--out", str(tmp_path))
        assert code == 0
        written = tmp_path / "fig6_dimension.csv"
        assert written.exists()
        assert len(written.read_text().strip().split("\n")) == 6

    def test_figure_stdout(self, capsys):
        code, out, _ = invoke(capsys, "figure", "--id", "3", "--format", "csv")
        assert code == 0
        assert out.startswith("kind;n;r;dims;a;")
