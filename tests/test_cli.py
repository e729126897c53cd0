import ast
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from consensus_spectra import closed_design, closed_values, design as design_mod, parse_model
from consensus_spectra.analysis import FIGURES
from consensus_spectra.cli import build_parser, run
from consensus_spectra.topology import _MAX_TABLE
from conftest import strict_json

SRC = Path(__file__).resolve().parents[1] / "src"
# the size rule's message for a ring side past the longest float64 table
RING_PAST = f"ring needs every side <= {_MAX_TABLE}, got n="


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
        assert payload["method"] == "pipeline"
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

    def test_model_too_large_to_tabulate_exit_2(self, capsys):
        # its first table asks for 6.94 EiB, more than any 64-bit user
        # address space holds, so numpy refuses it without allocating
        code, out, err = invoke(capsys, "design", "--model", f"ring:n={10**18},a=0.3")
        assert (code, out) == (2, "")
        assert err.startswith("error type=MemoryError message='Unable to allocate 6.94 EiB")
        assert err.count("\n") == 1

    def test_minimax_with_a_degenerate_pair(self, capsys):
        # the 3-ring's pair has equal moduli, so neither the pair design nor
        # the catalog reconciliation exists; minimax still solves and
        # carries the pair
        code, out, _ = invoke(capsys, "design", "--model", "ring:n=3,a=0.3", "--method", "minimax")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "minimax"
        assert payload["lambda_s"] == payload["lambda_l"]
        assert payload["lambda_s"]["index"] == [1]
        assert payload["reconciliation"] is None
        assert payload["h"] > 0

    def test_mixed_parity_has_no_reconciliation(self, capsys):
        code, out, _ = invoke(capsys, "design", "--model", "torus:dims=4x5,a=0.3")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "pipeline"
        assert payload["reconciliation"] is None
        assert payload["lambda_s"]["index"] == [0, 1]

    def test_csv_header_and_one_row(self, capsys):
        code, out, _ = invoke(capsys, "design", "--model", "ring:n=4,a=0.5", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header == "model;h;gamma;rate;method"
        fields = row.split(";")
        assert fields[0] == "ring:n=4,a=0.5" and fields[-1] == "pipeline"
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

    def test_csv_bytes(self, capsys):
        # recorded before the CSV moved to topology.to_csv
        _, out, _ = invoke(capsys, "design", "--model", "ring:n=4,a=0.5", "--format", "csv")
        assert out == (
            "model;h;gamma;rate;method\n"
            "ring:n=4,a=0.5;0.7272727272727272;0.45454545454545464;0.5454545454545454;pipeline\n"
        )

    def test_model_string_round_trips(self, capsys):
        code, out, _ = invoke(capsys, "design", "--model", "rnearest:n=12,r=3,a=0.25")
        printed = json.loads(out)["model"]
        assert parse_model(printed) == parse_model("rnearest:n=12,r=3,a=0.25")


# the stdout of each command, recorded before ConsensusDesign,
# ReconciledRate and SimulationTrace derived their rate, tag, steps and
# empirical factor; the 3-ring minimax designs were recorded when every
# design began to carry its model's pair
GOLDEN = {
    "design-rnearest": (
        ("design", "--model", "rnearest:n=12,r=3,a=0.25"),
        """\
{
  "model": "rnearest:n=12,r=3,a=0.25",
  "h": 0.35936677061567657,
  "gamma": 0.4643188962934802,
  "rate": 0.5356811037065198,
  "method": "pipeline",
  "lambda_s": {
    "index": [
      1
    ],
    "re": 1.6339745962155612,
    "im": 0.5915063509461096
  },
  "lambda_l": {
    "index": [
      2
    ],
    "re": 3.9999999999999996,
    "im": 0.43301270189221935
  },
  "reconciliation": {
    "value": 0.32856748110561695,
    "tag": "Mismatch",
    "pipeline_rate": 0.5356811037065198,
    "case": "rnearest-even"
  },
  "assumptions": [
    "r-nearest closed forms read the squared asymmetry coefficient as a**2",
    "odd-odd torus closed form keeps its literal 0.16 coefficients"
  ]
}
""",
    ),
    "design-minimax-degenerate-pair": (
        ("design", "--model", "ring:n=3,a=0.3", "--method", "minimax"),
        """\
{
  "model": "ring:n=3,a=0.3",
  "h": 0.6472491909385114,
  "gamma": 0.17066403719657233,
  "rate": 0.8293359628034277,
  "method": "minimax",
  "lambda_s": {
    "index": [
      1
    ],
    "re": 1.4999999999999998,
    "im": 0.2598076211353316
  },
  "lambda_l": {
    "index": [
      1
    ],
    "re": 1.4999999999999998,
    "im": 0.2598076211353316
  },
  "reconciliation": null,
  "assumptions": [
    "r-nearest closed forms read the squared asymmetry coefficient as a**2",
    "odd-odd torus closed form keeps its literal 0.16 coefficients"
  ]
}
""",
    ),
    "design-minimax-exact-averaging": (
        ("design", "--model", "ring:n=3,a=0", "--method", "minimax"),
        """\
{
  "model": "ring:n=3,a=0.0",
  "h": 0.6666666666666667,
  "gamma": 4.440892098500626e-16,
  "rate": 0.9999999999999996,
  "method": "minimax",
  "lambda_s": {
    "index": [
      1
    ],
    "re": 1.4999999999999998,
    "im": 0.0
  },
  "lambda_l": {
    "index": [
      1
    ],
    "re": 1.4999999999999998,
    "im": 0.0
  },
  "reconciliation": null,
  "assumptions": [
    "r-nearest closed forms read the squared asymmetry coefficient as a**2",
    "odd-odd torus closed form keeps its literal 0.16 coefficients"
  ]
}
""",
    ),
    "design-all-odd-torus": (
        ("design", "--model", "torus:dims=3x3x5,a=0.3"),
        """\
{
  "model": "torus:dims=3x3x5,a=0.3",
  "h": 0.3572801488114595,
  "gamma": 0.759993009873997,
  "rate": 0.24000699012600302,
  "method": "pipeline",
  "lambda_s": {
    "index": [
      0,
      0,
      1
    ],
    "re": 0.6909830056250525,
    "im": 0.285316954888546
  },
  "lambda_l": {
    "index": [
      1,
      1,
      2
    ],
    "re": 4.809016994374947,
    "im": 0.6959508179584052
  },
  "reconciliation": {
    "value": 0.5304254775993934,
    "tag": "Mismatch",
    "pipeline_rate": 0.24000699012600302,
    "case": "torusN-odd"
  },
  "assumptions": [
    "r-nearest closed forms read the squared asymmetry coefficient as a**2",
    "odd-odd torus closed form keeps its literal 0.16 coefficients"
  ]
}
""",
    ),
    "simulate-json": (
        ("simulate", "--model", "ring:n=64,a=0.3", "--steps", "40", "--format", "json"),
        """\
{
  "model": "ring:n=64,a=0.3",
  "h": 0.9978138404008333,
  "steps": 40,
  "converged": false,
  "empirical_factor": 0.9619217370320226,
  "final_error": 0.49323789533467094
}
""",
    ),
    "verify": (
        ("verify", "--model", "torus:dims=4x5,a=0.3", "--trials", "2"),
        """\
[
  {
    "trial": 0,
    "seed": 42,
    "empirical_factor": 0.7034000422133042,
    "gamma": 0.7033998086284735,
    "pass": true,
    "note": ""
  },
  {
    "trial": 1,
    "seed": 43,
    "empirical_factor": 0.7033995333927603,
    "gamma": 0.7033998086284735,
    "pass": true,
    "note": ""
  }
]
""",
    ),
}

class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_stdout_bytes(self, capsys, name):
        argv, expected = GOLDEN[name]
        assert invoke(capsys, *argv) == (0, expected, "")


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv",
        [
            ("design", "--model", "ring:n=4,a=0.5"),
            # the r-nearest rate entry takes the square root of a negative number
            ("design", "--model", "rnearest:n=38,r=18,a=0"),
            ("design", "--model", "rnearest:n=11,r=4,a=0.4", "--method", "minimax"),
            # the r-nearest h entry is 0/0
            ("design", "--model", "rnearest:n=6,r=2,a=0", "--method", "closed"),
            ("spectrum", "--model", "torus:dims=3x4,a=0.3", "--format", "json"),
            ("simulate", "--model", "ring:n=8,a=0.3", "--steps", "30", "--format", "json"),
            ("verify", "--model", "ring:n=16,a=0.3", "--trials", "2"),
            (
                "sweep", "--model", "rnearest:n=12,r=1,a=0", "--vary", "r=1,2,5",
                "--method", "closed", "--format", "json",
            ),
            ("figure", "--id", "5", "--format", "json"),
        ],
        ids=lambda argv: "-".join(argv[:1] + argv[2:3]),
    )
    def test_output_is_strict_json(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        if argv[0] in ("sweep", "figure"):
            for line in out.splitlines():
                strict_json(line)
        else:
            strict_json(out)

    def test_design_writes_null_for_nan(self, capsys):
        _, out, _ = invoke(capsys, "design", "--model", "rnearest:n=38,r=18,a=0")
        payload = strict_json(out)
        assert payload["reconciliation"]["value"] is None
        assert payload["reconciliation"]["tag"] == "Mismatch"
        assert payload["h"] > 0

        _, out, _ = invoke(capsys, "design", "--model", "rnearest:n=6,r=2,a=0", "--method", "closed")
        payload = strict_json(out)
        assert (payload["h"], payload["gamma"], payload["rate"]) == (None, None, None)
        assert payload["reconciliation"]["value"] is None


    def test_design_writes_null_for_infinities(self, capsys, monkeypatch):
        # the slow-mode design at h = inf, as a catalog entry with a zero
        # divisor and a positive numerator would give it
        def infinite(model):
            design = closed_design(model)
            return dataclasses.replace(design, h=math.inf, gamma=math.inf)

        monkeypatch.setitem(design_mod.DESIGN_METHODS, "closed", infinite)
        code, out, _ = invoke(capsys, "design", "--model", "ring:n=8,a=0.3", "--method", "closed")
        assert code == 0
        payload = strict_json(out)
        assert (payload["h"], payload["gamma"], payload["rate"]) == (None, None, None)
        assert payload["lambda_s"]["index"] == [1]


class TestFormats:
    @pytest.mark.parametrize(
        "command, formats",
        [
            ("spectrum", ["csv", "json"]),
            ("design", ["json", "csv"]),
            ("simulate", ["csv", "json"]),
            ("verify", ["json"]),
            ("sweep", ["csv", "json"]),
            ("figure", ["csv", "json"]),
        ],
    )
    def test_choices_and_default(self, capsys, command, formats):
        _, out, _ = invoke(capsys, command, "--help")
        assert f"--format {{{','.join(formats)}}}" in out
        required = ["--id", "3"] if command == "figure" else ["--model", "ring:n=4,a=0"]
        assert build_parser().parse_args([command, *required]).format == formats[0]

    def test_verify_rejects_csv(self, capsys):
        # verify writes JSON only; csv used to be accepted and ignored
        code, out, err = invoke(capsys, "verify", "--model", "ring:n=16,a=0.3", "--format", "csv")
        assert (code, out) == (1, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--format: invalid choice: 'csv'" in errors[0], err

    def test_figure_directory_rejects_json(self, capsys, tmp_path):
        # a directory takes the dataset's CSV file; json used to be ignored
        code, out, err = invoke(capsys, "figure", "--id", "7", "--out", str(tmp_path), "--format", "json")
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error type=ParameterError"), err
        assert list(tmp_path.iterdir()) == []

    def test_figure_json_to_a_file(self, capsys, tmp_path):
        path = tmp_path / "fig7.jsonl"
        code, out, _ = invoke(capsys, "figure", "--id", "7", "--out", str(path), "--format", "json")
        assert (code, out) == (0, "")
        assert [strict_json(line)["kind"] for line in path.read_text().splitlines()] == ["ring"] * 62

    @pytest.mark.parametrize(
        "argv, quoted",
        [
            # each sweep's first row is an error row whose message holds a ";"
            (["sweep", "--model", "ring:n=3,a=0", "--vary", "n=3,4"], True),
            (["sweep", "--model", "rnearest:n=8,r=3,a=0", "--vary", "n=7,8"], True),
            (["design", "--model", "ring:n=3,a=0", "--method", "minimax"], False),
            *[
                (["figure", "--id", str(i), "--method", method], False)
                for i in FIGURES
                for method in ("pipeline", "minimax")
            ],
        ],
    )
    def test_csv_reads_back_as_wide_as_its_header(self, capsys, argv, quoted):
        code, out, _ = invoke(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out), delimiter=";")
        assert rows and all(len(row) == len(header) for row in rows)
        assert any(";" in row[-1] for row in rows) == quoted


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
        # the O(n log n) oracle runs at any size: 20000 nodes
        model = parse_model("ring:n=20000,a=0.3")
        code, out, _ = invoke(
            capsys, "spectrum", "--model", "ring:n=20000,a=0.3", "--source", "dft", "--format", "json"
        )
        assert code == 0
        got = np.array([complex(rec["re"], rec["im"]) for rec in json.loads(out)])
        assert np.max(np.abs(got - closed_values(model))) <= 1e-9


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "argv",
        [
            ("design", "--model", "ring:n=4,a=0.5", "--out", "{missing}/x.json"),
            ("figure", "--id", "7", "--out", "{missing}/"),
        ],
        ids=["design", "figure"],
    )
    def test_one_error_line(self, tmp_path, argv):
        # a subprocess, so that an escaping OSError would show as a traceback
        missing = tmp_path / "missing" / "dir"
        argv = [arg.format(missing=missing) for arg in argv]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "consensus_spectra.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error type=ParameterError"), proc.stderr
        assert "No such file or directory" in lines[0]
        assert not missing.exists()


class TestValidationErrors:
    def test_bad_model_exit_1(self, capsys):
        code, _, err = invoke(capsys, "design", "--model", "ring:n=2,a=0")
        assert code == 1
        assert err.startswith("error type=ParameterError")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("design", "--model", f"ring:n={2**60},a=0.3"), f"{RING_PAST}{2**60}"),
            (("design", "--model", f"ring:n={2**63 - 1},a=0.3"), f"{RING_PAST}{2**63 - 1}"),
            (("design", "--method=minimax", "--model", f"ring:n={2**63 - 1},a=0.3"), f"{RING_PAST}{2**63 - 1}"),
            (("simulate", "--model", f"ring:n={2**63 - 1},a=0.3"), f"{RING_PAST}{2**63 - 1}"),
            # --h skips the design, so no table is built before x0's
            *[
                (
                    ("simulate", "--h=0.1", "--steps=1", "--model", f"torus:dims={side}x{side}x{side},a=0.3"),
                    f"size {side**3} exceeds {_MAX_TABLE}, the longest table numpy can index",
                )
                for side in (2**21, 10**7)
            ],
        ],
        ids=["design-2^60", "design-2^63", "minimax-2^63", "simulate-2^63", "x0-2^63", "x0-1e21"],
    )
    def test_past_the_longest_table_exit_1(self, capsys, argv, message):
        # numpy meets these sizes with an empty table or a ValueError; the
        # bound is checked before anything is allocated
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (1, "", f"error type=ParameterError message={message!r}\n")

    def test_verify_past_the_longest_table_exit_1(self, capsys, monkeypatch):
        # a small model's design stands in for the pipeline's, which would
        # tabulate three factors of 10**7 points before the trials start
        small = design_mod.design_pipeline(parse_model("ring:n=8,a=0.3"))
        monkeypatch.setattr(design_mod, "design_pipeline", lambda model: small)
        code, out, err = invoke(capsys, "verify", "--model", "torus:dims=10000000x10000000x10000000,a=0.3")
        message = f"size {10**21} exceeds {_MAX_TABLE}, the longest table numpy can index"
        assert (code, out, err) == (1, "", f"error type=ParameterError message={message!r}\n")

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
            ("figure", "--id", "8"),
        ],
        ids=["bad-choice", "missing-model", "removed-source", "removed-flag", "unknown-figure"],
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
        # the structured step is O(n) and runs at any size
        code, out, _ = invoke(
            capsys, "simulate", "--model", "ring:n=20000,a=0.3", "--steps", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["steps"] == 3

    @pytest.mark.parametrize(
        "flags",
        [
            ("--steps", "-5"),
            # a JSON summary of a run with h = inf would hold Infinity,
            # which is not JSON
            ("--h", "inf", "--format", "json"),
            ("--tolerance", "inf"),
            ("--h", "inf", "--tolerance", "inf", "--format", "json"),
        ],
        ids=["negative-steps", "h-inf", "tolerance-inf", "both-inf"],
    )
    def test_simulate_bad_value_exit_1(self, capsys, flags):
        code, out, err = invoke(capsys, "simulate", "--model", "ring:n=8,a=0.3", *flags)
        assert code == 1
        assert out == ""
        lines = err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error type=ParameterError")

    def test_simulate_overflow_one_error_line(self):
        # a subprocess, so that numpy's warnings reach stderr as they would
        # for a user: only the one machine-parsable line may appear
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "consensus_spectra.cli", "simulate", "--model", "ring:n=8,a=0.3", "--h", "1e300"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error type=DivergenceError"), proc.stderr

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
        env = dict(os.environ, PYTHONPATH=str(SRC))
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["sweep", "--model", "ring:n=8,a=0.3", "--vary", "n=4", "--vary", "n=6"],
                "repeated --vary field 'n' in 'n=6'",
            ),
            (
                ["design", "--model", "ring:n=8,n=9,a=0.3"],
                "repeated field 'n' in model spec 'ring:n=8,n=9,a=0.3'",
            ),
            # --vary values are read by the model grammar, which rejects these dims
            (
                ["sweep", "--model", "torus:dims=3x4,a=0.3", "--vary", "dims=5"],
                "malformed dims '5', expected <int>x<int>[x<int>...]",
            ),
            (
                ["sweep", "--model", "torus:dims=3x4,a=0.3", "--vary", "dims=3x4,3xq"],
                "malformed dims '3xq', expected <int>x<int>[x<int>...]",
            ),
        ],
        ids=["repeated-vary", "repeated-model-field", "vary-dims-5", "vary-dims-3xq"],
    )
    def test_grammar_error_one_line(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error type=ParameterError message={message!r}\n"

    def test_vary_values_read_like_the_model_grammar(self, capsys):
        # blanks around a value are allowed, as in the model grammar
        code, out, _ = invoke(
            capsys, "sweep", "--model", "torus:dims=3x4,a=0.3", "--vary", "dims= 3x5, 4x4", "--format", "json"
        )
        assert code == 0
        assert [json.loads(line)["dims"] for line in out.splitlines()] == ["3x5", "4x4"]

    def test_sweep_field_of_another_kind_records_error(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--model", "ring:n=12,a=0.3", "--vary", "r=3,5", "--format", "json"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert [row["r"] for row in rows] == [3, 5]
        assert all(row["error"].startswith("ParameterError: ring takes no r") for row in rows)
        assert all(row["rate"] is None for row in rows)

    @pytest.mark.parametrize(
        "vary, message",
        [
            ("a=0:inf", "range bounds and step must be finite in 'a=0:inf'"),
            ("a=-inf:1", "range bounds and step must be finite in 'a=-inf:1'"),
            ("a=0:1:nan", "range bounds and step must be finite in 'a=0:1:nan'"),
            ("a=0:1e7:1e-3", "--vary 'a=0:1e7:1e-3' gives more than 100000 points"),
            ("n=4:100004", "--vary 'n=4:100004' gives more than 100000 points"),
            # 1e20 + 1 rounds back to 1e20, so the loop would never leave it
            ("a=1e20:1e20:1", "--vary 'a=1e20:1e20:1' gives more than 100000 points"),
        ],
        ids=["inf-stop", "inf-start", "nan-step", "1e10-points", "100001-points", "stalled-step"],
    )
    def test_unbounded_range_exit_1(self, vary, message):
        # a subprocess with a timeout: these ranges used to loop without end
        proc = subprocess.run(
            [sys.executable, "-m", "consensus_spectra.cli", "sweep", "--model", "ring:n=8,a=0.3", "--vary", vary],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error type=ParameterError message={message!r}\n"

    def test_figure_ids_are_the_figure_table(self, capsys):
        code, out, _ = invoke(capsys, "figure", "--help")
        assert code == 0
        assert f"--id {{{','.join(map(str, sorted(FIGURES)))}}}" in out

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


def test_cli_reads_no_private_package_name():
    # the frontend uses the package's public surface only, both as
    # ``from .x import _y`` and as ``module._y``
    tree = ast.parse((SRC / "consensus_spectra" / "cli.py").read_text())
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("consensus_spectra")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(alias.name)
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            private.append(f"{node.value.id}.{node.attr}")
    assert {"analysis", "design_mod", "spectral", "topology"} <= modules
    assert private == []
