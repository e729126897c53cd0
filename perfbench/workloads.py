"""The benchmark's two closed-loop workloads.

Each workload is a fixed list of operations.  One caller runs them in
order, each after the previous one returns.  An operation's ``run``
does the timed work and wraps every call into a layer's public function
in a span; its ``check`` verifies the output afterwards, outside the
timed region, and returns the failures it found.

``library`` calls the package in-process.  Its operations are the three
phases of the paper's flow: ``paper_grid`` (figures 3-7 and one design
request per model of the acceptance grid), ``certify`` (oracle, design
and minimax cross-checks on six large models) and ``simulate``
(fixed-step runs, verification and ``uniform_vector``).  The seed
permutes their order, so the thousands of short design requests are
spread over the whole pass instead of one second of it; their latency
quantiles then average over the host's speed drift like the pass does.
``cli`` runs every subcommand as a subprocess.

``size="full"`` is the measured configuration; ``size="toy"`` runs the
same operations and checks on small models, for the smoke test.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from consensus_spectra import analysis, design, simulate, spectral, topology
from consensus_spectra.errors import DegenerateError, UnsupportedParityError
from consensus_spectra.topology import Kind, NetworkModel

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WHY = {
    "library": "in-process paper flow: 3,971 small designs and figures 3-7 (per-call "
    "overhead), O(n^2) oracle and minimax on huge spectra, fixed-step simulations",
    "cli": "every subcommand as a subprocess: interpreter start, import, argparse "
    "and the per-eigenvalue serializers",
}
NAMES = tuple(WHY)

# A tolerance below the float floor, so a fixed-step run does every step.
FLOOR_TOL = 1e-300


def _rng(seed: int) -> np.random.Generator:
    """The workload's input generator; any integer seed is accepted."""
    return np.random.default_rng(seed % 2**64)


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any, dict], list[str]]
    # rows for figures, order x steps for fixed-step runs
    work: Callable[[Any], float] = lambda out: 0.0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # the operation kinds whose latency quantiles are reported
    unit_kinds: tuple[str, ...]
    cleanup: Callable[[], None] = field(default=lambda: None)


def _catalog_rate(tr, model):
    """closed_form_R where a catalog case exists, as the CLI calls it."""
    try:
        with tr.span("design.closed_form_R") as sp:
            rec = design.closed_form_R(model)
    except (UnsupportedParityError, DegenerateError) as exc:
        return None, type(exc).__name__
    sp.set(rec.tag.name.lower(), 1)
    return rec, ""


def _pipeline(tr, model):
    with tr.span("design.design_pipeline") as sp:
        result = design.design_pipeline(model)
    sp.set("nonconvergent", int(result.gamma >= 1.0))
    return result


def _parse(tr, spec):
    with tr.span("topology.parse_model"):
        return topology.parse_model(spec)


# --- paper_grid ---------------------------------------------------------------

# The acceptance grid of the test suite, regenerated here.
A_GRID = tuple(round(0.1 * i, 1) for i in range(11))
TORUS_SIDES = (3, 4, 5, 8)


def grid_models(a: float) -> list[NetworkModel]:
    rings = [NetworkModel(Kind.RING, a=a, n=n) for n in range(3, 65)]
    rnearest = [
        NetworkModel(Kind.R_NEAREST_RING, a=a, n=n, r=r)
        for n in range(6, 65)
        for r in range(1, 6)
        if n >= 2 * r + 2
    ]
    tori = [
        NetworkModel(Kind.TORUS, a=a, dims=(k1, k2)) for k1 in TORUS_SIDES for k2 in TORUS_SIDES
    ]
    return rings + rnearest + tori


def design_request(tr, model: NetworkModel) -> dict:
    """What ``consensus-spectra design`` computes for one model."""
    try:
        result = _pipeline(tr, model)
    except DegenerateError as exc:
        return checks.design_record(None, type(exc).__name__)
    rec, error = _catalog_rate(tr, model)
    with tr.span("design.design_export_dict"):
        payload = design.design_export_dict(model, result, rec)
    return checks.design_record(payload, error)


def _figure_op(figure_id: int) -> Op:
    reference = checks.figure_reference_path(figure_id).read_text()

    def run(tr):
        with tr.span(f"analysis.figure_dataset.fig{figure_id}") as sp:
            dataset = analysis.figure_dataset(figure_id)
        sp.set("rows", len(dataset.rows))
        sp.set("error_rows", sum(1 for row in dataset.rows if row.error))
        with tr.span("analysis.rows_to_csv") as sp:
            text = analysis.rows_to_csv(dataset.rows)
        sp.set("bytes", len(text))
        return dataset, text

    return Op(
        kind="figure",
        label=f"fig{figure_id}",
        run=run,
        check=lambda out, gauges: checks.check_figure_csv(reference, out[1]),
        work=lambda out: len(out[0].rows),
    )


def _request_op(model: NetworkModel, reference: dict) -> Op:
    return Op(
        kind="design_request",
        label=topology.format_model(model),
        run=lambda tr: design_request(tr, model),
        check=lambda out, gauges: checks.check_design_request(reference, out),
    )


def paper_grid_ops(size: str) -> list[Op]:
    figures = (3, 4, 5, 6, 7) if size == "full" else (3, 7)
    models = [m for a in A_GRID for m in grid_models(a)]
    if size == "toy":
        models = models[::25]
    table = checks.load_design_reference()
    requests = [_request_op(m, table[topology.format_model(m)]) for m in models]
    return [_figure_op(k) for k in figures] + requests


# --- certify ------------------------------------------------------------------

CERTIFY_MODELS = {
    "full": (
        "ring:n=2000,a=0.3",
        "rnearest:n=2000,r=40,a=0.7",
        "rnearest:n=400,r=150,a=0.3",
        "torus:dims=100x100,a=0.3",
        "torus:dims=11x15x21x25,a=0.3",
        "torus:dims=11x15x21x25x27,a=0.3",
    ),
    "toy": (
        "ring:n=40,a=0.3",
        "rnearest:n=40,r=4,a=0.7",
        "rnearest:n=30,r=10,a=0.3",
        "torus:dims=6x6,a=0.3",
        "torus:dims=3x5x7,a=0.3",
        "torus:dims=3x5x7x9,a=0.3",
    ),
}


def certify_model(tr, spec: str) -> dict:
    """Demos 02 and 05 on one model: spectra, oracle, design, catalog, minimax."""
    model = _parse(tr, spec)
    with tr.span("spectral.full_spectrum.closed") as sp:
        closed = spectral.full_spectrum(model)
    sp.set("eigenvalues", len(closed))
    with tr.span("spectral.full_spectrum.dft") as sp:
        oracle = spectral.full_spectrum(model, spectral.SpectrumSource.DFT_ORACLE)
    sp.set("eigenvalues", len(oracle))
    result = _pipeline(tr, model)
    rec, error = _catalog_rate(tr, model)
    with tr.span("design.minimax_h") as sp:
        best = design.minimax_h(closed)
    sp.set("eigenvalues", len(closed) - 1)
    sp.set("beats_pair", int(best.gamma < result.gamma - checks.MINIMAX_TOL))
    with tr.span("design.design_export_dict"):
        payload = design.design_export_dict(model, result, rec)
    return {
        "closed": closed.values,
        "oracle": oracle.values,
        "design": checks.design_record(payload, error),
        "minimax_gamma": best.gamma,
    }


def _certify_check(reference: dict):
    def check(out, gauges):
        err = checks.oracle_error(out["closed"], out["oracle"])
        gauges["oracle_max_abs_err"] = max(err, gauges.get("oracle_max_abs_err", 0.0))
        return (
            checks.check_oracle(err)
            + checks.check_design_request(reference, out["design"])
            + checks.check_minimax(
                out["minimax_gamma"], out["design"]["gamma"], reference["minimax_gamma"]
            )
        )

    return check


def certify_ops(size: str) -> list[Op]:
    table = checks.load_certify_reference()
    return [
        Op(
            kind="certify_model",
            label=spec,
            run=lambda tr, spec=spec: certify_model(tr, spec),
            check=_certify_check(table[spec]),
        )
        for spec in CERTIFY_MODELS[size]
    ]


# --- simulate -----------------------------------------------------------------

SIMULATE = {
    "full": {
        "steps": 1000,
        "structured": (
            "ring:n=10000,a=0.3",
            "rnearest:n=400,r=150,a=0.3",
            "rnearest:n=2000,r=40,a=0.3",
            "torus:dims=100x100,a=0.3",
            "torus:dims=10x10x10x10,a=0.3",
        ),
        "shared": "rnearest:n=400,r=8,a=0.3",
        "dense": "torus:dims=30x30,a=0.3",
        "verify": (
            "ring:n=64,a=0.3",
            "torus:dims=20x20,a=0.3",
            "rnearest:n=400,r=8,a=0.3",
            "ring:n=10000,a=0.3",
        ),
        "uniform": 100_000,
    },
    "toy": {
        "steps": 100,
        "structured": (
            "ring:n=200,a=0.3",
            "rnearest:n=60,r=10,a=0.3",
            "rnearest:n=100,r=4,a=0.3",
            "torus:dims=10x10,a=0.3",
            "torus:dims=4x4x4x4,a=0.3",
        ),
        "shared": "rnearest:n=40,r=3,a=0.3",
        "dense": "torus:dims=6x6,a=0.3",
        "verify": ("ring:n=16,a=0.3", "torus:dims=4x5,a=0.3"),
        "uniform": 1000,
    },
}
VERIFY_TRIALS = 5


def fixed_step_run(tr, spec: str, x0: np.ndarray, steps: int, dense: bool) -> dict:
    model = _parse(tr, spec)
    result = _pipeline(tr, model)
    name = "dense" if dense else model.kind.value
    with tr.span(f"simulate.run_consensus.{name}") as sp:
        trace = simulate.run_consensus(
            model, result.h, x0, max_steps=steps, tolerance=FLOOR_TOL, dense=dense
        )
    sp.set("node_steps", model.order * trace.steps)
    return {"model": model, "h": result.h, "trace": trace}


def _fixed_step_op(spec, x0, steps, dense, pair: dict | None = None) -> Op:
    """``pair`` is shared by the structured and dense runs of one model."""

    def run(tr):
        return fixed_step_run(tr, spec, x0, steps, dense)

    def check(out, gauges):
        trace = out["trace"]
        model = out["model"]
        eigenvalues = spectral.closed_values(model)
        failures = checks.check_drift(trace.averages, x0) + checks.check_final_error(
            trace.error_norms, x0, out["h"], eigenvalues, model.degree_weight
        )
        if pair is not None:
            # the two runs may come in either order; compare once both are in
            pair[dense] = trace
            if len(pair) == 2:
                failures += checks.check_dense_agreement(pair.pop(False), pair.pop(True))
        return failures

    return Op(
        kind="fixed_step",
        label=f"{spec}{' dense' if dense else ''}",
        run=run,
        check=check,
        work=lambda out: out["model"].order * out["trace"].steps,
    )


def verify_run(tr, spec: str, seed: int) -> dict:
    model = _parse(tr, spec)
    result = _pipeline(tr, model)
    with tr.span("simulate.verify_consensus") as sp:
        report = simulate.verify_consensus(model, result, trials=VERIFY_TRIALS, seed=seed)
    sp.set("trials", len(report))
    sp.set("trials_passed", sum(1 for r in report if r.passed))
    return {"gamma": result.gamma, "report": report}


def _verify_check(seed: int):
    def check(out, gauges):
        report = out["report"]
        got = [(r.trial, r.seed, r.gamma) for r in report]
        want = [(i, seed + i, out["gamma"]) for i in range(VERIFY_TRIALS)]
        return checks.check_equal("verify report trials", got, want)

    return check


def _uniform_op(seed: int, size: int) -> Op:
    def run(tr):
        with tr.span("simulate.uniform_vector") as sp:
            values = simulate.uniform_vector(seed, size)
        sp.set("values", size)
        return values

    return Op(
        kind="uniform_vector",
        label=f"uniform_vector({seed}, {size})",
        run=run,
        check=lambda out, gauges: checks.check_uniform(out, checks.splitmix_reference(seed, size)),
    )


def simulate_ops(size: str, rng: np.random.Generator) -> list[Op]:
    cfg = SIMULATE[size]

    def x0_for(spec):
        return rng.random(topology.parse_model(spec).order)

    steps = cfg["steps"]
    ops = [_fixed_step_op(spec, x0_for(spec), steps, False) for spec in cfg["structured"]]
    pair: dict = {}
    shared_x0 = x0_for(cfg["shared"])
    ops.append(_fixed_step_op(cfg["shared"], shared_x0, steps, False, pair))
    ops.append(_fixed_step_op(cfg["shared"], shared_x0, steps, True, pair))
    ops.append(_fixed_step_op(cfg["dense"], x0_for(cfg["dense"]), steps, True))
    for spec in cfg["verify"]:
        vseed = int(rng.integers(0, 2**32))
        ops.append(
            Op(
                kind="verify",
                label=spec,
                run=lambda tr, spec=spec, vseed=vseed: verify_run(tr, spec, vseed),
                check=_verify_check(vseed),
            )
        )
    ops.append(_uniform_op(int(rng.integers(0, 2**32)), cfg["uniform"]))
    return ops


def library(size: str, seed: int) -> Workload:
    rng = _rng(seed)
    ops = paper_grid_ops(size) + certify_ops(size) + simulate_ops(size, rng)
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return Workload("library", ops, ("design_request",))


# --- cli ----------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    max_rss_kb: int


def run_child(argv: list[str], workdir: Path, stem: str) -> ChildResult:
    """Run one subprocess to exit; stdout and stderr go to files."""
    out_path, err_path = workdir / f"{stem}.stdout", workdir / f"{stem}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        code=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        max_rss_kb=usage.ru_maxrss,
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "consensus_spectra.cli", *args]


@dataclass
class CliCommand:
    name: str
    args: list[str]
    # --out file; None when the command writes nothing there
    out_file: Path | None
    expected_code: int
    # (child, text of the --out file) -> failures; the library results it
    # compares against are computed once per run
    check_output: Callable[[ChildResult, str], list[str]]


CLI_MODELS = {
    "full": {
        "minimax": "torus:dims=11x15x21x25,a=0.3",
        "spectrum_csv": "torus:dims=100x100,a=0.3",
        "spectrum_dft": "ring:n=2000,a=0.3",
        "simulate": "ring:n=10000,a=0.3",
        "steps": 1000,
        "verify": "rnearest:n=400,r=8,a=0.3",
        "sweep": "rnearest:n=400,r=8,a=0",
        "figure": 5,
    },
    "toy": {
        "minimax": "torus:dims=3x5x7x9,a=0.3",
        "spectrum_csv": "torus:dims=6x6,a=0.3",
        "spectrum_dft": "ring:n=40,a=0.3",
        "simulate": "ring:n=100,a=0.3",
        "steps": 100,
        "verify": "rnearest:n=40,r=3,a=0.3",
        "sweep": "rnearest:n=40,r=3,a=0",
        "figure": 7,
    },
}
SWEEP_A = [round(0.05 * i, 2) for i in range(21)]
VERIFY_CLI_TRIALS = 5


def _design_payload(spec: str, method: str) -> dict:
    model = topology.parse_model(spec)
    if method == "minimax":
        result = design.minimax_h(spectral.full_spectrum(model))
    else:
        result = design.design_pipeline(model)
    payload = design.design_export_dict(model, result, design.closed_form_R(model))
    return json.loads(json.dumps(payload))


def _complex(pairs) -> np.ndarray:
    return np.array([complex(float(re), float(im)) for re, im in pairs])


def _jsonl(text: str) -> list:
    return [json.loads(line) for line in text.splitlines()]


def cli_commands(size: str, seed: int, workdir: Path) -> list[CliCommand]:
    cfg = CLI_MODELS[size]
    sim_seed, verify_seed = (int(s) for s in _rng(seed).integers(0, 2**32, size=2))

    def model(key):
        return topology.parse_model(cfg[key])

    ring4 = functools.cache(lambda: _design_payload("ring:n=4,a=0.5", "pipeline"))
    minimax = functools.cache(lambda: _design_payload(cfg["minimax"], "minimax"))
    spectrum_csv = functools.cache(lambda: spectral.full_spectrum(model("spectrum_csv")).values)
    spectrum_dft = functools.cache(
        lambda: spectral.full_spectrum(
            model("spectrum_dft"), spectral.SpectrumSource.DFT_ORACLE
        ).values
    )

    def simulate_csv():
        m = model("simulate")
        x0 = simulate.uniform_vector(sim_seed, m.order)
        # the CLI's default tolerance
        trace = simulate.run_consensus(m, design.design_pipeline(m).h, x0, cfg["steps"], 1e-9)
        return simulate.trace_to_csv(trace)

    def verify_report():
        m = model("verify")
        report = simulate.verify_consensus(
            m, design.design_pipeline(m), trials=VERIFY_CLI_TRIALS, seed=verify_seed
        )
        return json.loads(simulate.report_to_json(report))

    simulated = functools.cache(simulate_csv)
    verified = functools.cache(verify_report)
    swept = functools.cache(
        lambda: _jsonl(analysis.rows_to_jsonl(analysis.sweep(model("sweep"), {"a": SWEEP_A})))
    )
    figure = functools.cache(
        lambda: analysis.rows_to_csv(analysis.figure_dataset(cfg["figure"]).rows)
    )

    def spectrum_csv_numbers(text):
        return _complex(line.split(";")[1:] for line in text.splitlines()[1:])

    def sweep_failures(child, text):
        rows = _jsonl(text)
        return checks.check_equal("sweep a values", [r["a"] for r in rows], SWEEP_A) + (
            checks.check_equal("sweep rows", rows, swept())
        )

    figure_dir = workdir / "figure"
    figure_dir.mkdir()
    return [
        CliCommand(
            "design_ring4",
            ["design", "--model", "ring:n=4,a=0.5"],
            workdir / "design_ring4.json",
            0,
            lambda child, text: checks.check_equal("design payload", json.loads(text), ring4()),
        ),
        CliCommand(
            "design_ring3",
            ["design", "--model", "ring:n=3,a=0"],
            None,
            2,
            lambda child, text: (
                [] if b"type=DegenerateError" in child.stderr else ["no DegenerateError on stderr"]
            ),
        ),
        CliCommand(
            "design_minimax",
            ["design", "--model", cfg["minimax"], "--method", "minimax"],
            workdir / "design_minimax.json",
            0,
            lambda child, text: checks.check_equal("minimax payload", json.loads(text), minimax()),
        ),
        CliCommand(
            "spectrum_csv",
            ["spectrum", "--model", cfg["spectrum_csv"], "--format", "csv"],
            workdir / "spectrum.csv",
            0,
            lambda child, text: checks.check_equal(
                "spectrum csv", spectrum_csv_numbers(text), spectrum_csv()
            ),
        ),
        CliCommand(
            "spectrum_dft_json",
            ["spectrum", "--model", cfg["spectrum_dft"], "--source", "dft", "--format", "json"],
            workdir / "spectrum_dft.json",
            0,
            lambda child, text: checks.check_equal(
                "dft spectrum json",
                _complex((r["re"], r["im"]) for r in json.loads(text)),
                spectrum_dft(),
            ),
        ),
        CliCommand(
            "simulate",
            ["simulate", "--model", cfg["simulate"], "--steps", str(cfg["steps"]),
             "--seed", str(sim_seed)],
            workdir / "simulate.csv",
            0,
            lambda child, text: checks.check_equal("simulate trace", text, simulated()),
        ),
        CliCommand(
            "verify",
            ["verify", "--model", cfg["verify"], "--trials", str(VERIFY_CLI_TRIALS),
             "--seed", str(verify_seed)],
            workdir / "verify.json",
            0,
            lambda child, text: checks.check_equal("verify report", json.loads(text), verified()),
        ),
        CliCommand(
            "sweep",
            ["sweep", "--model", cfg["sweep"], "--vary", "a=0:1:0.05", "--format", "json"],
            workdir / "sweep.jsonl",
            0,
            sweep_failures,
        ),
        CliCommand(
            "figure",
            ["figure", "--id", str(cfg["figure"])],
            figure_dir,
            0,
            lambda child, text: checks.check_equal("figure csv", text, figure()),
        ),
    ]


def _cli_op(cmd: CliCommand, workdir: Path) -> Op:
    argv = cli_argv(cmd.args + (["--out", str(cmd.out_file)] if cmd.out_file else []))

    def run(tr):
        with tr.span(f"cli.{cmd.name}") as sp:
            child = run_child(argv, workdir, cmd.name)
        out_path = cmd.out_file
        if out_path is not None and out_path.is_dir():
            # figure --out <dir> writes into the directory and prints the path
            out_path = Path(child.stdout.decode().strip() or out_path / "missing")
        text = ""
        if out_path is not None and out_path.is_file():
            text = out_path.read_text()
            out_path.unlink()
        sp.set("out_bytes", len(text.encode()) if out_path is not None else len(child.stdout))
        return child, text

    def check(out, gauges):
        child, text = out
        gauges["max_child_rss_kb"] = max(child.max_rss_kb, gauges.get("max_child_rss_kb", 0))
        return checks.check_exit(child.code, cmd.expected_code) + cmd.check_output(child, text)

    return Op(kind="cli", label=cmd.name, run=run, check=check)


def cli_workload(size: str, seed: int) -> Workload:
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
    ops = [_cli_op(cmd, workdir) for cmd in cli_commands(size, seed, workdir)]
    return Workload(
        "cli", ops, ("cli",), cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True)
    )


BUILDERS = {"library": library, "cli": cli_workload}
