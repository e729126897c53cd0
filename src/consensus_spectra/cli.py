"""Command-line frontend.

Subcommands: spectrum, design, simulate, verify, sweep, figure.  Models
are given with the grammar ``ring:n=<int>,a=<float>``,
``rnearest:n=<int>,r=<int>,a=<float>``,
``torus:dims=<int>x<int>[x<int>...],a=<float>``.

Exit status: 0 on success, 1 on usage or validation errors, 2 on
computation errors (degenerate extremal pair, unsupported parity,
divergence).  Errors print one machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, design as design_mod, simulate as simulate_mod, spectral, topology
from .errors import (
    ConsensusSpectraError,
    DegenerateError,
    ParameterError,
    UnsupportedParityError,
)

_SOURCES = {
    "closed": spectral.SpectrumSource.CLOSED_FORM,
    "dft": spectral.SpectrumSource.DFT_ORACLE,
}


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        Path(out).write_text(text)


def _emit_rows(rows, args) -> None:
    to_text = analysis.rows_to_csv if args.format == "csv" else analysis.rows_to_jsonl
    _emit(to_text(rows), args.out)


def _cmd_spectrum(args) -> int:
    model = topology.parse_model(args.model)
    spectrum = spectral.full_spectrum(model, source=_SOURCES[args.source])
    if args.format == "csv":
        _emit(spectral.spectrum_to_csv(spectrum), args.out)
    else:
        _emit(spectral.spectrum_to_json(spectrum), args.out)
    return 0


def _cmd_design(args) -> int:
    model = topology.parse_model(args.model)
    result = design_mod.DESIGN_METHODS[args.method](model)
    try:
        reconciliation = design_mod.closed_form_R(model)
    except (UnsupportedParityError, DegenerateError):
        reconciliation = None
    payload = design_mod.design_export_dict(model, result, reconciliation)
    if args.format == "json":
        _emit(json.dumps(analysis._nan_to_null(payload), indent=2) + "\n", args.out)
    else:
        keys = ("model", "h", "gamma", "rate", "method")
        lines = [";".join(keys), ";".join(str(payload[k]) for k in keys)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    model = topology.parse_model(args.model)
    h = args.h
    if h is None:
        h = design_mod.design_pipeline(model).h
    x0 = simulate_mod.uniform_vector(args.seed, model.order)
    trace = simulate_mod.run_consensus(model, h, x0, max_steps=args.steps, tolerance=args.tolerance)
    if args.format == "csv":
        _emit(simulate_mod.trace_to_csv(trace), args.out)
    else:
        payload = {
            "model": topology.format_model(model),
            "h": h,
            "steps": trace.steps,
            "converged": trace.converged,
            "empirical_factor": trace.empirical_factor,
            "final_error": float(trace.error_norms[-1]),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    model = topology.parse_model(args.model)
    plan = design_mod.design_pipeline(model)
    results = simulate_mod.verify_consensus(model, plan, trials=args.trials, seed=args.seed)
    # failed trials are report entries, not computation errors
    _emit(simulate_mod.report_to_json(results), args.out)
    return 0


def _parse_vary(specs: list[str]) -> dict:
    varying = {}
    for spec in specs:
        key, eq, body = spec.partition("=")
        if not eq:
            raise ParameterError(f"malformed --vary {spec!r}, expected key=values")
        key = key.strip()
        if key == "a":
            cast = float
        elif key in ("n", "r"):
            cast = int
        elif key == "dims":
            cast = lambda tok: tuple(int(p) for p in tok.split("x"))
        else:
            raise ParameterError(f"cannot vary {key!r}; expected n, r, a or dims")
        try:
            if ":" in body and key != "dims":
                parts = body.split(":")
                if len(parts) not in (2, 3):
                    raise ParameterError(f"malformed range {body!r}, expected start:stop[:step]")
                start, stop = float(parts[0]), float(parts[1])
                step = float(parts[2]) if len(parts) == 3 else 1.0
                if step <= 0:
                    raise ParameterError(f"range step must be positive in {spec!r}")
                values = []
                v = start
                while v <= stop + 1e-12:
                    value = round(v, 12)
                    if cast is int and not value.is_integer():
                        raise ParameterError(f"--vary {spec!r} gives non-integral {key}={value!r}")
                    values.append(cast(value))
                    v += step
            else:
                values = [cast(tok) for tok in body.split(",") if tok]
        except ValueError as exc:
            raise ParameterError(f"non-numeric value in --vary {spec!r}: {exc}") from None
        if not values:
            raise ParameterError(f"--vary {spec!r} produced no values")
        varying[key] = values
    return varying


def _cmd_sweep(args) -> int:
    template = topology.parse_model(args.model)
    varying = _parse_vary(args.vary or [])
    _emit_rows(analysis.sweep(template, varying, method=args.method), args)
    return 0


def _cmd_figure(args) -> int:
    dataset = analysis.figure_dataset(args.id, method=args.method)
    if args.out and Path(args.out).is_dir():
        path = analysis.write_figure(dataset, args.out)
        sys.stdout.write(f"{path}\n")
        return 0
    _emit_rows(dataset.rows, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consensus-spectra",
        description="Convergence-rate analysis of best-constant average consensus "
        "on asymmetric ring, r-nearest ring and torus networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    methods = tuple(design_mod.DESIGN_METHODS)

    def common(p, model_required=True):
        if model_required:
            p.add_argument("--model", required=True, help="model spec, e.g. ring:n=8,a=0.3")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("spectrum", help="emit the full Laplacian spectrum")
    common(p)
    p.add_argument("--source", choices=sorted(_SOURCES), default="closed")
    p.set_defaults(func=_cmd_spectrum, default_format="csv")

    p = sub.add_parser("design", help="best-constant h, gamma and rate")
    common(p)
    p.add_argument("--method", choices=methods, default="pipeline")
    p.set_defaults(func=_cmd_design, default_format="json")

    p = sub.add_parser("simulate", help="run the consensus iteration")
    common(p)
    p.add_argument("--h", type=float, default=None, help="consensus parameter (default: pipeline)")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_simulate, default_format="csv")

    p = sub.add_parser("verify", help="seeded random-trial verification report")
    common(p)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_verify, default_format="json")

    p = sub.add_parser("sweep", help="evaluate a parameter grid")
    common(p)
    p.add_argument("--vary", action="append", help="n=4,8,16 or a=0:1:0.1 (repeatable)")
    p.add_argument("--method", choices=methods, default="pipeline")
    p.set_defaults(func=_cmd_sweep, default_format="csv")

    p = sub.add_parser("figure", help="regenerate a standard figure dataset")
    common(p, model_required=False)
    p.add_argument("--id", type=int, required=True, choices=(3, 4, 5, 6, 7))
    p.add_argument("--method", choices=methods, default="pipeline")
    p.set_defaults(func=_cmd_figure, default_format="csv")

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the validation class
        # here; --help exits 0
        return 1 if exc.code else 0
    if args.format is None:
        args.format = args.default_format
    try:
        return args.func(args)
    except ConsensusSpectraError as exc:
        sys.stderr.write(f"error type={type(exc).__name__} message={str(exc)!r}\n")
        return 1 if isinstance(exc, ParameterError) else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
