"""Command-line frontend.

Subcommands: spectrum, design, simulate, verify, sweep, figure.  Models
and ``--vary`` values are written in ``topology.parse_model``'s grammar.
``--method`` takes the ``design.DESIGN_METHODS`` names, which the
outputs report, and ``--source`` the ``spectral.SpectrumSource`` values.

Exit status: 0 on success, 1 on usage or validation errors, 2 on
computation errors (degenerate extremal pair, unsupported parity,
divergence, out of memory).  A usage error prints argparse's usage
block and its ``error:`` line on stderr; any other error, an ``--out``
that cannot be written included, prints one machine-parsable line
there.  Each subcommand offers the formats of its writers in ``_COMMANDS``.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import analysis, design as design_mod, simulate as simulate_mod, spectral, topology
from .errors import ConsensusSpectraError, DegenerateError, ParameterError, UnsupportedParityError
from .topology import to_csv, to_json

# the most points one --vary range may give
_MAX_RANGE_POINTS = 100_000


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        Path(out).write_text(text)


def _spectrum(args):
    model = topology.parse_model(args.model)
    return spectral.full_spectrum(model, source=spectral.SpectrumSource(args.source))


def _design(args) -> dict:
    model = topology.parse_model(args.model)
    result = design_mod.DESIGN_METHODS[args.method](model)
    try:
        reconciliation = design_mod.closed_form_R(model)
    except (UnsupportedParityError, DegenerateError):
        reconciliation = None
    return design_mod.design_export_dict(model, result, reconciliation)


def _simulate(args) -> tuple:
    """The trace of the run and its JSON summary."""
    model = topology.parse_model(args.model)
    h = args.h
    if h is None:
        h = design_mod.design_pipeline(model).h
    x0 = simulate_mod.uniform_vector(args.seed, model.order)
    trace = simulate_mod.run_consensus(model, h, x0, max_steps=args.steps, tolerance=args.tolerance)
    summary = {
        "model": topology.format_model(model),
        "h": h,
        "steps": trace.steps,
        "converged": trace.converged,
        "empirical_factor": trace.empirical_factor,
        "final_error": float(trace.error_norms[-1]),
    }
    return trace, summary


def _verify(args):
    model = topology.parse_model(args.model)
    plan = design_mod.design_pipeline(model)
    # failed trials are report entries, not computation errors
    return simulate_mod.verify_consensus(model, plan, trials=args.trials, seed=args.seed)


def _parse_vary(specs: list[str]) -> dict:
    varying = {}
    for spec in specs:
        key, eq, body = spec.partition("=")
        if not eq:
            raise ParameterError(f"malformed --vary {spec!r}, expected key=values")
        key = key.strip()
        if key not in topology.FIELDS:
            raise ParameterError(f"cannot vary {key!r}; expected n, r, a or dims")
        if key in varying:
            raise ParameterError(f"repeated --vary field {key!r} in {spec!r}")
        try:
            if ":" in body and key != "dims":
                parts = body.split(":")
                if len(parts) not in (2, 3):
                    raise ParameterError(f"malformed range {body!r}, expected start:stop[:step]")
                start, stop = float(parts[0]), float(parts[1])
                step = float(parts[2]) if len(parts) == 3 else 1.0
                if not all(math.isfinite(x) for x in (start, stop, step)):
                    raise ParameterError(f"range bounds and step must be finite in {spec!r}")
                if step <= 0:
                    raise ParameterError(f"range step must be positive in {spec!r}")
                values = []
                v = start
                while v <= stop + 1e-12:
                    if len(values) == _MAX_RANGE_POINTS:  # too long, or v + step rounded to v
                        raise ParameterError(f"--vary {spec!r} gives more than {_MAX_RANGE_POINTS} points")
                    value = round(v, 12)
                    # an integral point is written as an int, as n and r need
                    token = str(int(value)) if value.is_integer() else repr(value)
                    try:
                        values.append(topology.parse_field(key, token))
                    except ValueError:
                        msg = f"--vary {spec!r} gives non-integral {key}={value!r}"
                        raise ParameterError(msg) from None
                    v += step
            else:
                values = [topology.parse_field(key, tok) for tok in body.split(",") if tok]
        except ValueError as exc:
            raise ParameterError(f"non-numeric value in --vary {spec!r}: {exc}") from None
        if not values:
            raise ParameterError(f"--vary {spec!r} produced no values")
        varying[key] = values
    return varying


def _sweep(args):
    template = topology.parse_model(args.model)
    varying = _parse_vary(args.vary or [])
    return analysis.sweep(template, varying, method=args.method)


def _figure(args):
    """The figure's rows, or None when ``--out`` is a directory: it then
    takes the dataset's CSV file, and stdout the file's path."""
    to_dir = bool(args.out) and Path(args.out).is_dir()
    if to_dir and args.format != "csv":
        raise ParameterError(f"figure --out {args.out!r} is a directory, which takes CSV only")
    dataset = analysis.figure_dataset(args.id, method=args.method)
    if not to_dir:
        return dataset.rows
    sys.stdout.write(f"{analysis.write_figure(dataset, args.out)}\n")
    return None


def _design_csv(payload: dict) -> str:
    keys = ("model", "h", "gamma", "rate", "method")
    return to_csv(keys, [[payload[k]] for k in keys])


# subcommand -> (the result of its arguments, format -> text of the result);
# the first format is the default and the only ones --format accepts
_COMMANDS = {
    "spectrum": (_spectrum, {"csv": spectral.spectrum_to_csv, "json": spectral.spectrum_to_json}),
    "design": (_design, {"json": to_json, "csv": _design_csv}),
    "simulate": (
        _simulate,
        {"csv": lambda run: simulate_mod.trace_to_csv(run[0]), "json": lambda run: to_json(run[1])},
    ),
    "verify": (_verify, {"json": simulate_mod.report_to_json}),
    "sweep": (_sweep, {"csv": analysis.rows_to_csv, "json": analysis.rows_to_jsonl}),
    "figure": (_figure, {"csv": analysis.rows_to_csv, "json": analysis.rows_to_jsonl}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consensus-spectra",
        description="Convergence-rate analysis of best-constant average consensus "
        "on asymmetric ring, r-nearest ring and torus networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    methods = tuple(design_mod.DESIGN_METHODS)

    def command(name, help, model_required=True):
        p = sub.add_parser(name, help=help)
        if model_required:
            p.add_argument("--model", required=True, help="model spec, e.g. ring:n=8,a=0.3")
        formats = tuple(_COMMANDS[name][1])
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    p = command("spectrum", "emit the full Laplacian spectrum")
    p.add_argument("--source", choices=[s.value for s in spectral.SpectrumSource], default="closed")

    p = command("design", "best-constant h, gamma and rate")
    p.add_argument("--method", choices=methods, default="pipeline")

    p = command("simulate", "run the consensus iteration")
    p.add_argument("--h", type=float, default=None, help="consensus parameter (default: pipeline)")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=42)

    p = command("verify", "seeded random-trial verification report")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)

    p = command("sweep", "evaluate a parameter grid")
    p.add_argument("--vary", action="append", help="n=4,8,16 or a=0:1:0.1 (repeatable)")
    p.add_argument("--method", choices=methods, default="pipeline")

    p = command("figure", "regenerate a standard figure dataset", model_required=False)
    p.add_argument("--id", type=int, required=True, choices=sorted(analysis.FIGURES))
    p.add_argument("--method", choices=methods, default="pipeline")

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the validation class
        # here; --help exits 0
        return 1 if exc.code else 0
    produce, writers = _COMMANDS[args.command]
    try:
        result = produce(args)
        if result is not None:
            _emit(writers[args.format](result), args.out)
    except (ConsensusSpectraError, OSError, MemoryError) as exc:
        if isinstance(exc, OSError):  # the output, --out or stdout, cannot be written
            exc = ParameterError(f"cannot write the output: {exc}")
        elif isinstance(exc, MemoryError):  # numpy raises a private subclass
            exc = MemoryError(str(exc))
        sys.stderr.write(f"error type={type(exc).__name__} message={str(exc)!r}\n")
        return 1 if isinstance(exc, ParameterError) else 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
