#!/usr/bin/env python3
"""Layered benchmark of consensus-spectra.

Run from the repository root:

    python3 perfbench/run.py --workload library --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload cli --size toy --seconds 1 --trace 1
    python3 perfbench/run.py --write-manifest        # rewrites BENCHMARK.json

One run measures set-up (fresh interpreters, see probe.py), then repeats
passes over the workload's fixed operation list for ``--seconds`` (it
starts no pass that would end later, but makes at least one), checking
every output.  With ``--trace 0`` it reports the
end-to-end metrics of untraced passes; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics derived
from the traced passes' spans, which it also writes to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.

Human-readable lines go to stdout first; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import NULL_TRACER, SpanStats, Tracer, write_jsonl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREADS_ENV = "CONSENSUS_SPECTRA_THREADS"

DEFAULT_SEED = 1
RUN_SECONDS = 55
SETUP_REPEATS = 9
MAX_REPORTED_FAILURES = 20

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


# --- per-layer metrics --------------------------------------------------------


def _calls(span):
    return lambda st, g: st.calls(span)


def _busy(span):
    return lambda st, g: st.busy_ms(span)


def _attr(span, key):
    return lambda st, g: st.attr(span, key)


def _self(span):
    return lambda st, g: st.self_ms(span)


CLI_COMMANDS = (
    "design_ring4",
    "design_ring3",
    "design_minimax",
    "spectrum_csv",
    "spectrum_dft_json",
    "simulate",
    "verify",
    "sweep",
    "figure",
)

# (name, unit, better, value from (SpanStats, gauges)) for one traced pass
LAYER_METRICS = [
    ("topology.parse_model.calls", "count", "lower", _calls("topology.parse_model")),
    ("topology.parse_model.busy_ms", "ms", "lower", _busy("topology.parse_model")),
    *(
        metric
        for src in ("closed", "dft")
        for metric in (
            (f"spectral.full_spectrum.{src}.busy_ms", "ms", "lower",
             _busy(f"spectral.full_spectrum.{src}")),
            (f"spectral.full_spectrum.{src}.eigenvalues", "count", "lower",
             _attr(f"spectral.full_spectrum.{src}", "eigenvalues")),
        )
    ),
    ("spectral.oracle_max_abs_err", "ratio", "lower",
     lambda st, g: g.get("oracle_max_abs_err", 0.0)),
    ("design.design_pipeline.calls", "count", "lower", _calls("design.design_pipeline")),
    ("design.design_pipeline.busy_ms", "ms", "lower", _busy("design.design_pipeline")),
    ("design.design_pipeline.p50_ms", "ms", "lower",
     lambda st, g: st.p50_ms("design.design_pipeline")),
    ("design.closed_form_R.busy_ms", "ms", "lower", _busy("design.closed_form_R")),
    ("design.closed_form_R.identical", "count", "higher",
     _attr("design.closed_form_R", "identical")),
    ("design.closed_form_R.offset_by_one", "count", "lower",
     _attr("design.closed_form_R", "offset_by_one")),
    ("design.closed_form_R.mismatch", "count", "lower", _attr("design.closed_form_R", "mismatch")),
    ("design.design_export_dict.busy_ms", "ms", "lower", _busy("design.design_export_dict")),
    ("design.nonconvergent", "count", "lower", _attr("design.design_pipeline", "nonconvergent")),
    ("design.minimax_beats_pair", "count", "lower", _attr("design.minimax_h", "beats_pair")),
    ("design.minimax_h.busy_ms", "ms", "lower", _busy("design.minimax_h")),
    ("design.minimax_h.eigenvalues", "count", "lower", _attr("design.minimax_h", "eigenvalues")),
    *(
        metric
        for kind in ("ring", "rnearest", "torus", "dense")
        for metric in (
            (f"simulate.run_consensus.{kind}.busy_ms", "ms", "lower",
             _busy(f"simulate.run_consensus.{kind}")),
            (f"simulate.run_consensus.{kind}.node_steps", "count", "higher",
             _attr(f"simulate.run_consensus.{kind}", "node_steps")),
        )
    ),
    ("simulate.verify_consensus.busy_ms", "ms", "lower", _busy("simulate.verify_consensus")),
    ("simulate.verify_consensus.trials", "count", "higher",
     _attr("simulate.verify_consensus", "trials")),
    ("simulate.verify_consensus.trials_passed", "count", "higher",
     _attr("simulate.verify_consensus", "trials_passed")),
    ("simulate.uniform_vector.busy_ms", "ms", "lower", _busy("simulate.uniform_vector")),
    ("simulate.uniform_vector.values", "count", "higher",
     _attr("simulate.uniform_vector", "values")),
    *(
        metric
        for k in (3, 4, 5, 6, 7)
        for metric in (
            (f"analysis.figure_dataset.fig{k}.busy_ms", "ms", "lower",
             _busy(f"analysis.figure_dataset.fig{k}")),
            (f"analysis.figure_dataset.fig{k}.rows", "count", "higher",
             _attr(f"analysis.figure_dataset.fig{k}", "rows")),
            (f"analysis.figure_dataset.fig{k}.error_rows", "count", "lower",
             _attr(f"analysis.figure_dataset.fig{k}", "error_rows")),
        )
    ),
    ("analysis.rows_to_csv.busy_ms", "ms", "lower", _busy("analysis.rows_to_csv")),
    ("analysis.rows_to_csv.bytes", "bytes", "lower", _attr("analysis.rows_to_csv", "bytes")),
    *(
        metric
        for cmd in CLI_COMMANDS
        for metric in (
            (f"cli.{cmd}.ms", "ms", "lower", _busy(f"cli.{cmd}")),
            (f"cli.{cmd}.out_bytes", "bytes", "lower", _attr(f"cli.{cmd}", "out_bytes")),
        )
    ),
    ("bench.design_request.self_ms", "ms", "lower", _self("bench.design_request")),
    ("bench.figure.self_ms", "ms", "lower", _self("bench.figure")),
    ("bench.certify_model.self_ms", "ms", "lower", _self("bench.certify_model")),
    ("bench.fixed_step.self_ms", "ms", "lower", _self("bench.fixed_step")),
    ("bench.verify.self_ms", "ms", "lower", _self("bench.verify")),
]
# computed from the whole run rather than one traced pass
RUN_METRICS = [
    ("trace.overhead_s", "s", "lower"),
    ("trace.top_level_share", "ratio", "higher"),
]
PER_LAYER = [(name, unit, better) for name, unit, better, _ in LAYER_METRICS] + RUN_METRICS


def manifest() -> dict:
    import workloads

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": workloads.WHY[n]} for n in workloads.NAMES],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# --- environment --------------------------------------------------------------


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(args, threads_was_set: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        THREADS_ENV: "unset (was set, removed)" if threads_was_set else "unset",
    }


# --- measurement --------------------------------------------------------------


@dataclass
class PassResult:
    traced: bool
    wall_ns: int
    # latency of each operation, in the workload's order
    op_ns: list[int]
    failed: int
    # kind -> (work done, nanoseconds) for the kinds that report work
    work: dict
    gauges: dict
    tracer: object


def run_pass(workload, traced: bool, failure_log: list[str]) -> PassResult:
    os.environ.pop(THREADS_ENV, None)
    tracer = Tracer() if traced else NULL_TRACER
    gauges: dict = {}
    op_ns = []
    failed = 0
    work: dict = {}
    check_ns = 0
    start = time.perf_counter_ns()
    for op_id, op in enumerate(workload.ops):
        tracer.start_op(op_id)
        t0 = time.perf_counter_ns()
        try:
            with tracer.span(f"bench.{op.kind}"):
                out = op.run(tracer)
            error = None
        except Exception:  # an unexpected error fails this operation only
            error = traceback.format_exc()
        t1 = time.perf_counter_ns()
        if error is None:
            try:
                failures = op.check(out, gauges)
                done, ns = work.get(op.kind, (0.0, 0))
                work[op.kind] = (done + op.work(out), ns + t1 - t0)
            except Exception:  # a check that cannot read the output fails it
                failures = [traceback.format_exc()]
            del out
        else:
            failures = [error]
        for msg in failures:
            if len(failure_log) < MAX_REPORTED_FAILURES:
                failure_log.append(f"{workload.name} {op.label}: {msg}")
        failed += bool(failures)
        op_ns.append(t1 - t0)
        check_ns += time.perf_counter_ns() - t1
    wall_ns = time.perf_counter_ns() - start - check_ns
    return PassResult(traced, wall_ns, op_ns, failed, work, gauges, tracer if traced else None)


def measure_setup(name: str, repeats: int) -> float:
    """Median seconds from spawn to exit of a fresh set-up interpreter."""
    import workloads

    if name == "cli":
        argv = workloads.cli_argv(["design", "--model", "ring:n=4,a=0.5"])
    else:
        argv = [sys.executable, str(HERE / "probe.py")]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            argv, env=workloads.child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    return statistics.median(times)


def _quantiles(values: list[float]) -> tuple[float, float]:
    """(p50, p90) of a list of latencies."""
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), cuts[8]


def _rate(p: PassResult, kind: str) -> float:
    done, ns = p.work.get(kind, (0.0, 0))
    return done / (ns / 1e9) if ns else 0.0


def end_to_end(workload, passes: list[PassResult], setup_s: float) -> tuple[dict, dict]:
    """(the gated metrics, the workload-specific figures printed beside them)."""
    if workload.name == "cli":
        rss_kb = max(p.gauges.get("max_child_rss_kb", 0) for p in passes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    gated = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall_ns for p in passes) / 1e9, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    # each operation's median latency over passes, then quantiles over operations
    unit = [i for i, op in enumerate(workload.ops) if op.kind in workload.unit_kinds]
    p50, p90 = _quantiles([statistics.median(p.op_ns[i] for p in passes) / 1e6 for i in unit])
    attempted = sum(len(p.op_ns) for p in passes)
    named = {"failed_frac": (sum(p.failed for p in passes) / attempted, "ratio")}
    if workload.name == "library":
        named["design_p50_ms"] = (p50, "ms")
        named["design_p90_ms"] = (p90, "ms")
        named["figure_rows_per_s"] = (
            statistics.median(_rate(p, "figure") for p in passes), "rows/s"
        )
        named["node_steps_per_s"] = (
            statistics.median(_rate(p, "fixed_step") for p in passes), "node-steps/s"
        )
    elif workload.name == "cli":
        named["cmd_p50_ms"] = (p50, "ms")
        named["cmd_p90_ms"] = (p90, "ms")
    return gated, named


def per_layer(passes: list[PassResult]) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    stats = [(SpanStats(p.tracer.spans), p) for p in traced]
    units = {name: unit for name, unit, _ in PER_LAYER}
    out = {}
    for name, _, _, fn in LAYER_METRICS:
        out[name] = statistics.median(fn(st, p.gauges) for st, p in stats)
    traced_wall = statistics.median(p.wall_ns for p in traced) / 1e9
    out["trace.overhead_s"] = traced_wall - statistics.median(p.wall_ns for p in untraced) / 1e9
    out["trace.top_level_share"] = statistics.median(st.top_level_ns / p.wall_ns for st, p in stats)
    return {name: (value, units[name]) for name, value in out.items()}


def measure(workload, seconds: float, trace: bool, failure_log: list[str]) -> list[PassResult]:
    """Closed loop of passes for ``seconds``; traced runs alternate passes.

    A pass starts only if, at the mean pass time so far, it ends within
    ``seconds``; a run makes at least one pass, two when traced.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, traced, failure_log))
        elapsed = time.perf_counter() - start
        fits = elapsed * (len(passes) + 1) / len(passes) <= seconds
        if not fits and len(passes) >= (2 if trace else 1):
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("library", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "consensus_spectra" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'consensus_spectra'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0

    import workloads

    threads_was_set = os.environ.pop(THREADS_ENV, None) is not None
    env = environment(args, threads_was_set)
    print("env " + json.dumps(env))

    repeats = SETUP_REPEATS if args.size == "full" else 1
    setup_s = measure_setup(args.workload, repeats) if not args.trace else None
    workload = workloads.BUILDERS[args.workload](args.size, args.seed)
    failure_log: list[str] = []
    try:
        passes = measure(workload, args.seconds, bool(args.trace), failure_log)
    finally:
        workload.cleanup()

    for line in failure_log:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = sum(len(p.op_ns) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"passes {len(passes)} (traced {sum(p.traced for p in passes)}), "
          f"operations {attempted}, failed {failed}")

    if args.trace:
        metrics = per_layer(passes)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_jsonl(path, env, [p.tracer.records() for p in passes if p.traced])
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics, named = end_to_end(workload, passes, setup_s)
        for name, (value, unit) in named.items():
            print(f"{name} = {value!r} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
