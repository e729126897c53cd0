"""Synchronous consensus iteration x(t+1) = (I - hL) x(t).

The iteration preserves the mean of the state vector (column sums of L
are zero), so the error norm tracked here is the Euclidean distance to
the uniform vector at the initial average.  Per-step multiplication
either materializes the dense Laplacian or exploits structure (cyclic
shifts for the ring, two circular window sums for the r-nearest ring,
per-axis shifts on the torus grid); both produce identical traces.

Initial vectors for the verification harness come from an explicit
splitmix-style 64-bit generator, evaluated for the whole vector at once
in uint64 arithmetic, so that traces reproduce bit-for-bit across
platforms and processes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .design import ConsensusDesign
from .errors import DivergenceError, InsufficientDataError, ParameterError, SizeError
from .topology import DEFAULT_DENSE_CAP, Kind, NetworkModel, dense_laplacian, validate

_DIVERGENCE_FACTOR = 1e6
DEFAULT_WARMUP = 100
DEFAULT_WINDOW = 50


@dataclass(frozen=True)
class SimulationTrace:
    """Per-step record of one consensus run.

    error_norms and averages have steps + 1 entries (state 0 through
    the final state); empirical_factor is the late-window geometric
    mean of successive error-norm ratios, 0.0 when the trace is too
    short or ends at exact zero error.
    """

    steps: int
    error_norms: np.ndarray
    averages: np.ndarray
    empirical_factor: float
    converged: bool


_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int):
    """Deterministic 64-bit stream; each call to the returned function
    yields the next uint64."""
    state = seed & _MASK64

    def next_u64() -> int:
        nonlocal state
        state = (state + _GOLDEN_GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    return next_u64


def uniform_vector(seed: int, size: int) -> np.ndarray:
    """size values uniform on [0, 1), 53-bit mantissa, splitmix stream.

    Bit-identical to drawing ``size`` values from ``splitmix64(seed)``:
    the k-th state is seed + k * gamma, and uint64 arrays wrap modulo
    2**64 exactly as the masked scalar arithmetic does.
    """
    k = np.arange(1, size + 1, dtype=np.uint64)
    z = k * np.uint64(_GOLDEN_GAMMA) + np.uint64(seed & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(float) / float(1 << 53)


def _structured_apply_L(model: NetworkModel):
    """Return x -> L @ x without materializing L."""
    a = model.a
    fw = (-1.0 + a) / 2.0
    bw = (-1.0 - a) / 2.0
    if model.kind is Kind.RING:

        def apply(x):
            return x + fw * np.roll(x, -1) + bw * np.roll(x, 1)

        return apply
    if model.kind is Kind.R_NEAREST_RING:
        r = model.r
        n = model.n

        def apply(x):
            # L @ 1 = 0, so work on the deviation: the prefix sums then
            # stay near the size of the fluctuations, not of the mean
            d = x - x.mean()
            c = np.concatenate(([0.0], np.cumsum(np.concatenate((d[-r:], d, d[:r])))))
            # d[i] sits at padded position i + r; the forward window is
            # d[i+1 .. i+r], the backward window d[i-r .. i-1]
            ahead = c[2 * r + 1 : 2 * r + 1 + n] - c[r + 1 : r + 1 + n]
            behind = c[r : r + n] - c[:n]
            return float(r) * d + fw * ahead + bw * behind

        return apply
    dims = model.dims

    def apply(x):
        grid = x.reshape(dims)
        acc = float(len(dims)) * grid
        for axis in range(len(dims)):
            acc = acc + fw * np.roll(grid, -1, axis=axis) + bw * np.roll(grid, 1, axis=axis)
        return acc.ravel()

    return apply


def run_consensus(
    model: NetworkModel,
    h: float,
    x0,
    max_steps: int,
    tolerance: float,
    dense: bool = False,
    cap: int = DEFAULT_DENSE_CAP,
    window: int = DEFAULT_WINDOW,
) -> SimulationTrace:
    """Iterate until the error norm falls to ``tolerance`` or
    ``max_steps`` is exhausted.

    Raises DivergenceError once the error norm passes 1e6 times its
    initial value, which signals a non-contracting weight matrix.
    """
    validate(model)
    x = np.asarray(x0, dtype=float)
    if x.shape != (model.order,):
        raise ParameterError(f"x0 has shape {x.shape}, model order is {model.order}")
    if not h > 0:
        raise ParameterError(f"consensus parameter must be positive, got h={h}")
    if not tolerance > 0:
        raise ParameterError(f"tolerance must be positive, got {tolerance}")
    if model.order > cap:
        raise SizeError(f"order {model.order} exceeds cap {cap}")

    if dense:
        lap = dense_laplacian(model, cap=cap).values

        def apply_L(v):
            return lap @ v

    else:
        apply_L = _structured_apply_L(model)

    target = x.mean()
    errors = [float(np.linalg.norm(x - target))]
    averages = [float(x.mean())]
    initial_error = errors[0]
    converged = errors[0] <= tolerance
    steps = 0
    while not converged and steps < max_steps:
        x = x - h * apply_L(x)
        steps += 1
        err = float(np.linalg.norm(x - target))
        errors.append(err)
        averages.append(float(x.mean()))
        if err > _DIVERGENCE_FACTOR * max(initial_error, 1e-300):
            raise DivergenceError(
                f"error norm {err:.3e} exceeded {_DIVERGENCE_FACTOR:.0e} x initial after {steps} steps"
            )
        if err <= tolerance:
            converged = True

    error_norms = np.array(errors)
    return SimulationTrace(
        steps=steps,
        error_norms=error_norms,
        averages=np.array(averages),
        empirical_factor=_late_window_factor(error_norms, window),
        converged=converged,
    )


def _late_window_factor(error_norms: np.ndarray, window: int) -> float:
    usable = error_norms[error_norms > 0.0]
    if len(usable) < 2:
        return 0.0
    w = min(window, len(usable) - 1)
    ratios = usable[-w:] / usable[-w - 1 : -1]
    return float(np.exp(np.mean(np.log(ratios))))


def empirical_contraction(trace: SimulationTrace, window: int) -> float:
    """Geometric mean of successive error-norm ratios over the final
    ``window`` steps.

    The geometric mean is used because complex eigenvalue pairs make
    individual ratios oscillate; over a long run the estimate settles
    on the largest contraction modulus of the iteration.
    """
    usable = trace.error_norms[trace.error_norms > 0.0]
    if len(usable) < window + 1:
        raise InsufficientDataError(
            f"need {window + 1} steps with nonzero error norms, trace has {len(usable)}"
        )
    ratios = usable[-window:] / usable[-window - 1 : -1]
    return float(np.exp(np.mean(np.log(ratios))))


@dataclass(frozen=True)
class TrialResult:
    trial: int
    seed: int
    empirical_factor: float
    gamma: float
    passed: bool
    note: str = ""


def verify_consensus(
    model: NetworkModel,
    design: ConsensusDesign,
    trials: int,
    seed: int,
    warmup: int = DEFAULT_WARMUP,
    window: int = DEFAULT_WINDOW,
    cap: int = DEFAULT_DENSE_CAP,
) -> list[TrialResult]:
    """Run seeded random initial vectors and check the design's promises.

    Each trial asserts average preservation, convergence when gamma < 1,
    and that the measured contraction is within max(0.01, 0.02 * gamma)
    of the design gamma.  Failures become report entries, they do not
    raise.
    """
    if trials < 1:
        raise ParameterError("need at least one trial")
    results = []
    gamma = design.gamma
    for trial in range(trials):
        trial_seed = seed + trial
        x0 = uniform_vector(trial_seed, model.order)
        note = ""
        passed = True
        empirical = math.nan
        try:
            # stop once the error loses 12 decades: past that point the
            # state is within float rounding of the fixed point and the
            # ratio estimate would only see noise
            initial_error = float(np.linalg.norm(x0 - x0.mean()))
            trace = run_consensus(
                model,
                design.h,
                x0,
                max_steps=warmup + window + 1,
                tolerance=max(1e-12 * initial_error, 1e-300),
                cap=cap,
                window=window,
            )
            drift = np.max(np.abs(trace.averages - trace.averages[0]))
            if drift > 1e-12 * np.linalg.norm(x0):
                passed = False
                note = f"average drifted by {drift:.3e}"
            empirical = trace.empirical_factor
            if gamma < 1.0 and not trace.converged and trace.error_norms[-1] >= trace.error_norms[0]:
                passed = False
                note = note or "no contraction despite gamma < 1"
            if abs(empirical - gamma) > max(0.01, 0.02 * gamma):
                passed = False
                note = note or f"empirical factor {empirical:.6f} vs gamma {gamma:.6f}"
        except DivergenceError as exc:
            passed = False
            note = f"diverged: {exc}"
        results.append(
            TrialResult(
                trial=trial,
                seed=trial_seed,
                empirical_factor=empirical,
                gamma=gamma,
                passed=passed,
                note=note,
            )
        )
    return results


def trace_to_csv(trace: SimulationTrace) -> str:
    lines = ["step;error_norm;average"]
    for step, (err, avg) in enumerate(zip(trace.error_norms, trace.averages)):
        lines.append(f"{step};{float(err)!r};{float(avg)!r}")
    return "\n".join(lines) + "\n"


def report_to_json(results: list[TrialResult]) -> str:
    records = [
        {
            "trial": r.trial,
            "seed": r.seed,
            "empirical_factor": None if math.isnan(r.empirical_factor) else r.empirical_factor,
            "gamma": r.gamma,
            "pass": r.passed,
            "note": r.note,
        }
        for r in results
    ]
    return json.dumps(records, indent=2) + "\n"
