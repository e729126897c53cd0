"""Synchronous consensus iteration x(t+1) = (I - hL) x(t).

The iteration preserves the mean of the state vector (column sums of L
are zero), so the error norm tracked here is the Euclidean distance to
the uniform vector at the initial average.  Per-step multiplication
either reads the materialized Laplacian's nonzeros or exploits
structure (two circular window sums for the r-nearest ring, per-axis
cyclic shifts on the torus grid, of which the ring is the one-axis
case).  The two routes sum in different orders, so their traces agree
to about 1e-12, not bit for bit.

The dense step builds L once per run with ``dense_laplacian``, keeps its
nonzeros as a (k, n) table of column indices and one of weights (every
row of a Kronecker sum of circulants has the same count k) and releases
L; a step gathers, multiplies and sums the k terms of each row in
ascending column order, O(n k) rather than O(n^2).

Neither step allocates: the buffers and the double-buffered state are
allocated once per run.  A torus shift is a flat contiguous copy by the
axis stride whose wrap slab in each block is then overwritten; the
window sums run on a padded copy of the deviation from the state's
mean, which each step takes once for the averages and the next step
alike.  The error is taken in a spent buffer, so a run holds four
state-sized vectors on a torus.  Each structured step does the float
operations of the allocating expressions
``x - h * (degree * x + fw * roll(x, -1) + bw * roll(x, 1) + ...)`` and
``r * d + fw * ahead + bw * behind`` in the same order, so its traces
are bit-identical to theirs.

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
from .errors import DivergenceError, InsufficientDataError, ParameterError
from .topology import Kind, NetworkModel, _is_int, dense_laplacian

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
    """Return (x, mean) -> L @ x without materializing L, where mean is
    x's mean, ``np.add.reduce(x) / n`` (the r-nearest windows run over
    the deviation from it; the torus step does not read it).

    The buffers are allocated once, here: each call overwrites and
    returns the same output array, so a caller keeps the result only
    until its next call.
    """
    a = model.a
    fw = (-1.0 + a) / 2.0
    bw = (-1.0 - a) / 2.0
    n = model.order
    out = np.empty(n)
    if model.kind is Kind.R_NEAREST_RING:
        r = model.r
        # d = x - mean(x) sits at pad[r : r + n] between copies of its two
        # ends; c[0] = 0 and c[1:] holds the prefix sums of pad
        pad = np.empty(n + 2 * r)
        c = np.zeros(n + 2 * r + 1)
        d = pad[r : r + n]
        # once r * d is in out, pad is free: its head holds the windows
        window = pad[:n]

        def apply(x, mean):
            # L @ 1 = 0, so work on the deviation: the prefix sums then
            # stay near the size of the fluctuations, not of the mean
            np.subtract(x, mean, out=d)
            pad[:r] = pad[n : n + r]
            pad[n + r :] = pad[r : 2 * r]
            np.add.accumulate(pad, out=c[1:])
            np.multiply(d, float(r), out=out)
            # d[i] sits at padded position i + r; the forward window is
            # d[i+1 .. i+r], the backward window d[i-r .. i-1]
            np.subtract(c[2 * r + 1 : 2 * r + 1 + n], c[r + 1 : r + 1 + n], out=window)
            np.multiply(window, fw, out=window)
            np.add(out, window, out=out)
            np.subtract(c[r : r + n], c[:n], out=window)
            np.multiply(window, bw, out=window)
            np.add(out, window, out=out)
            return out

        return apply
    # a ring is the 1-torus: one axis, degree weight 1.  In the flat C-order
    # vector an axis of length k and stride s cycles within blocks of k * s
    # entries: a neighbour is a flat shift by s, except in the block's wrap
    # slab of s entries, which is then overwritten from the block's other end
    degree = model.degree_weight
    buf = np.empty(n)
    blocks = []
    stride = n
    for k in model.shape:
        stride //= k
        blocks.append((stride, k * stride, buf.reshape(-1, k * stride)))

    def apply(x, mean):
        np.multiply(x, degree, out=out)
        for s, block, shifted in blocks:
            grid = x.reshape(-1, block)
            buf[:-s] = x[s:]
            shifted[:, block - s :] = grid[:, :s]
            np.multiply(buf, fw, out=buf)
            np.add(out, buf, out=out)
            buf[s:] = x[:-s]
            shifted[:, :s] = grid[:, block - s :]
            np.multiply(buf, bw, out=buf)
            np.add(out, buf, out=out)
        return out

    return apply


def _dense_apply_L(model: NetworkModel):
    """Return (x, mean) -> L @ x over the materialized Laplacian's
    nonzeros; ``mean`` is not read.

    L comes from ``dense_laplacian``, so this route does not share the
    structured step's kernels.  Its nonzeros are read once: every row of
    a Kronecker sum of circulants has the same count k (2d + 1 for
    degree weight d, d + 1 at a = 1, where the forward weights are 0), so
    they fit a (k, n) table of column indices and one of weights.  The
    step keeps only the tables, so L is released when this returns.  A
    step gathers and weights the (k, n) terms and reduces over the first
    axis, which adds row i's nonzeros of L in ascending column order, and
    allocates nothing: each call overwrites and returns the same output
    array.
    """
    lap = dense_laplacian(model)
    n = model.order
    rows, cols = np.nonzero(lap)
    # np.nonzero lists row by row, columns ascending within a row
    idx = cols.reshape(n, -1).T.copy()
    weights = lap[rows, cols].reshape(n, -1).T.copy()
    terms = np.empty_like(weights)
    out = np.empty(n)

    def apply(x, mean):
        # every index is in range, so "wrap" changes none; the default
        # "raise" would copy the gather through a temporary of the table's size
        np.take(x, idx, out=terms, mode="wrap")
        np.multiply(terms, weights, out=terms)
        np.add.reduce(terms, axis=0, out=out)
        return out

    return apply


def _check_window(window: int) -> None:
    # window = 0 would fail in numpy, a negative one would silently
    # average over the wrong slice of ratios and a fractional one would
    # fail in numpy's slicing
    if not _is_int(window) or window < 1:
        raise ParameterError(f"window must be an integer >= 1, got window={window!r}")


def run_consensus(
    model: NetworkModel,
    h: float,
    x0,
    max_steps: int,
    tolerance: float,
    dense: bool = False,
) -> SimulationTrace:
    """Iterate until the error norm falls to ``tolerance`` or
    ``max_steps`` is exhausted.

    The dense cap bounds only the ``dense=True`` path, which materializes
    L once and then steps over its nonzeros; the default structured step
    is O(n) and runs at any size.  The empirical factor is taken over the
    last ``DEFAULT_WINDOW`` steps.

    Raises DivergenceError once the error norm passes 1e6 times its
    initial value, which signals a non-contracting weight matrix.
    """
    # a copy: the state is double-buffered in place and x0 is never written
    x = np.array(x0, dtype=float)
    if x.shape != (model.order,):
        raise ParameterError(f"x0 has shape {x.shape}, model order is {model.order}")
    if not np.isfinite(x).all():
        # a NaN or an infinity would run every step to a trace of NaN norms
        raise ParameterError("x0 must be finite, got a NaN or infinite entry")
    if not h > 0:
        raise ParameterError(f"consensus parameter must be positive, got h={h}")
    if not tolerance > 0:
        raise ParameterError(f"tolerance must be positive, got {tolerance}")
    if not (_is_int(max_steps) and max_steps >= 0):
        raise ParameterError(f"max_steps must be a non-negative integer, got {max_steps!r}")

    apply_L = _dense_apply_L(model) if dense else _structured_apply_L(model)

    # x.mean(), the same pairwise sum and division without the wrapper;
    # the state's mean is taken once per step and read by both the
    # averages and the next step
    n = model.order
    mean = np.add.reduce(x) / n
    target = mean
    nxt = np.empty_like(x)

    def error_norm(v, e) -> float:
        # the 2-norm exactly as np.linalg.norm computes it for a 1-D float
        # array, sqrt(e . e), in a state-sized buffer whose contents are spent
        np.subtract(v, target, out=e)
        return math.sqrt(e.dot(e))

    # nxt is written before it is read, and a step is spent once it has
    # been subtracted, so each lends its memory to the error
    errors = [error_norm(x, nxt)]
    averages = [float(mean)]
    initial_error = errors[0]
    converged = errors[0] <= tolerance
    steps = 0
    while not converged and steps < max_steps:
        step = apply_L(x, mean)
        np.multiply(step, h, out=step)
        np.subtract(x, step, out=nxt)
        x, nxt = nxt, x
        steps += 1
        err = error_norm(x, step)
        mean = np.add.reduce(x) / n
        errors.append(err)
        averages.append(float(mean))
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
        empirical_factor=_late_window_factor(error_norms, DEFAULT_WINDOW),
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
    _check_window(window)
    usable = np.count_nonzero(trace.error_norms > 0.0)
    if usable < window + 1:
        raise InsufficientDataError(
            f"need {window + 1} steps with nonzero error norms, trace has {usable}"
        )
    return _late_window_factor(trace.error_norms, window)


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
) -> list[TrialResult]:
    """Run seeded random initial vectors and check the design's promises.

    Each trial runs ``DEFAULT_WARMUP`` + ``DEFAULT_WINDOW`` + 1 steps and
    asserts average preservation, convergence when gamma < 1, and that
    the contraction measured over the last ``DEFAULT_WINDOW`` steps is
    within max(0.01, 0.02 * gamma) of the design gamma.  Failures become
    report entries, they do not raise: a design with h <= 0, which
    ``run_consensus`` rejects, fails every trial unrun, as a diverging
    one fails at run time.
    """
    if not (_is_int(trials) and _is_int(seed)):
        raise ParameterError(
            f"trials and seed must be integers, got trials={trials!r}, seed={seed!r}"
        )
    if trials < 1:
        raise ParameterError("need at least one trial")
    results = []
    gamma = design.gamma
    for trial in range(trials):
        trial_seed = int(seed) + trial
        if not design.h > 0:
            note = f"non-contracting design: h={design.h:.6g} <= 0"
            results.append(TrialResult(trial, trial_seed, math.nan, gamma, False, note))
            continue
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
                max_steps=DEFAULT_WARMUP + DEFAULT_WINDOW + 1,
                tolerance=max(1e-12 * initial_error, 1e-300),
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
