"""Synchronous consensus iteration x(t+1) = (I - hL) x(t).

The iteration preserves the mean of the state vector (column sums of L
are zero), so the error norm tracked here is the Euclidean distance to
the uniform vector at the initial average.  Per-step multiplication
either reads the Laplacian's nonzeros or exploits structure, by factor
radius: two circular window sums for radius r >= 2 (an r-nearest ring),
per-axis cyclic shifts where every radius is 1 (a torus, of which the
ring and the r = 1 r-nearest ring are the one-axis case).  The two routes
sum in different orders, so their traces agree to about 1e-12, not bit
for bit.  Neither builds an n x n matrix, so neither is capped in size.

The dense step reads L's k nonzeros per row from the factors' rows
once per run; a step gathers, multiplies and sums the k terms of each
row in ascending column order, in O(n k).

Neither step allocates: the buffers and the double-buffered state are
allocated once per run.  A torus shift is a flat contiguous copy by the
axis stride whose wrap slab in each block is then overwritten; the
window sums run on a padded copy of the deviation from the state's
mean, which each step takes once for the averages and the next step
alike.  The error is taken in a spent buffer, so a radius-1 run holds
four state-sized vectors.  Each structured step does the float
operations of the allocating expressions
``x - h * (degree * x + fw * roll(x, -1) + bw * roll(x, 1) + ...)`` and
``r * d + fw * ahead + bw * behind`` in the same order, so its traces
are bit-identical to theirs.

A run's measured contraction has one estimate, the trace's
``empirical_factor``, a geometric mean of the error-norm ratios over the
last ``DEFAULT_WINDOW`` steps: complex pairs make single ratios oscillate.

Initial vectors for the verification harness come from an explicit
splitmix-style 64-bit generator, evaluated for the whole vector at once
in uint64 arithmetic, so that traces reproduce bit-for-bit across
platforms and processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import ConsensusDesign
from .errors import DivergenceError, ParameterError
from .topology import _MAX_TABLE, NetworkModel, _is_int, factor_row, link_weights, to_csv, to_json

_DIVERGENCE_FACTOR = 1e6
DEFAULT_WARMUP = 100
DEFAULT_WINDOW = 50


@dataclass(frozen=True)
class SimulationTrace:
    """Per-step record of one consensus run.

    error_norms and averages hold state 0 through the final state.  Two
    attributes are derived from error_norms: ``steps``, one less than
    its length, and ``empirical_factor``, the geometric mean of
    successive error-norm ratios over the last ``DEFAULT_WINDOW`` steps,
    0.0 when the trace is too short or ends at exact zero error.
    """

    error_norms: np.ndarray
    averages: np.ndarray
    converged: bool

    @property
    def steps(self) -> int:
        return len(self.error_norms) - 1

    @property
    def empirical_factor(self) -> float:
        return _late_window_factor(self.error_norms, DEFAULT_WINDOW)


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
    2**64 exactly as the masked scalar arithmetic does.  Raises
    ParameterError unless seed is an integer and size one in [0, 2**60 - 1].
    """
    if not (_is_int(seed) and _is_int(size) and size >= 0):
        raise ParameterError(f"need an integer seed and an integer size >= 0, got {seed!r}, {size!r}")
    if size > _MAX_TABLE:
        raise ParameterError(f"size {size} exceeds {_MAX_TABLE}, the longest table numpy can index")
    k = np.arange(1, size + 1, dtype=np.uint64)
    z = k * np.uint64(_GOLDEN_GAMMA) + np.uint64(int(seed) & _MASK64)
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
    fw, bw = link_weights(model.a)
    n = model.order
    out = np.empty(n)
    # only a one-factor model (an r-nearest ring) has a radius above 1
    r = max(radius for _, radius in model.factors)
    if r > 1:
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
    # a ring, either spelling, is the 1-torus: one axis, degree weight 1.  In the flat C-order
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


def _dense_tables(model: NetworkModel):
    """L's nonzeros, read from the factors, as (k, n) tables of column
    indices and weights: column i holds row i's, columns ascending.  Row i
    holds the degree weight at i and each nonzero ``factor_row`` entry at
    i's neighbour along that factor's axis (the first axis slowest); every
    row has the same k, 2d + 1 for degree weight d (d + 1 at a = 1, where
    the forward weights are 0)."""
    n = model.order
    node = np.arange(n)
    cols, weights = [node], [model.degree_weight]
    stride = n
    for side, radius in model.factors:
        stride //= side
        coord = node // stride % side
        row = factor_row(side, radius, model.a)
        # row[0], the factor's radius, is its share of the degree weight
        for offset in np.flatnonzero(row)[1:]:
            cols.append(node + ((coord + offset) % side - coord) * stride)
            weights.append(row[offset])
    cols = np.array(cols)
    order = cols.argsort(axis=0)
    cols.sort(axis=0)
    return cols, np.array(weights)[order]


def _dense_apply_L(model: NetworkModel):
    """Return (x, mean) -> L @ x over ``_dense_tables``; ``mean`` is not
    read.  The route shares no kernel with the structured step.  A step
    adds row i's k weighted terms in ascending column order and allocates
    nothing: each call overwrites and returns the same output array."""
    n = model.order
    cols, weights = _dense_tables(model)
    terms = np.empty_like(weights)
    out = np.empty(n)

    def apply(x, mean):
        # every index is in range, so "wrap" changes none; the default
        # "raise" would copy the gather through a temporary of the table's size
        np.take(x, cols, out=terms, mode="wrap")
        np.multiply(terms, weights, out=terms)
        np.add.reduce(terms, axis=0, out=out)
        return out

    return apply


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

    The default structured step is O(n); the ``dense=True`` step reads
    L's k nonzeros per row, O(n k), and is a cross-check that shares no
    kernel with it.  Neither has a size cap.  The trace derives its
    step count and its empirical factor, taken over the last
    ``DEFAULT_WINDOW`` steps, from its error norms.

    Raises DivergenceError once the error norm passes 1e6 times its
    initial value or turns NaN, which signals a non-contracting weight
    matrix; the steps run with numpy's overflow warnings off.  An x0
    whose deviation norm overflows raises ParameterError.
    """
    # a copy: the state is double-buffered in place and x0 is never written
    x = np.array(x0, dtype=float)
    if x.shape != (model.order,):
        raise ParameterError(f"x0 has shape {x.shape}, model order is {model.order}")
    if not np.isfinite(x).all():
        # a NaN or an infinity would run every step to a trace of NaN norms
        raise ParameterError("x0 must be finite, got a NaN or infinite entry")
    if not (h > 0 and math.isfinite(h)):
        raise ParameterError(f"consensus parameter must be positive and finite, got h={h}")
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise ParameterError(f"tolerance must be positive and finite, got {tolerance}")
    if not (_is_int(max_steps) and max_steps >= 0):
        raise ParameterError(f"max_steps must be a non-negative integer, got {max_steps!r}")

    apply_L = _dense_apply_L(model) if dense else _structured_apply_L(model)

    n = model.order
    nxt = np.empty_like(x)

    def error_norm(v, e) -> float:
        # the 2-norm exactly as np.linalg.norm computes it for a 1-D float
        # array, sqrt(e . e), in a state-sized buffer whose contents are spent
        np.subtract(v, target, out=e)
        return math.sqrt(e.dot(e))

    with np.errstate(over="ignore", invalid="ignore"):
        # x.mean(), the same pairwise sum and division without the wrapper;
        # the state's mean is taken once per step and read by both the
        # averages and the next step
        mean = np.add.reduce(x) / n
        target = mean
        # nxt is written before it is read, and a step is spent once it has
        # been subtracted, so each lends its memory to the error
        errors = [error_norm(x, nxt)]
        if not math.isfinite(errors[0]):
            # no later norm could be finite, and no limit would stop the run
            raise ParameterError(f"x0's deviation norm overflows ({errors[0]}); scale x0 down")
        averages = [float(mean)]
        limit = _DIVERGENCE_FACTOR * max(errors[0], 1e-300)
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
            # an overflowed state gives an infinite or NaN norm
            if not err <= limit:
                raise DivergenceError(
                    f"error norm {err:.3e} exceeded {_DIVERGENCE_FACTOR:.0e} x initial after {steps} steps"
                )
            if err <= tolerance:
                converged = True

    return SimulationTrace(np.array(errors), np.array(averages), converged)


def _late_window_factor(error_norms: np.ndarray, window: int) -> float:
    usable = error_norms[error_norms > 0.0]
    if len(usable) < 2:
        return 0.0
    w = min(window, len(usable) - 1)
    ratios = usable[-w:] / usable[-w - 1 : -1]
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
) -> list[TrialResult]:
    """Run seeded random initial vectors and check the design's promises.

    Each trial runs ``DEFAULT_WARMUP`` + ``DEFAULT_WINDOW`` + 1 steps and
    asserts average preservation, convergence when gamma < 1, and that
    the contraction measured over the last ``DEFAULT_WINDOW`` steps is
    within max(0.01, 0.02 * gamma) of the design gamma.  Failures become
    report entries, they do not raise: a trial whose ``run_consensus``
    raises ParameterError (an h that is not positive and finite) fails
    with the note ``not run: <message>``, as a diverging one fails with
    ``diverged: <message>``.
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
        note, empirical = "", math.nan
        x0 = uniform_vector(trial_seed, model.order)
        # stop once the error loses 12 decades: past that point the
        # state is within float rounding of the fixed point and the
        # ratio estimate would only see noise
        initial_error = float(np.linalg.norm(x0 - x0.mean()))
        try:
            trace = run_consensus(
                model,
                design.h,
                x0,
                max_steps=DEFAULT_WARMUP + DEFAULT_WINDOW + 1,
                tolerance=max(1e-12 * initial_error, 1e-300),
            )
        except ParameterError as exc:
            note = f"not run: {exc}"
        except DivergenceError as exc:
            note = f"diverged: {exc}"
        else:
            # the note names the first failed check
            drift = np.max(np.abs(trace.averages - trace.averages[0]))
            stalled = not trace.converged and trace.error_norms[-1] >= trace.error_norms[0]
            empirical = trace.empirical_factor
            if drift > 1e-12 * np.linalg.norm(x0):
                note = f"average drifted by {drift:.3e}"
            elif gamma < 1.0 and stalled:
                note = "no contraction despite gamma < 1"
            elif abs(empirical - gamma) > max(0.01, 0.02 * gamma):
                note = f"empirical factor {empirical:.6f} vs gamma {gamma:.6f}"
        results.append(TrialResult(trial, trial_seed, empirical, gamma, not note, note))
    return results


def trace_to_csv(trace: SimulationTrace) -> str:
    columns = (range(len(trace.error_norms)), trace.error_norms.tolist(), trace.averages.tolist())
    return to_csv(("step", "error_norm", "average"), columns)


def report_to_json(results: list[TrialResult]) -> str:
    # every field in order, passed written as "pass"
    records = [{"pass" if k == "passed" else k: v for k, v in vars(r).items()} for r in results]
    return to_json(records)
