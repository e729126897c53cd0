import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consensus_spectra import (
    DEFAULT_DENSE_CAP,
    DivergenceError,
    InsufficientDataError,
    ParameterError,
    SizeError,
    design_pipeline,
    empirical_contraction,
    format_model,
    r_nearest_ring,
    ring,
    run_consensus,
    splitmix64,
    torus,
    trace_to_csv,
    uniform_vector,
    verify_consensus,
)
from consensus_spectra.simulate import (
    DEFAULT_WINDOW,
    _dense_apply_L,
    _late_window_factor,
    _structured_apply_L,
)
from consensus_spectra.topology import Kind, dense_laplacian


def scalar_uniform_stream(seed, size):
    """The scalar splitmix64 reference, one draw at a time."""
    nxt = splitmix64(seed)
    return np.array([(nxt() >> 11) / float(1 << 53) for _ in range(size)])


class TestSplitmix:
    def test_reference_stream(self):
        # first outputs of the standard splitmix64 stream for seed 0
        nxt = splitmix64(0)
        assert nxt() == 0xE220A8397B1DCDAF
        assert nxt() == 0x6E789E6AA1B965F4
        assert nxt() == 0x06C45D188009454F

    def test_uniform_vector_reproducible(self):
        v1 = uniform_vector(42, 16)
        v2 = uniform_vector(42, 16)
        assert np.array_equal(v1, v2)
        assert np.all((0.0 <= v1) & (v1 < 1.0))
        assert not np.array_equal(v1, uniform_vector(43, 16))

    @pytest.mark.parametrize("seed", [0, 1, 42, -1, 2**64 - 1, 2**64 + 5, 2**70])
    @pytest.mark.parametrize("size", [0, 1, 1000])
    def test_uniform_vector_matches_scalar_stream(self, seed, size):
        assert np.array_equal(uniform_vector(seed, size), scalar_uniform_stream(seed, size))

    @given(st.integers(min_value=-(2**80), max_value=2**80))
    @settings(max_examples=50, deadline=None)
    def test_uniform_vector_matches_scalar_stream_any_seed(self, seed):
        assert np.array_equal(uniform_vector(seed, 64), scalar_uniform_stream(seed, 64))


def _apply_models():
    # unequal sides in both orders and a 4-axis torus: a wrong stride or
    # wrap slab would apply L^T or mix axes
    models = []
    for a in (0.0, 0.37, 1.0):
        models += [
            ring(11, a),
            torus((3, 4, 5), a),
            torus((3, 7, 4, 5), a),
            torus((9, 3), a),
            r_nearest_ring(14, 1, a),
            r_nearest_ring(14, 6, a),
            r_nearest_ring(12, 5, a),
        ]
    return models


def reference_apply_L(model):
    """The allocating step: np.roll per torus axis, concatenate plus
    cumsum windows for the r-nearest ring."""
    a = model.a
    fw = (-1.0 + a) / 2.0
    bw = (-1.0 - a) / 2.0
    if model.kind is Kind.R_NEAREST_RING:
        r, n = model.r, model.n

        def apply(x):
            d = x - x.mean()
            c = np.concatenate(([0.0], np.cumsum(np.concatenate((d[-r:], d, d[:r])))))
            ahead = c[2 * r + 1 : 2 * r + 1 + n] - c[r + 1 : r + 1 + n]
            behind = c[r : r + n] - c[:n]
            return float(r) * d + fw * ahead + bw * behind

        return apply
    shape, degree = model.shape, model.degree_weight

    def apply(x):
        grid = x.reshape(shape)
        acc = degree * grid
        for axis in range(len(shape)):
            acc = acc + fw * np.roll(grid, -1, axis=axis) + bw * np.roll(grid, 1, axis=axis)
        return acc.ravel()

    return apply


def reference_dense_apply_L(model):
    """The allocating dense step: each row's nonzeros of the materialized
    Laplacian, summed left to right in ascending column order."""
    lap = dense_laplacian(model)
    cols = np.array([np.flatnonzero(row) for row in lap])
    weights = np.take_along_axis(lap, cols, axis=1)

    def apply(x):
        terms = weights * x[cols]
        acc = terms[:, 0]
        for j in range(1, cols.shape[1]):
            acc = acc + terms[:, j]
        return acc

    return apply


def reference_run(model, h, x0, max_steps, tolerance, dense=False):
    """The allocating consensus loop; returns (steps, error_norms,
    averages, empirical_factor, converged) or raises DivergenceError."""
    apply_L = reference_dense_apply_L(model) if dense else reference_apply_L(model)
    x = np.asarray(x0, dtype=float)
    target = x.mean()
    errors = [float(np.linalg.norm(x - target))]
    averages = [float(x.mean())]
    converged = errors[0] <= tolerance
    steps = 0
    while not converged and steps < max_steps:
        x = x - h * apply_L(x)
        steps += 1
        err = float(np.linalg.norm(x - target))
        errors.append(err)
        averages.append(float(x.mean()))
        if err > 1e6 * max(errors[0], 1e-300):
            raise DivergenceError(f"error norm {err:.3e} exceeded 1e+06 x initial after {steps} steps")
        converged = err <= tolerance
    errors = np.array(errors)
    return steps, errors, np.array(averages), _late_window_factor(errors, DEFAULT_WINDOW), converged


_unit = st.floats(min_value=0.0, max_value=1.0)
_structured_models = st.one_of(
    st.builds(ring, st.integers(min_value=3, max_value=300), _unit),
    st.integers(min_value=1, max_value=30).flatmap(
        lambda r: st.builds(
            r_nearest_ring, st.integers(min_value=2 * r + 2, max_value=2 * r + 150), st.just(r), _unit
        )
    ),
    st.builds(
        torus,
        st.lists(st.integers(min_value=3, max_value=9), min_size=2, max_size=5).map(tuple),
        _unit,
    ),
)


def _window_models():
    return [
        r_nearest_ring(n, r, a)
        for n, r in ((14, 1), (14, 6), (64, 5), (400, 150))
        for a in (0.0, 0.37, 1.0)
    ]


class TestStructuredApply:
    @pytest.mark.parametrize("model", _apply_models(), ids=format_model)
    def test_matches_dense_laplacian(self, model):
        # the large common offset goes through the mean subtraction; an
        # entrywise comparison, unlike error norms, tells L from L^T
        x = 1e6 + uniform_vector(5, model.order)
        got = _structured_apply_L(model)(x, x.mean())
        expected = dense_laplacian(model) @ x
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("model", _window_models(), ids=format_model)
    def test_rnearest_window_uses_deviation(self, model):
        # the window sums must run over x - mean(x): prefix sums of the
        # raw 1e6 offset lose about 1e-9 per entry, far above a
        # tolerance scaled by the deviation norm
        x = 1e6 + uniform_vector(5, model.order)
        d = x - x.mean()
        got = _structured_apply_L(model)(x, x.mean())
        expected = dense_laplacian(model) @ d
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.linalg.norm(d)


class TestDenseApply:
    @pytest.mark.parametrize("model", _apply_models(), ids=format_model)
    def test_matches_lap_times_x(self, model):
        # entry by entry, within the rounding of two k-term sums: unlike
        # error norms, this tells L from L^T
        lap = dense_laplacian(model)
        x = uniform_vector(5, model.order) - 0.5
        got = _dense_apply_L(model)(x, x.mean())
        k = np.count_nonzero(lap, axis=1)
        assert np.all(k == k[0])
        bound = 2 * k * np.finfo(float).eps * (np.abs(lap) @ np.abs(x))
        assert np.all(np.abs(got - lap @ x) <= bound)

    def test_step_allocates_nothing(self):
        model = torus((30, 30), 0.3)
        apply = _dense_apply_L(model)
        x = uniform_vector(1, model.order)
        apply(x, x.mean())
        tracemalloc.start()
        try:
            for _ in range(3):
                apply(x, x.mean())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes

    def test_run_releases_L(self):
        # L is materialized once, read into (k, n) tables and released: the
        # peak is one n x n matrix plus O(n k), and no step holds L.  The
        # loop takes the error norm before the first step and after each
        # one, so its calls sample the memory held during the steps
        model = torus((40, 50), 0.3)
        n, k = model.order, 5
        x0 = uniform_vector(1, n)
        held = []

        def sample(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "error_norm":
                held.append(tracemalloc.get_traced_memory()[0])

        tracemalloc.start()
        sys.setprofile(sample)
        try:
            run_consensus(model, 0.1, x0, 5, 1e-300, dense=True)
        finally:
            sys.setprofile(None)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert len(held) == 6
        # the nonzeros' rows, columns and weights, and the two tables
        assert peak <= n * n * 8 + 6 * n * k * 8 + 2**16
        # the index, weight and term tables and four state vectors
        assert max(held) <= 3 * n * k * 8 + 4 * x0.nbytes + 2**16


class TestRunConsensus:
    def test_ring4_averages_and_ratio(self):
        trace = run_consensus(ring(4, 0.0), 2 / 3, [1.0, 2.0, 3.0, 4.0], 15, 1e-300)
        assert np.allclose(trace.averages, 2.5, atol=1e-12)
        ratios = trace.error_norms[2:] / trace.error_norms[1:-1]
        assert np.allclose(ratios, 1 / 3, atol=1e-9)

    def test_fixed_point_converges_immediately(self):
        trace = run_consensus(ring(4, 0.0), 2 / 3, [2.5] * 4, 10, 1e-12)
        assert trace.converged
        assert trace.steps == 0
        assert trace.error_norms[0] == 0.0

    def test_near_unit_gamma_regime(self):
        # wide asymmetric neighborhood ring: the claimed factor is at
        # least 0.99 and the run stays unconverged (the exact measured
        # factor is not pinned; sidelobe modes can push it past 1)
        model = r_nearest_ring(400, 3, 0.8)
        design = design_pipeline(model)
        assert design.gamma >= 0.99
        x0 = uniform_vector(7, 400)
        trace = run_consensus(model, design.h, x0, 300, 1e-9)
        assert not trace.converged
        assert trace.empirical_factor >= 0.99

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError):
            run_consensus(ring(8, 0.0), 2.0, uniform_vector(1, 8), 2000, 1e-12)

    @given(
        _structured_models,
        st.floats(min_value=0.0, max_value=0.6, exclude_min=True),
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=0.0, max_value=14.0),
        st.integers(min_value=0, max_value=60),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_allocating_step(self, model, h, seed, decades, max_steps, dense):
        # the in-place step must do the reference's float operations in
        # the reference's order; a tolerance some decades below the
        # initial error stops runs mid-way, and large h diverges.  A
        # zero-centred x0 keeps last-bit differences in L @ x from being
        # rounded away against a large mean
        dense = dense and model.order <= 400
        x0 = uniform_vector(seed, model.order) - 0.5
        kept = x0.copy()
        tolerance = max(np.linalg.norm(x0 - x0.mean()) * 10.0**-decades, 1e-300)
        try:
            want = reference_run(model, h, x0, max_steps, tolerance, dense=dense)
        except DivergenceError as exc:
            with pytest.raises(DivergenceError) as got:
                run_consensus(model, h, x0, max_steps, tolerance, dense=dense)
            assert str(got.value) == str(exc)
            assert np.array_equal(x0, kept)
            return
        trace = run_consensus(model, h, x0, max_steps, tolerance, dense=dense)
        # the state is double-buffered in place; the caller's x0 is not
        assert np.array_equal(x0, kept)
        assert trace.steps == want[0]
        assert np.array_equal(trace.error_norms, want[1])
        assert np.array_equal(trace.averages, want[2])
        assert trace.empirical_factor == want[3]
        assert trace.converged == want[4]

    @pytest.mark.parametrize(
        "model, vectors",
        [
            pytest.param(model, vectors, id=format_model(model))
            for model, vectors in (
                (ring(10**6, 0.3), 4),
                (torus((100, 100, 100), 0.3), 4),
                (torus((10,) * 6, 0.3), 4),
                (r_nearest_ring(10**6, 8, 0.3), 5),
            )
        ],
    )
    def test_peak_memory_bounded(self, model, vectors):
        # the step's buffers are allocated once per run, so the peak does
        # not grow with the number of torus axes: the state and its double
        # buffer, the step's output, and the shift buffer (a torus) or the
        # padded deviation and its prefix sums (an r-nearest ring); the
        # error is taken in a spent buffer.  The slack holds the per-axis
        # bookkeeping and the pads, O(shape) bytes
        x0 = uniform_vector(1, model.order)
        tracemalloc.start()
        try:
            run_consensus(model, 0.1, x0, 5, 1e-300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= vectors * x0.nbytes + 2**16

    def test_dense_and_structured_identical(self):
        for model in (ring(12, 0.7), r_nearest_ring(14, 4, 0.3), torus((3, 4, 5), 0.5)):
            x0 = uniform_vector(11, model.order)
            t1 = run_consensus(model, 0.2, x0, 40, 1e-300)
            t2 = run_consensus(model, 0.2, x0, 40, 1e-300, dense=True)
            assert np.max(np.abs(t1.error_norms - t2.error_norms)) < 1e-12
            assert np.max(np.abs(t1.averages - t2.averages)) < 1e-12

    def test_deterministic_repeat(self):
        model = torus((4, 4), 0.6)
        x0 = uniform_vector(3, 16)
        t1 = run_consensus(model, 0.3, x0, 60, 1e-300)
        t2 = run_consensus(model, 0.3, x0, 60, 1e-300)
        assert np.array_equal(t1.error_norms, t2.error_norms)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            run_consensus(ring(4, 0.0), 0.5, [1.0, 2.0], 10, 1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("dense", [False, True], ids=["structured", "dense"])
    def test_non_finite_x0_rejected(self, bad, dense):
        # a NaN or an infinity would run every step to a trace of NaN norms
        x0 = uniform_vector(1, 8)
        x0[3] = bad
        with pytest.raises(ParameterError, match="finite"):
            run_consensus(ring(8, 0.3), 0.5, x0, 10, 1e-9, dense=dense)

    @pytest.mark.parametrize("max_steps", [-5, 2.5, True])
    def test_max_steps_must_be_a_non_negative_integer(self, max_steps):
        with pytest.raises(ParameterError, match="max_steps"):
            run_consensus(ring(8, 0.3), 0.5, uniform_vector(1, 8), max_steps, 1e-12)

    def test_cap(self):
        # only the dense path materializes L, so only it is capped, and it
        # refuses before allocating the n x n matrix
        n = DEFAULT_DENSE_CAP + 1
        model = ring(n, 0.0)
        x0 = uniform_vector(1, n)
        tracemalloc.start()
        try:
            with pytest.raises(SizeError):
                run_consensus(model, 0.5, x0, 10, 1e-9, dense=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * 8
        trace = run_consensus(model, 0.5, x0, 3, 1e-300)
        assert trace.steps == 3

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=4, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_average_preserved_for_random_states(self, seed, n):
        x0 = uniform_vector(seed, n)
        trace = run_consensus(ring(n, 0.4), 0.3, x0, 50, 1e-300)
        drift = np.max(np.abs(trace.averages - trace.averages[0]))
        assert drift <= 1e-12 * np.linalg.norm(x0)


class TestEmpiricalContraction:
    def test_ring4_symmetric(self):
        trace = run_consensus(ring(4, 0.0), 2 / 3, [1.0, 2.0, 3.0, 4.0], 25, 1e-300)
        assert empirical_contraction(trace, 20) == pytest.approx(1 / 3, abs=1e-3)

    def test_ring4_asymmetric_oscillating(self):
        # the error reaches the iteration's float rounding floor near
        # step 46 (16 decades at 0.34 decades per step), so 40 ratios is
        # the widest clean late window this fast a contraction allows
        x0 = np.array([1.0, 2.0, 3.0, 4.0]) - 2.5
        trace = run_consensus(ring(4, 0.5), 8 / 11, x0, 45, 1e-300)
        assert empirical_contraction(trace, 40) == pytest.approx(5 / 11, abs=5e-3)

    def test_estimator_measures_true_spectral_factor(self):
        # where an interior eigenvalue out-contracts the extremal pair,
        # the estimator settles on the true worst modulus of the
        # iteration, not on the design's claimed gamma
        from consensus_spectra import full_spectrum

        model = r_nearest_ring(16, 4, 0.5)
        design = design_pipeline(model)
        values = full_spectrum(model).values[1:]
        true_factor = float(np.max(np.abs(1 - design.h * values)))
        assert true_factor > design.gamma + 0.01  # pair is not binding here
        x0 = uniform_vector(99, 16)
        initial = float(np.linalg.norm(x0 - x0.mean()))
        trace = run_consensus(model, design.h, x0, 300, 1e-12 * initial)
        assert empirical_contraction(trace, 30) == pytest.approx(true_factor, rel=0.01)

    def test_zero_trace_insufficient(self):
        trace = run_consensus(ring(4, 0.0), 2 / 3, [2.5] * 4, 10, 1e-12)
        with pytest.raises(InsufficientDataError):
            empirical_contraction(trace, 5)

    def test_window_too_wide(self):
        trace = run_consensus(ring(4, 0.0), 2 / 3, [1.0, 2.0, 3.0, 4.0], 10, 1e-300)
        with pytest.raises(InsufficientDataError):
            empirical_contraction(trace, 50)


class TestVerifyConsensus:
    def test_ring16_all_pass(self):
        model = ring(16, 0.3)
        report = verify_consensus(model, design_pipeline(model), trials=5, seed=42)
        assert len(report) == 5
        assert all(r.passed for r in report), [r.note for r in report]

    def test_torus44_empirical_near_gamma(self):
        model = torus((4, 4), 0.0)
        report = verify_consensus(model, design_pipeline(model), trials=3, seed=1)
        for r in report:
            assert r.gamma == pytest.approx(0.6, abs=1e-12)
            assert r.empirical_factor == pytest.approx(0.6, abs=0.01)
            assert r.passed

    def test_bad_h_recorded_as_failure(self):
        model = ring(8, 0.0)
        design = design_pipeline(model)
        bad = type(design)(h=2.0, gamma=3.0, rate=-2.0, method=design.method, extremal=design.extremal)
        report = verify_consensus(model, bad, trials=1, seed=3)
        assert len(report) == 1
        assert not report[0].passed
        assert "diverged" in report[0].note

    def test_non_contracting_design_recorded_as_failure(self):
        # the pipeline returns h < 0 here, which run_consensus rejects;
        # verify reports it per trial instead of raising
        model = r_nearest_ring(12, 5, 0.9)
        design = design_pipeline(model)
        assert design.h < 0
        report = verify_consensus(model, design, trials=3, seed=4)
        assert [r.seed for r in report] == [4, 5, 6]
        assert not any(r.passed for r in report)
        assert all(r.note == f"non-contracting design: h={design.h:.6g} <= 0" for r in report)
        assert all(math.isnan(r.empirical_factor) for r in report)
        with pytest.raises(ParameterError):
            run_consensus(model, design.h, uniform_vector(4, 12), 10, 1e-9)

    def test_non_contracting_design_cli_exit_0(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "consensus_spectra.cli", "verify", "--model", "rnearest:n=12,r=5,a=0.9"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        report = json.loads(proc.stdout)
        assert report and not any(entry["pass"] for entry in report)
        assert all(entry["note"].startswith("non-contracting design: h=") for entry in report)

    def test_wrong_gamma_recorded_as_failure(self):
        # the iteration still contracts at the true factor; only the
        # promised gamma is off, by more than the tolerance
        model = ring(16, 0.3)
        design = design_pipeline(model)
        wrong = dataclasses.replace(design, gamma=design.gamma + 0.1)
        report = verify_consensus(model, wrong, trials=2, seed=42)
        assert not any(r.passed for r in report)
        for r in report:
            assert r.gamma == wrong.gamma
            assert r.empirical_factor == pytest.approx(design.gamma, abs=1e-6)
            assert r.note == f"empirical factor {r.empirical_factor:.6f} vs gamma {wrong.gamma:.6f}"
        assert report[0].note == "empirical factor 0.933049 vs gamma 1.033049"

    def test_deterministic_given_seed(self):
        model = ring(12, 0.2)
        design = design_pipeline(model)
        r1 = verify_consensus(model, design, trials=2, seed=9)
        r2 = verify_consensus(model, design, trials=2, seed=9)
        assert [t.empirical_factor for t in r1] == [t.empirical_factor for t in r2]

    def test_needs_trials(self):
        with pytest.raises(ParameterError):
            verify_consensus(ring(8, 0.0), design_pipeline(ring(8, 0.0)), trials=0, seed=1)

    @pytest.mark.parametrize(
        "trials,seed",
        [(2.5, 1), (True, 1), ("2", 1), (1, 1.5), (1, False), (1, None)],
        ids=["trials-float", "trials-bool", "trials-str", "seed-float", "seed-bool", "seed-none"],
    )
    def test_trials_and_seed_must_be_integers(self, trials, seed):
        # a float raised a bare TypeError, and trials=True ran one trial
        model = ring(8, 0.0)
        with pytest.raises(ParameterError, match="must be integers"):
            verify_consensus(model, design_pipeline(model), trials=trials, seed=seed)

    def test_numpy_integer_trials_and_seed_report_like_ints(self):
        model = ring(8, 0.3)
        design = design_pipeline(model)
        got = verify_consensus(model, design, trials=np.int64(2), seed=np.int64(5))
        assert got == verify_consensus(model, design, trials=2, seed=5)
        assert all(type(t.seed) is int for t in got)


@pytest.mark.parametrize("window", [0, -3, 2.5, True])
class TestWindowValidation:
    """A window that is not an integer >= 1 is a parameter error, not a
    numpy shape error (0), a factor over the wrong slice (-3), a bare
    TypeError from numpy's slicing (2.5) or a window of one (True)."""

    def test_empirical_contraction(self, window):
        model = ring(8, 0.3)
        trace = run_consensus(model, design_pipeline(model).h, uniform_vector(1, 8), 20, 1e-300)
        with pytest.raises(ParameterError, match="window"):
            empirical_contraction(trace, window)


class TestTraceExport:
    def test_csv_columns(self):
        trace = run_consensus(ring(4, 0.0), 2 / 3, [1.0, 2.0, 3.0, 4.0], 5, 1e-300)
        lines = trace_to_csv(trace).strip().split("\n")
        assert lines[0] == "step;error_norm;average"
        assert len(lines) == trace.steps + 2
        step, err, avg = lines[1].split(";")
        assert (int(step), float(avg)) == (0, 2.5)
        assert float(err) == pytest.approx(np.linalg.norm([-1.5, -0.5, 0.5, 1.5]))
