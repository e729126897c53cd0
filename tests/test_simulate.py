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
from hypothesis import example, given, settings, strategies as st

from consensus_spectra import (
    DivergenceError,
    ParameterError,
    design_pipeline,
    format_model,
    r_nearest_ring,
    ring,
    closed_design,
    report_to_json,
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
    _dense_tables,
    _late_window_factor,
    _structured_apply_L,
)
from consensus_spectra.topology import _MAX_TABLE
from conftest import strict_json
from laplacian_reference import reference_laplacian

# the note of a trial whose run_consensus rejects the design's h
NOT_RUN = "not run: consensus parameter must be positive and finite, got h="


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

    @pytest.mark.parametrize(
        "seed, size",
        [(1, 2.5), (1, -3), (1, True), (1.5, 3)],
        ids=["fractional-size", "negative-size", "bool-size", "fractional-seed"],
    )
    def test_uniform_vector_rejects_bad_inputs(self, seed, size):
        with pytest.raises(ParameterError, match="^need an integer seed and an integer size >= 0"):
            uniform_vector(seed, size)

    @pytest.mark.parametrize("size", [_MAX_TABLE + 1, 2**63, 10**21], ids=["2^60", "2^63", "1e21"])
    def test_uniform_vector_rejects_a_size_past_the_longest_table(self, size):
        # raised before any table is built: numpy gives an empty arange for
        # 2**63 and a ValueError for 10**21
        with pytest.raises(ParameterError) as raised:
            uniform_vector(7, size)
        assert str(raised.value) == f"size {size} exceeds {_MAX_TABLE}, the longest table numpy can index"

    def test_uniform_vector_takes_numpy_integers(self):
        # the bits of the Python ints they equal
        for seed in (3, -3, 2**63 - 1):
            got = uniform_vector(np.int64(seed), np.int64(16))
            assert np.array_equal(got, scalar_uniform_stream(seed, 16))


def _apply_models():
    # unequal sides in both orders and tori of 3 to 5 axes: a wrong stride
    # or wrap slab would apply L^T or mix axes
    models = []
    for a in (0.0, 0.37, 1.0):
        models += [
            ring(11, a),
            torus((3, 4, 5), a),
            torus((3, 7, 4, 5), a),
            torus((9, 3), a),
            torus((3, 4, 3, 3, 4), a),
            r_nearest_ring(14, 1, a),
            r_nearest_ring(14, 6, a),
            r_nearest_ring(12, 5, a),
        ]
    return models


def reference_apply_L(model):
    """The allocating step: concatenate plus cumsum windows for a factor
    of radius r >= 2 (an r-nearest ring), else np.roll per axis, the ring
    and the r = 1 r-nearest ring being the one-axis torus."""
    a = model.a
    fw = (-1.0 + a) / 2.0
    bw = (-1.0 - a) / 2.0
    r = max(radius for _, radius in model.factors)
    if r > 1:
        n = model.order

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
    """The allocating dense step: each row's nonzeros of the reference
    Laplacian, summed left to right in ascending column order."""
    lap = reference_laplacian(model)
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
            r_nearest_ring, st.integers(min_value=2 * r + 1, max_value=2 * r + 150), st.just(r), _unit
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
        for n, r in ((5, 2), (14, 6), (64, 5), (400, 150))
        for a in (0.0, 0.37, 1.0)
    ]


class TestStructuredApply:
    @pytest.mark.parametrize("model", _apply_models(), ids=format_model)
    def test_matches_dense_laplacian(self, model):
        # the large common offset goes through the mean subtraction; an
        # entrywise comparison, unlike error norms, tells L from L^T
        x = 1e6 + uniform_vector(5, model.order)
        got = _structured_apply_L(model)(x, x.mean())
        expected = reference_laplacian(model) @ x
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("model", _window_models(), ids=format_model)
    def test_rnearest_window_uses_deviation(self, model):
        # the window sums must run over x - mean(x): prefix sums of the
        # raw 1e6 offset lose about 1e-9 per entry, far above a
        # tolerance scaled by the deviation norm
        x = 1e6 + uniform_vector(5, model.order)
        d = x - x.mean()
        got = _structured_apply_L(model)(x, x.mean())
        expected = reference_laplacian(model) @ d
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.linalg.norm(d)


class TestDenseApply:
    @pytest.mark.parametrize("model", _apply_models(), ids=format_model)
    def test_matches_lap_times_x(self, model):
        # entry by entry, within the rounding of two k-term sums: unlike
        # error norms, this tells L from L^T
        lap = reference_laplacian(model)
        x = uniform_vector(5, model.order) - 0.5
        got = _dense_apply_L(model)(x, x.mean())
        k = np.count_nonzero(lap, axis=1)
        assert np.all(k == k[0])
        bound = 2 * k * np.finfo(float).eps * (np.abs(lap) @ np.abs(x))
        assert np.all(np.abs(got - lap @ x) <= bound)

    @pytest.mark.parametrize(
        "model",
        _apply_models()
        + [ring(7, 0.4), r_nearest_ring(11, 3, 0.9), torus((3, 4), 0.6), torus((3, 4, 5), 0.3)]
        + [torus((4, 3), 1.0)],
        ids=format_model,
    )
    def test_tables_are_the_reference_nonzeros(self, model):
        # row by row, the columns in order and the weights bit for bit: the
        # tables of L^T, with the forward and backward weights swapped, fail
        # at every a > 0, where an error-norm comparison cannot tell them apart
        cols, weights = _dense_tables(model)
        for i, row in enumerate(reference_laplacian(model)):
            nonzero = np.flatnonzero(row)
            assert cols[:, i].tolist() == nonzero.tolist()
            assert weights[:, i].tobytes() == row[nonzero].tobytes()

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

    @pytest.mark.parametrize(
        "model", [torus((40, 50), 0.3), ring(10**5, 0.3), r_nearest_ring(10**5, 8, 0.3)], ids=format_model
    )
    def test_run_memory_is_linear(self, model):
        # L's nonzeros are read from the factors into (k, n) tables: the
        # set-up holds at most three of them, and no n x n matrix, which
        # would take 80 GB at 10**5 nodes.  The loop takes the error norm
        # before the first step and after each one, so its calls sample the
        # memory held during the steps
        n, k = model.order, 2 * int(model.degree_weight) + 1
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
        assert peak <= 3 * n * k * 8 + 6 * x0.nbytes + 2**16
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

    @pytest.mark.parametrize(
        "model, h, max_steps",
        [
            (ring(8, 0.0), 2.0, 2000),
            # h = 1e300 overflows the step and the norm; pytest turns
            # warnings into errors, so the guard's error must be the only
            # signal
            (ring(8, 0.3), 1e300, 5),
            (r_nearest_ring(12, 3, 0.3), 1e300, 5),
            (torus((3, 4), 0.3), 1e300, 5),
        ],
        ids=["ring", "ring-overflow", "rnearest-overflow", "torus-overflow"],
    )
    @pytest.mark.parametrize("dense", [False, True], ids=["structured", "dense"])
    def test_divergence_detected(self, model, h, max_steps, dense):
        with pytest.raises(DivergenceError):
            run_consensus(model, h, uniform_vector(1, model.order), max_steps, 1e-12, dense=dense)

    @given(
        _structured_models,
        st.floats(min_value=0.0, max_value=0.6, exclude_min=True),
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=0.0, max_value=14.0),
        st.integers(min_value=0, max_value=60),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    # the kernel is picked by factor radius: the 3-node ring and both r = 1
    # r-nearest rings run the shift code, r = 2 on n = 2r + 1 the windows
    @example(ring(3, 0.37), 0.3, 1, 14.0, 60, False)
    @example(r_nearest_ring(3, 1, 0.37), 0.3, 1, 14.0, 60, False)
    @example(r_nearest_ring(14, 1, 0.37), 0.5, 2, 14.0, 60, False)
    @example(r_nearest_ring(5, 2, 0.37), 0.25, 3, 14.0, 60, False)
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
                (r_nearest_ring(10**6, 1, 0.3), 4),
                (r_nearest_ring(10**6, 8, 0.3), 5),
            )
        ],
    )
    def test_peak_memory_bounded(self, model, vectors):
        # the step's buffers are allocated once per run, so the peak does
        # not grow with the number of torus axes: the state and its double
        # buffer, the step's output, and the shift buffer (every factor of
        # radius 1) or the padded deviation and its prefix sums (r >= 2); the
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

    @pytest.mark.parametrize("x0", [[1e200] + [0.0] * 7, [1.7e308] * 8], ids=["norm", "mean"])
    @pytest.mark.parametrize("dense", [False, True], ids=["structured", "dense"])
    def test_overflowing_deviation_norm_rejected(self, x0, dense):
        # finite entries whose deviation norm (or mean) overflows would run
        # to a trace of infinite norms that no divergence limit stops
        with pytest.raises(ParameterError, match="overflows"):
            run_consensus(ring(8, 0.3), 0.5, x0, 5, 1e-9, dense=dense)

    @pytest.mark.parametrize("field", ["h", "tolerance"])
    @pytest.mark.parametrize("dense", [False, True], ids=["structured", "dense"])
    def test_non_finite_h_or_tolerance_rejected(self, field, dense):
        # h = inf steps to a trace of NaN norms, which no guard compares
        # above its limit; tolerance = inf ends every run at step 0
        args = {"h": 0.5, "tolerance": 1e-9, field: math.inf}
        x0 = [1, 1, 1, 1, 0, 0, 0, 0]
        with pytest.raises(ParameterError, match="finite"):
            run_consensus(ring(8, 0.3), args["h"], x0, 20, args["tolerance"], dense=dense)

    @pytest.mark.parametrize("max_steps", [-5, 2.5, True])
    def test_max_steps_must_be_a_non_negative_integer(self, max_steps):
        with pytest.raises(ParameterError, match="max_steps"):
            run_consensus(ring(8, 0.3), 0.5, uniform_vector(1, 8), max_steps, 1e-12)

    def test_no_cap(self):
        # no route builds an n x n matrix, so the dense one runs past 10**4
        # nodes and agrees with the structured one
        model = ring(20_001, 0.3)
        x0 = uniform_vector(1, model.order)
        structured = run_consensus(model, 0.5, x0, 10, 1e-300)
        dense = run_consensus(model, 0.5, x0, 10, 1e-300, dense=True)
        assert structured.steps == dense.steps == 10
        assert np.max(np.abs(structured.error_norms - dense.error_norms)) <= 1e-12
        assert np.max(np.abs(structured.averages - dense.averages)) <= 1e-12

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
        assert _late_window_factor(trace.error_norms, 20) == pytest.approx(1 / 3, abs=1e-3)

    def test_ring4_asymmetric_oscillating(self):
        # the error reaches the iteration's float rounding floor near
        # step 46 (16 decades at 0.34 decades per step), so 40 ratios is
        # the widest clean late window this fast a contraction allows
        x0 = np.array([1.0, 2.0, 3.0, 4.0]) - 2.5
        trace = run_consensus(ring(4, 0.5), 8 / 11, x0, 45, 1e-300)
        assert _late_window_factor(trace.error_norms, 40) == pytest.approx(5 / 11, abs=5e-3)

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
        assert _late_window_factor(trace.error_norms, 30) == pytest.approx(true_factor, rel=0.01)


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
        bad = type(design)(
            h=2.0, gamma=3.0, method=design.method, lambda_s=design.lambda_s, lambda_l=design.lambda_l
        )
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
        assert all(r.note == f"{NOT_RUN}{design.h}" for r in report)
        assert all(math.isnan(r.empirical_factor) for r in report)
        with pytest.raises(ParameterError):
            run_consensus(model, design.h, uniform_vector(4, 12), 10, 1e-9)

    @pytest.mark.parametrize("h", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_design_recorded_as_failure(self, h):
        model = ring(8, 0.3)
        design = dataclasses.replace(design_pipeline(model), h=h)
        report = verify_consensus(model, design, trials=2, seed=4)
        assert [r.seed for r in report] == [4, 5]
        assert not any(r.passed for r in report)
        assert all(r.note == f"{NOT_RUN}{h}" for r in report)
        assert all(math.isnan(r.empirical_factor) for r in report)

    def test_state_past_the_longest_table_raises(self):
        # no x0 can be drawn, so no trial runs to carry a note; the design
        # is a small model's, so nothing is tabulated
        model = torus((10**7, 10**7, 10**7), 0.3)
        with pytest.raises(ParameterError, match=f"^size {10**21} exceeds {_MAX_TABLE}, "):
            verify_consensus(model, design_pipeline(ring(8, 0.3)), trials=1, seed=0)

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
        assert all(entry["note"].startswith(NOT_RUN) for entry in report)

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


class TestTraceExport:
    def test_csv_columns(self):
        trace = run_consensus(ring(4, 0.0), 2 / 3, [1.0, 2.0, 3.0, 4.0], 5, 1e-300)
        lines = trace_to_csv(trace).strip().split("\n")
        assert lines[0] == "step;error_norm;average"
        assert len(lines) == trace.steps + 2
        step, err, avg = lines[1].split(";")
        assert (int(step), float(avg)) == (0, 2.5)
        assert float(err) == pytest.approx(np.linalg.norm([-1.5, -0.5, 0.5, 1.5]))

    def test_csv_bytes(self):
        # recorded before the export moved to topology.to_csv
        model = ring(4, 0.5)
        trace = run_consensus(model, design_pipeline(model).h, uniform_vector(7, 4), 4, 1e-9)
        assert trace_to_csv(trace) == (
            "step;error_norm;average\n"
            "0;0.6403979741570374;0.4725772541385973\n"
            "1;0.2910899882531988;0.4725772541385973\n"
            "2;0.13231363102418126;0.47257725413859725\n"
            "3;0.06014255955644601;0.47257725413859725\n"
            "4;0.02733752707111182;0.4725772541385972\n"
        )


class TestReportExport:
    def test_json_bytes(self):
        # recorded before the export moved to topology.to_json
        model = ring(8, 0.3)
        report = verify_consensus(model, design_pipeline(model), 1, 0)
        assert report_to_json(report) == (
            "[\n  {\n"
            '    "trial": 0,\n'
            '    "seed": 0,\n'
            '    "empirical_factor": 0.764810842432851,\n'
            '    "gamma": 0.764810087287642,\n'
            '    "pass": true,\n'
            '    "note": ""\n'
            "  }\n]\n"
        )

    def test_nan_design_writes_null(self):
        # the r-nearest h entry is 0/0 at n=6, r=2, a=0
        model = r_nearest_ring(6, 2, 0.0)
        design = closed_design(model)
        assert math.isnan(design.h) and math.isnan(design.gamma)
        (record,) = strict_json(report_to_json(verify_consensus(model, design, 1, 0)))
        assert (record["gamma"], record["empirical_factor"], record["pass"]) == (None, None, False)
        assert record["note"] == f"{NOT_RUN}nan"

    def test_inf_design_writes_null(self):
        # the slow-mode design at h = inf: gamma = |1 - inf * lambda_s|
        model = r_nearest_ring(6, 2, 0.0)
        design = dataclasses.replace(closed_design(model), h=math.inf, gamma=math.inf)
        (record,) = strict_json(report_to_json(verify_consensus(model, design, 1, 0)))
        assert (record["gamma"], record["empirical_factor"], record["pass"]) == (None, None, False)
        assert record["note"] == f"{NOT_RUN}inf"

