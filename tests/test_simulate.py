import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consensus_spectra import (
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
from consensus_spectra.simulate import _structured_apply_L
from consensus_spectra.topology import dense_laplacian


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
    models = []
    for a in (0.0, 0.37, 1.0):
        models += [ring(11, a), torus((3, 4, 5), a), r_nearest_ring(14, 1, a), r_nearest_ring(14, 6, a)]
    return models


class TestStructuredApply:
    @pytest.mark.parametrize("model", _apply_models(), ids=format_model)
    def test_matches_dense_laplacian(self, model):
        # the large common offset goes through the mean subtraction; an
        # entrywise comparison, unlike error norms, tells L from L^T
        x = 1e6 + uniform_vector(5, model.order)
        got = _structured_apply_L(model)(x)
        expected = dense_laplacian(model).values @ x
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.linalg.norm(x)


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

    def test_cap(self):
        with pytest.raises(SizeError):
            run_consensus(ring(64, 0.0), 0.5, np.zeros(64), 10, 1e-9, cap=32)

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

    def test_deterministic_given_seed(self):
        model = ring(12, 0.2)
        design = design_pipeline(model)
        r1 = verify_consensus(model, design, trials=2, seed=9)
        r2 = verify_consensus(model, design, trials=2, seed=9)
        assert [t.empirical_factor for t in r1] == [t.empirical_factor for t in r2]

    def test_needs_trials(self):
        with pytest.raises(ParameterError):
            verify_consensus(ring(8, 0.0), design_pipeline(ring(8, 0.0)), trials=0, seed=1)


class TestTraceExport:
    def test_csv_columns(self):
        trace = run_consensus(ring(4, 0.0), 2 / 3, [1.0, 2.0, 3.0, 4.0], 5, 1e-300)
        lines = trace_to_csv(trace).strip().split("\n")
        assert lines[0] == "step;error_norm;average"
        assert len(lines) == trace.steps + 2
        step, err, avg = lines[1].split(";")
        assert (int(step), float(avg)) == (0, 2.5)
        assert float(err) == pytest.approx(np.linalg.norm([-1.5, -0.5, 0.5, 1.5]))
