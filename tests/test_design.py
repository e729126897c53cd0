import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import consensus_spectra
from consensus_spectra import (
    DegenerateError,
    ReconciledRate,
    ReconciliationTag,
    SpectrumSource,
    UnsupportedParityError,
    closed_design,
    closed_form_R,
    design_export_dict,
    design_pipeline,
    factor_extremal_pair,
    full_spectrum,
    minimax_h,
    parse_model,
    r_nearest_ring,
    ring,
    solve_h_pair,
    torus,
)
from consensus_spectra import design, spectral
from consensus_spectra.analysis import FIG6_SIDES
from consensus_spectra.design import (
    DESIGN_METHODS,
    _h_ring_even,
    _h_ring_odd,
    _h_rnearest_even,
    _h_rnearest_odd,
    _h_torus2_even,
    _h_torus2_odd,
    _h_torusN_even,
    _h_torusN_odd,
    _R_ring_even,
    _R_ring_odd,
    _R_rnearest_even,
    _R_rnearest_odd,
    _R_torus2_even,
    _R_torus2_odd,
    _R_torusN_even,
    _divide,
    formula_case,
)
from conftest import A_GRID, THREE_RING_A, grid_models, ring_models, rnearest_models, torus_models
from spectrum_scan import extremal_pair


class TestSolveHPair:
    def test_asymmetric_ring_pair(self):
        assert solve_h_pair(1 + 0.5j, 2.0) == pytest.approx(8 / 11, abs=1e-15)

    def test_symmetric_reduces_to_classic_best_constant(self):
        assert solve_h_pair(1.0, 2.0) == pytest.approx(2 / 3, abs=1e-15)

    def test_equal_moduli_degenerate(self):
        with pytest.raises(DegenerateError):
            solve_h_pair(1 + 1j, 1 - 1j)

    def test_moduli_equalized_after_substitution(self):
        for ls, ll in [(1 + 0.5j, 2.0), (0.3 + 0.9j, 4.0), (0.5 + 0.25j, 3 + 1j)]:
            h = solve_h_pair(ls, ll)
            assert abs(1 - h * ls) == pytest.approx(abs(1 - h * ll), abs=1e-12)

    @given(
        st.floats(0.05, 4.0),
        st.floats(-4.0, 4.0),
        st.floats(0.05, 8.0),
        st.floats(-4.0, 4.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_equalization_property_random_pairs(self, rs, is_, rl, il):
        ls, ll = complex(rs, is_), complex(rl, il)
        assume(abs(abs(ll) ** 2 - abs(ls) ** 2) > 1e-6)
        h = solve_h_pair(ls, ll)
        assert abs(1 - h * ls) == pytest.approx(abs(1 - h * ll), abs=1e-9)


class TestDesignPipeline:
    def test_ring4_asymmetric(self):
        d = design_pipeline(ring(4, 0.5))
        assert d.h == pytest.approx(8 / 11, abs=1e-12)
        assert d.gamma == pytest.approx(5 / 11, abs=1e-12)
        assert d.rate == pytest.approx(6 / 11, abs=1e-12)
        assert d.method == "pipeline"

    def test_ring4_symmetric(self):
        d = design_pipeline(ring(4, 0.0))
        assert (d.h, d.gamma, d.rate) == pytest.approx((2 / 3, 1 / 3, 2 / 3), abs=1e-12)

    def test_torus44(self):
        d = design_pipeline(torus((4, 4), 0.0))
        assert (d.h, d.gamma, d.rate) == pytest.approx((0.4, 0.6, 0.4), abs=1e-12)

    def test_rate_is_one_minus_gamma(self):
        for a in (0.0, 0.3, 0.8):
            d = design_pipeline(r_nearest_ring(14, 3, a))
            assert d.rate == 1.0 - d.gamma

    def test_pair_moduli_agree(self):
        for a in A_GRID:
            for model in (ring(10, a), r_nearest_ring(12, 2, a), torus((4, 5), a)):
                d = design_pipeline(model)
                ls, ll = d.lambda_s.value, d.lambda_l.value
                assert abs(1 - d.h * ls) == pytest.approx(abs(1 - d.h * ll), abs=1e-9)

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateError):
            design_pipeline(ring(3, 0.5))

    def test_source_independent(self):
        # the closed-form design agrees with the oracle spectrum's scan
        for model in (m for a in A_GRID for m in grid_models(a)):
            try:
                d = design_pipeline(model)
            except DegenerateError:
                continue
            lam_s, lam_l = extremal_pair(full_spectrum(model, SpectrumSource.DFT_ORACLE))
            h = solve_h_pair(lam_s.value, lam_l.value)
            assert d.h == pytest.approx(h, abs=1e-10), model

    def test_symmetric_reduction_formula(self):
        # at a = 0 the pair solution collapses to 2 / (l_s + l_l)
        for model in (ring(12, 0.0), r_nearest_ring(16, 3, 0.0), torus((4, 6), 0.0)):
            d = design_pipeline(model)
            expected = 2.0 / (d.lambda_s.re + d.lambda_l.re)
            assert d.h == pytest.approx(expected, abs=1e-12)


class TestClosedFormH:
    def test_ring4(self):
        assert closed_design(ring(4, 0.5)).h == pytest.approx(8 / 11, abs=1e-12)

    def test_torus_even(self):
        assert closed_design(torus((4, 4), 0.0)).h == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.9])
    def test_matching_cases_track_pipeline(self, a):
        # the ring and even-torus entries agree with the pipeline
        # everywhere; the full-grid check lives in the acceptance suite
        for model in (ring(10, a), ring(11, a), torus((4, 8), a), torus((8, 8), a)):
            assert closed_design(model).h == pytest.approx(design_pipeline(model).h, abs=1e-9)

    def test_nd_even_entry_generalizes_lower_dimensions(self):
        # m = 1 and m = 2 reductions coincide with the ring and 2-D entries
        for a in (0.0, 0.5, 1.0):
            assert _h_torusN_even(6, 1, a) == pytest.approx(closed_design(ring(6, a)).h, abs=1e-12)
            assert _h_torusN_even(8, 2, a) == pytest.approx(
                closed_design(torus((4, 8), a)).h, abs=1e-12
            )

    def test_nd_even_matches_pipeline_in_three_dimensions(self):
        for a in (0.0, 0.4, 0.8):
            model = torus((4, 6, 8), a)
            assert closed_design(model).h == pytest.approx(design_pipeline(model).h, abs=1e-9)

    def test_nd_odd_entry_documented_deviation(self):
        # the all-odd entry drops a cross term and reuses the all-even
        # numerator, so it deviates from the pipeline; kept verbatim
        model = torus((5, 5, 5), 0.0)
        assert abs(closed_design(model).h - design_pipeline(model).h) > 1e-3

    def test_rnearest_even_known_quirks(self):
        # n = 2r + 2 with even r makes the entry 0/0 at a = 0 and 0 for
        # a > 0 (its half-index eigenvalue ties the slow one); the 0/0
        # assertion pins this build's evaluation order, where numerator
        # and denominator both land on exact float zeros
        assert math.isnan(closed_design(r_nearest_ring(6, 2, 0.0)).h)
        assert closed_design(r_nearest_ring(6, 2, 0.5)).h == pytest.approx(0.0, abs=1e-15)

    def test_rnearest_even_matches_its_own_pair(self):
        # the even entry solves the equal-modulus equation for the
        # (slow, half-index) pair; verify against that pair directly
        for n, r, a in [(12, 2, 0.3), (16, 3, 0.8), (20, 5, 0.1)]:
            model = r_nearest_ring(n, r, a)
            spectrum = full_spectrum(model)
            lam_s = spectrum.values[1]
            lam_half = spectrum.values[n // 2]
            assert closed_design(model).h == pytest.approx(
                solve_h_pair(lam_s, lam_half), abs=1e-9
            )

    def test_mixed_parity_unsupported(self):
        with pytest.raises(UnsupportedParityError):
            closed_design(torus((4, 5), 0.3))
        with pytest.raises(UnsupportedParityError):
            closed_design(torus((3, 4, 5), 0.0))

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.5, 1.0])
    def test_three_ring_has_no_catalog_h(self, a):
        # the odd-ring entries are 0/0 at n = 3, where rounding makes the h
        # entry 0.667, 0.857, 0.6 and 1.2 at these a; every catalog route
        # runs the pipeline first, which refuses the model
        for call in (closed_design, closed_form_R):
            with pytest.raises(DegenerateError):
                call(ring(3, a))
        assert not hasattr(consensus_spectra, "closed_form_h")
        assert not hasattr(design, "closed_form_h")


class TestClosedFormR:
    def test_ring4_identical(self):
        rec = closed_form_R(ring(4, 0.5))
        assert rec.value == pytest.approx(6 / 11, abs=1e-12)
        assert rec.tag is ReconciliationTag.IDENTICAL

    def test_torus44_offset_by_one(self):
        rec = closed_form_R(torus((4, 4), 0.0))
        assert rec.value == pytest.approx(-0.6, abs=1e-12)
        assert rec.tag is ReconciliationTag.OFFSET_BY_ONE
        assert rec.pipeline_rate == pytest.approx(0.4, abs=1e-12)

    def test_nd_even_ring_reduction_offset_by_one(self):
        # the m = 1 reduction of the N-torus rate entry evaluates to
        # pipeline rate minus one on an even ring
        printed = _R_torusN_even(4, 1, 0.0)
        assert printed == pytest.approx(-1 / 3, abs=1e-12)
        rec = ReconciledRate(printed, design_pipeline(ring(4, 0.0)).rate, "torusN-even")
        assert rec.tag is ReconciliationTag.OFFSET_BY_ONE

    def test_ring_odd_identical(self):
        for a in (0.0, 0.4, 0.9):
            rec = closed_form_R(ring(9, a))
            assert rec.tag is ReconciliationTag.IDENTICAL

    def test_rnearest_tags_mismatch(self):
        # the r-nearest rate entries never reproduce the pipeline rate,
        # not even in the plain-ring reduction r = 1
        for model in (r_nearest_ring(12, 1, 0.0), r_nearest_ring(12, 2, 0.3), r_nearest_ring(13, 2, 0.3)):
            assert closed_form_R(model).tag is ReconciliationTag.MISMATCH

    def test_degenerate_model_raises_degenerate_error(self):
        # the 3-ring at a = 0 has no pair design; the odd-ring rate entry
        # would take the square root of a negative number
        with pytest.raises(DegenerateError):
            closed_form_R(ring(3, 0.0))

    def test_parity_lookup_comes_first(self):
        # the case is found before any entry is evaluated
        with pytest.raises(UnsupportedParityError):
            closed_form_R(torus((3, 4), 0.0))

    def test_nd_odd_rate_is_derived_from_its_h(self):
        model = torus((5, 5, 5), 0.2)
        rec = closed_form_R(model)
        h = _h_torusN_odd((5, 5, 5), 0.2)
        lam_s = extremal_pair(full_spectrum(model))[0].value
        assert rec.value == pytest.approx(1.0 - abs(1.0 - h * lam_s), abs=1e-12)
        assert rec.case == "torusN-odd"


class TestPerModelSummary:
    """Each topology's closed-form candidates are selected once and shared
    by every a and every caller; repr compares every field exactly, NaN and
    the sign of zero included."""

    def test_warm_closed_form_R_equals_cold(self):
        for _, model, _, _ in CATALOG_WIRING:  # one model per catalog case
            spectral._closed_candidates.cache_clear()
            cold = closed_form_R(model)
            spectral._closed_candidates.cache_clear()
            design_pipeline(model)
            warm = closed_form_R(model)
            assert repr(warm) == repr(cold), model

    @pytest.mark.parametrize("first", list(SpectrumSource))
    def test_sources_do_not_alias(self, first):
        # the two spectra's pairs of a 7-ring differ in their last bits;
        # whichever spectrum is read first, every route carries the
        # closed-form pair
        model = ring(7, 0.3)
        spectral._closed_candidates.cache_clear()
        spectra = {first: full_spectrum(model, first)}
        designs = {first: minimax_h(spectra[first])}
        for source in SpectrumSource:
            spectra.setdefault(source, full_spectrum(model, source))
            designs.setdefault(source, minimax_h(spectra[source]))
        pairs = {source: repr(extremal_pair(spectrum)) for source, spectrum in spectra.items()}
        assert pairs[SpectrumSource.CLOSED_FORM] != pairs[SpectrumSource.DFT_ORACLE]
        d = design_pipeline(model)
        pair = repr((d.lambda_s, d.lambda_l))
        assert pair == pairs[SpectrumSource.CLOSED_FORM]
        for d in [*designs.values(), closed_design(model)]:
            assert repr((d.lambda_s, d.lambda_l)) == pair

    @pytest.mark.parametrize("a", THREE_RING_A)
    def test_degenerate_model_raises_on_every_call(self, a):
        for _ in range(3):
            for call in (design_pipeline, closed_form_R, closed_design):
                with pytest.raises(DegenerateError):
                    call(ring(3, a))


def run_capped(body: str) -> dict:
    """Run ``body`` in a fresh interpreter whose address space is capped at
    4 GiB and return the JSON it prints.  10^9 eigenvalues would take
    16 GB, so the cap turns a route back to the full spectrum into a
    quick MemoryError."""
    code = textwrap.dedent(
        """
        import resource

        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 4 * 2**30
        resource.setrlimit(resource.RLIMIT_AS, (cap if hard < 0 else min(cap, hard), hard))
        """
    ) + textwrap.dedent(body)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestScaleGuard:
    def test_billion_node_torus_designs_from_its_factors(self):
        out = run_capped(
            """
            import json, time, tracemalloc
            import consensus_spectra as cs

            model = cs.torus((1000, 1000, 1000), 0.3)
            tracemalloc.start()
            t0 = time.perf_counter()
            d = cs.design_pipeline(model)
            rec = cs.closed_form_R(model)
            seconds = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
            print(json.dumps({"seconds": seconds, "peak": peak, "rate": d.rate,
                              "pipeline_rate": rec.pipeline_rate,
                              "lambda_s": d.lambda_s.index}))
            """
        )
        assert out["seconds"] < 0.25
        assert out["peak"] < 1_000_000
        assert out["pipeline_rate"] == out["rate"] > 0
        assert out["lambda_s"] == [0, 0, 1]

    def test_billion_node_torus_minimax_from_the_cli(self):
        out = run_capped(
            """
            import contextlib, io, json, time, tracemalloc
            from consensus_spectra import cli

            argv = ["design", "--method", "minimax", "--model", "torus:dims=1000x1000x1000,a=0.3"]
            stdout = io.StringIO()
            tracemalloc.start()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = cli.run(argv)
            seconds = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
            print(json.dumps({"code": code, "seconds": seconds, "peak": peak,
                              "design": json.loads(stdout.getvalue())}))
            """
        )
        assert out["code"] == 0
        assert out["seconds"] < 0.25
        assert out["peak"] < 1_000_000
        payload = out["design"]
        assert payload["method"] == "minimax"
        assert 0 < payload["rate"] < 1
        assert payload["lambda_s"]["index"] == [0, 0, 1]


A = 0.37

# one model per catalog case, torus sides distinct and given unsorted,
# with the entries called in their documented argument order: 2-D tori
# pass (k_small, k_big) or k_big, N-D tori the largest side first
CATALOG_WIRING = [
    ("ring-even", ring(8, A), lambda: _h_ring_even(8, A), lambda: _R_ring_even(8, A)),
    ("ring-odd", ring(9, A), lambda: _h_ring_odd(9, A), lambda: _R_ring_odd(9, A)),
    (
        "rnearest-even",
        r_nearest_ring(14, 3, A),
        lambda: _h_rnearest_even(14, 3, A),
        lambda: _R_rnearest_even(14, 3, A),
    ),
    (
        "rnearest-odd",
        r_nearest_ring(15, 3, A),
        lambda: _h_rnearest_odd(15, 3, A),
        lambda: _R_rnearest_odd(15, 3, A),
    ),
    ("torus2-even", torus((4, 8), A), lambda: _h_torus2_even(8, A), lambda: _R_torus2_even(8, A)),
    (
        "torus2-odd",
        torus((9, 5), A),
        lambda: _h_torus2_odd(5, 9, A),
        lambda: _R_torus2_odd(5, 9, A),
    ),
    (
        "torusN-even",
        torus((8, 4, 6), A),
        lambda: _h_torusN_even(8, 3, A),
        lambda: _R_torusN_even(8, 3, A),
    ),
    (
        "torusN-odd",
        torus((7, 3, 5), A),
        lambda: _h_torusN_odd((7, 5, 3), A),
        lambda: _torusN_odd_rate((7, 3, 5), (7, 5, 3)),
    ),
]


def _torusN_odd_rate(dims, dims_largest_first):
    # no catalogued rate: the entry's h measured on the pipeline's slow mode
    lam_s = design_pipeline(torus(dims, A)).lambda_s.value
    return 1.0 - abs(1.0 - _h_torusN_odd(dims_largest_first, A) * lam_s)


class TestCatalogWiring:
    @pytest.mark.parametrize(
        "case, model, h_expected, R_expected", CATALOG_WIRING, ids=[c[0] for c in CATALOG_WIRING]
    )
    def test_dispatch_calls_the_entry_with_documented_arguments(
        self, case, model, h_expected, R_expected
    ):
        assert formula_case(model) == case
        assert closed_design(model).h == h_expected()
        rec = closed_form_R(model)
        assert rec.case == case
        assert rec.value == R_expected()


# model -> (repr of closed_form_R(model).value, repr of closed_design(model).h),
# pinned bit for bit; a nan comes from a negative radicand (R) or 0/0 (h)
CATALOG_VALUES = {
    "rnearest:n=14,r=3,a=0.37": ("0.22236742302966672", "0.39889435352356595"),
    "rnearest:n=15,r=3,a=0.37": ("0.19901308048927302", "-0.21670582173585493"),
    "rnearest:n=12,r=3,a=0.25": ("0.32856748110561695", "0.36455783270894937"),
    "rnearest:n=40,r=5,a=0.9": ("-0.11055719914249118", "0.3383415189387479"),
    "rnearest:n=41,r=2,a=0": ("0.02862454494509248", "-0.2521148833968343"),
    "rnearest:n=7,r=1,a=1": ("-0.1111931735017504", "-0.5"),
    "rnearest:n=129,r=11,a=0.6": ("0.0012284568776728122", "-0.059280573710831834"),
    "rnearest:n=38,r=18,a=0": ("nan", "0.05555555555555555"),
    "rnearest:n=67,r=32,a=0.05": ("nan", "-0.02976993473899417"),
    "rnearest:n=11,r=4,a=0.4": ("nan", "-0.1657249526824989"),
    "rnearest:n=6,r=2,a=0": ("nan", "nan"),
}


class TestCatalogValues:
    # pytest turns warnings into errors, so a numpy warning left on any
    # of these paths fails the test

    @pytest.mark.parametrize("spec", CATALOG_VALUES)
    def test_rnearest_entries_bit_for_bit(self, spec):
        model = parse_model(spec)
        assert (repr(closed_form_R(model).value), repr(closed_design(model).h)) == CATALOG_VALUES[spec]

    def test_h_entry_at_zero_over_zero_is_nan(self):
        assert math.isnan(_h_rnearest_even(6, 2, 0.0))

    @pytest.mark.parametrize("num", [3.0, -3.0, math.inf, -math.inf])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_divisor_gives_an_infinity_signed_like_the_numerator(self, num, zero):
        assert _divide(num, zero) == math.copysign(math.inf, num)

    def test_zero_over_zero_is_nan(self):
        assert math.isnan(_divide(0.0, 0.0)) and math.isnan(_divide(-0.0, 0.0))

    def test_nonzero_divisor_divides(self):
        assert _divide(1.0, 3.0) == 1.0 / 3.0 and _divide(-2.0, -0.5) == 4.0


class TestMinimax:
    def test_ring4_symmetric_equioscillation(self):
        d = minimax_h(full_spectrum(ring(4, 0.0)))
        assert d.h == pytest.approx(2 / 3, abs=1e-14)
        assert d.gamma == pytest.approx(1 / 3, abs=1e-14)
        assert d.method == "minimax"

    def test_ring4_asymmetric_matches_pipeline(self):
        d = minimax_h(full_spectrum(ring(4, 0.5)))
        assert d.h == pytest.approx(8 / 11, abs=1e-14)
        assert d.gamma == pytest.approx(5 / 11, abs=1e-14)

    def test_ring4_single_vertex_binds_beyond_breakdown(self):
        # above a = 1/sqrt(3) the slow pair 1 +- 0.6i binds alone: h is
        # its own minimiser Re/|l|^2 = 1/1.36 and gamma = 0.6/sqrt(1.36)
        d = minimax_h(full_spectrum(ring(4, 0.6)))
        assert d.h == pytest.approx(25 / 34, abs=1e-14)
        assert d.gamma == pytest.approx(3 / math.sqrt(34), abs=1e-14)

    def test_rnearest_breakpoint(self):
        d = minimax_h(full_spectrum(r_nearest_ring(6, 2, 0.0)))
        assert d.h == pytest.approx(0.4, abs=1e-14)
        assert d.gamma == pytest.approx(0.2, abs=1e-14)
        assert d.rate == pytest.approx(0.8, abs=1e-14)

    @pytest.mark.parametrize("a", THREE_RING_A)
    def test_degenerate_pair_solved(self, a):
        # the 3-ring's pair has equal moduli, which only the pair solve
        # refuses; at a = 0, I - (2/3) L is exact averaging
        model = ring(3, a)
        d = minimax_h(full_spectrum(model))
        assert (d.lambda_s, d.lambda_l) == factor_extremal_pair(model)
        if a <= 1e-9:
            assert abs(d.h - 2 / 3) <= 1e-9
        if a == 0.0:
            assert abs(d.h - 2 / 3) <= 1e-15
            assert d.gamma <= 1e-15

    def test_works_where_pair_solve_cannot(self):
        # conjugate-only spectra have no pair solution but still admit a
        # best constant; the design carries the pair all the same
        d = minimax_h(full_spectrum(ring(3, 0.5)))
        assert 0 < d.gamma < 1
        assert d.lambda_s == d.lambda_l
        assert (d.lambda_s, d.lambda_l) == factor_extremal_pair(ring(3, 0.5))

    def test_gamma_is_true_worst_modulus(self):
        for model in (ring(10, 0.6), r_nearest_ring(12, 3, 0.4), torus((4, 5), 0.8)):
            spectrum = full_spectrum(model)
            d = minimax_h(spectrum)
            assert d.gamma == pytest.approx(
                float(np.max(np.abs(1 - d.h * spectrum.values[1:]))), abs=1e-14
            )

    def test_never_beaten_by_a_scan(self):
        # coarse h-scan cross-check of global optimality
        for model in (ring(8, 0.9), r_nearest_ring(10, 4, 0.5), torus((5, 5), 1.0)):
            spectrum = full_spectrum(model)
            d = minimax_h(spectrum)
            nz = spectrum.values[1:]
            hs = np.linspace(0, 2.0 / nz.real.max(), 4001)
            scan = np.min(np.max(np.abs(1 - hs[:, None] * nz[None, :]), axis=1))
            assert d.gamma <= scan + 1e-12

    def test_matches_pipeline_for_all_symmetric_grid_models(self):
        # with a = 0 the spectrum is real and the extremal pair is
        # always the binding set, so the two routes must coincide
        for model in grid_models(0.0):
            try:
                d_pair = design_pipeline(model)
            except DegenerateError:
                continue
            d_mm = minimax_h(full_spectrum(model))
            assert d_mm.gamma == pytest.approx(d_pair.gamma, abs=1e-12), model


def _small_models():
    a = st.floats(0.0, 1.0)
    rings = st.builds(ring, st.integers(3, 40), a)
    rnearest = st.integers(1, 6).flatmap(
        lambda r: st.builds(r_nearest_ring, st.integers(2 * r + 2, 40), st.just(r), a)
    )
    tori = st.builds(torus, st.lists(st.integers(3, 9), min_size=2, max_size=3).map(tuple), a)
    return st.one_of(rings, rnearest, tori)


class TestMinimaxProperties:
    @given(_small_models())
    @example(ring(3, 0.0))
    @settings(max_examples=150, deadline=None)
    def test_exact_minimax_over_the_whole_spectrum(self, model):
        spectrum = full_spectrum(model)
        d = minimax_h(spectrum)
        nz = spectrum.values[1:]
        moduli = np.abs(1 - d.h * nz)
        # the hull vertices decide: gamma is the worst modulus over every
        # nonzero eigenvalue
        assert d.gamma == pytest.approx(float(moduli.max()), abs=1e-14)
        # and the oracle spectrum agrees with it
        oracle = full_spectrum(model, SpectrumSource.DFT_ORACLE).values[1:]
        assert d.gamma == pytest.approx(float(np.abs(1 - d.h * oracle).max()), abs=1e-12)
        # no h on a fine scan does better
        hs = np.linspace(0, 2.0 / nz.real.max(), 4001)
        scan = np.min(np.max(np.abs(1 - hs[:, None] * nz[None, :]), axis=1))
        assert d.gamma <= scan + 1e-12
        # the lambda_s and lambda_l fields are the pair the full-spectrum
        # scan selects
        assert repr((d.lambda_s, d.lambda_l)) == repr(extremal_pair(spectrum))
        # KKT certificate: 0 lies in the hull of the active subgradients
        # d|1 - h*l|/dh = (h|l|^2 - Re l) / |1 - h*l|; where the modulus is
        # exactly 0 its subgradients are an interval around 0, so the
        # certificate holds there without a division
        active = moduli >= d.gamma - 1e-12
        if np.any(moduli[active] == 0.0):
            assert d.gamma <= 1e-12
        else:
            slopes = (d.h * np.abs(nz[active]) ** 2 - nz[active].real) / moduli[active]
            assert slopes.min() <= 1e-9 and slopes.max() >= -1e-9


HIGHER_TORUS_DIMS = ((3, 3, 3), (3, 4, 5), (5, 7, 9), (4, 4, 4, 4), (3, 3, 3, 3, 3))

# one side much larger than the others, in either position: the all-zeros
# vertex's merged neighbours then come from one factor
UNEQUAL_TORUS_DIMS = ((64, 3), (3, 64), (101, 4, 3), (200, 5))


def higher_tori(a: float):
    return [torus(dims, a) for dims in HIGHER_TORUS_DIMS]


def unequal_tori(a: float):
    return [torus(dims, a) for dims in UNEQUAL_TORUS_DIMS]


class TestMinimaxFromFactors:
    """The hull comes from the factors' Minkowski merge; solving on the
    hull of every nonzero eigenvalue gives the same bits."""

    @pytest.mark.parametrize(
        "family", [ring_models, rnearest_models, torus_models, higher_tori, unequal_tori]
    )
    @pytest.mark.parametrize("source", list(SpectrumSource))
    def test_bit_identical_to_the_whole_spectrum_hull(self, source, family, monkeypatch):
        # minimax_h reads the model only, so a DFT spectrum gives the
        # closed-form design too
        for a in A_GRID:
            for model in family(a):
                spectrum = full_spectrum(model, source)
                closed = full_spectrum(model)
                # repr compares every field bit for bit
                got = {repr(minimax_h(spectrum)), repr(DESIGN_METHODS["minimax"](model))}
                with monkeypatch.context() as mp:
                    # the reference: the same exact solve on the closed
                    # form's _convex_hull(values[1:])
                    mp.setattr(design, "_hull_candidates", lambda model: closed.values[1:])
                    reference = repr(minimax_h(closed))
                assert got == {reference}, model

    def test_reads_the_model_and_source_not_the_values(self):
        model = torus((3, 5), 0.6)
        spectrum = full_spectrum(model)
        emptied = dataclasses.replace(spectrum, values=np.zeros(0, dtype=complex))
        oracle = full_spectrum(model, SpectrumSource.DFT_ORACLE)
        assert repr(minimax_h(emptied)) == repr(minimax_h(spectrum))
        assert repr(minimax_h(oracle)) == repr(minimax_h(spectrum))

    @pytest.mark.parametrize("dims", [(1000, 1000, 1000), FIG6_SIDES], ids=["1000^3", "fig6"])
    def test_one_merge_of_the_factor_hulls(self, dims):
        # one merge of the factor hulls, not one merge per dimension: the
        # merged vertices but the all-zeros one, as the corner it spans
        # holds no other value on these tori
        model = torus(dims, 0.3)
        factors = spectral._factors(model, SpectrumSource.CLOSED_FORM)
        bound = sum(len(design._convex_hull(f)) for f in factors) - 1
        assert len(design._hull_candidates(model)) <= bound

    @pytest.mark.parametrize("a", [0.3, 1.0])
    @pytest.mark.parametrize(
        "dims, distinct",
        [((1000, 1000, 1000), 2999), ((8, 8, 8), 23), ((10, 10, 10, 10), 39)],
        ids=["1000^3", "8^3", "10^4"],
    )
    def test_each_candidate_enters_once(self, dims, distinct, a):
        # the merged vertices but the all-zeros one, and the values in the
        # corner it spans with its neighbours; on equal sides those
        # neighbours are the only corner values, and each enters once
        z = design._hull_candidates(torus(dims, a))
        assert len(np.unique(z)) == distinct
        assert len(z) == distinct

    def test_corner_on_a_symmetric_torus_keeps_the_real_segment(self):
        # at a = 0 the polygon is a segment, and every nonzero value lies
        # on the corner's chord; each distinct one enters
        model = torus((4, 6), 0.0)
        f4, f6 = spectral._factors(model, SpectrumSource.CLOSED_FORM)
        far_end = f4.real.max() + f6.real.max()
        expected = np.unique(np.concatenate((f4[1:], f6[1:], [far_end])))
        assert np.array_equal(np.sort(design._hull_candidates(model)), expected)

    def test_large_unequal_torus_keeps_its_recorded_bits(self):
        # 10^12 nodes, too many for the whole-spectrum reference, so the
        # design's bits are pinned; hulling each factor's nonzero values
        # whole gives the same bits, in thousands of deletion rounds
        assert repr(design._minimax(torus((100000, 100000, 100), 0.3))) == (
            "ConsensusDesign(h=0.33333333322696096, gamma=0.9999999993617656, method='minimax', "
            "lambda_s=ComplexEigenvalue(re=1.9739209156099946e-09, im=1.8849555909136248e-05, "
            "index=(0, 1, 0)), lambda_l=ComplexEigenvalue(re=6.0, im=1.1021821192326179e-16, "
            "index=(50000, 50000, 50)))"
        )

    @pytest.mark.parametrize(
        "dims", [(100000, 100), (100000, 100000, 100), FIG6_SIDES], ids=["1e5x100", "1e5^2x100", "fig6"]
    )
    def test_one_hull_per_factor(self, dims, monkeypatch):
        # one hull per factor, then the candidates' hull and the dual hull
        sizes = []
        hull = design._convex_hull

        def counted(z):
            sizes.append(len(z))
            return hull(z)

        monkeypatch.setattr(design, "_convex_hull", counted)
        model = torus(dims, 0.3)
        design._minimax(model)
        assert len(sizes) <= len(model.factors) + 2
        # the candidates' hull reads the merged polygon's vertices and the
        # corner, no more points than the factors hold (100,099 of 100,100
        # on the 100000 x 100 torus)
        assert sizes[-2] <= sum(sizes[: len(model.factors)])

    @pytest.mark.parametrize("method", sorted(DESIGN_METHODS))
    def test_no_design_route_builds_a_spectrum(self, method, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a design route built a Spectrum")

        monkeypatch.setattr(spectral.Spectrum, "__init__", refuse)
        for model in (ring(9, 0.4), r_nearest_ring(20, 3, 0.7), torus((4, 6, 8), 0.3)):
            assert DESIGN_METHODS[method](model).gamma > 0


CERTIFY_REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "certify.json").read_text()
)


class TestMinimaxReference:
    @pytest.mark.parametrize("spec", sorted(CERTIFY_REFERENCE))
    def test_matches_recorded_minimax_and_never_trails_the_pair(self, spec):
        # includes the 2.3M-eigenvalue 5-torus of figure 6
        reference = CERTIFY_REFERENCE[spec]
        d = minimax_h(full_spectrum(parse_model(spec)))
        assert d.gamma == pytest.approx(reference["minimax_gamma"], abs=1e-9)
        assert d.gamma <= reference["gamma"] + 1e-9

    def test_numpy_only(self):
        code = (
            "import sys, consensus_spectra as cs; "
            "cs.minimax_h(cs.full_spectrum(cs.torus((3, 5, 7), 0.3))); "
            "assert 'scipy' not in sys.modules, 'scipy imported'"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


class TestMonotonicity:
    def test_ring_rate_non_increasing_in_a(self):
        for n in (8, 16, 32):
            rates = [design_pipeline(ring(n, a)).rate for a in np.arange(0, 0.91, 0.1)]
            assert all(r1 >= r2 - 1e-12 for r1, r2 in zip(rates, rates[1:]))


class TestLargeTorus:
    def test_five_dimensional_pipeline_matches_analytic_pair(self):
        # 2.3M eigenvalues; for an all-odd torus the extremal pair is
        # known in closed form (slow index on the largest side, half
        # indices on every side), so the scan can be cross-checked
        # without trusting it
        dims, a = (11, 15, 21, 25, 27), 0.3
        d = design_pipeline(torus(dims, a))
        k_big = max(dims)
        lam_s = complex(
            1 - math.cos(2 * math.pi / k_big), a * math.sin(2 * math.pi / k_big)
        )
        lam_l = complex(
            len(dims) + sum(math.cos(math.pi / k) for k in dims),
            a * sum(math.sin(math.pi / k) for k in dims),
        )
        h_expected = solve_h_pair(lam_s, lam_l)
        assert d.h == pytest.approx(h_expected, abs=1e-12)
        assert d.gamma == pytest.approx(abs(1 - h_expected * lam_s), abs=1e-12)
        assert d.lambda_s.index == (0, 0, 0, 0, 1)
        assert d.lambda_l.index == (5, 7, 10, 12, 13)


class TestExportDict:
    def test_design_export_shape(self):
        model = ring(4, 0.5)
        payload = design_export_dict(model, design_pipeline(model), closed_form_R(model))
        assert payload["model"] == "ring:n=4,a=0.5"
        assert payload["h"] == pytest.approx(8 / 11)
        assert payload["lambda_s"] == {"index": [1], "re": pytest.approx(1.0), "im": pytest.approx(0.5)}
        assert payload["reconciliation"]["tag"] == "Identical"
        assert payload["assumptions"]

    def test_closed_design_carries_pair(self):
        d = closed_design(torus((4, 4), 0.3))
        assert d.method == "closed"
        assert d.lambda_s is not None and d.lambda_l is not None
        assert d.gamma == pytest.approx(design_pipeline(torus((4, 4), 0.3)).gamma, abs=1e-9)
