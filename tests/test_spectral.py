import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consensus_spectra import (
    CirculantRow,
    DegenerateError,
    SizeError,
    SpectrumSource,
    TopologyError,
    circulant_row,
    circulant_spectrum,
    closed_eigenvalue,
    extremal_pair,
    full_spectrum,
    r_nearest_ring,
    ring,
    spectrum_to_csv,
    spectrum_to_json,
    torus,
)
from conftest import A_GRID


def dft_by_hand(entries, j):
    """Plain-Python reference summation, independent of the library."""
    n = len(entries)
    return sum(entries[l] * cmath.exp(2j * cmath.pi * l * j / n) for l in range(n))


def conjugation_closed(values, tol=1e-9):
    """Every conjugate has a partner within tol (multiset check)."""
    return all(np.min(np.abs(values - v.conjugate())) <= tol for v in values)


class TestCirculantSpectrum:
    def test_ring4_asymmetric_first_eigenvalue(self):
        row = circulant_row(ring(4, 0.5))
        spec = circulant_spectrum(row)
        assert spec.values[1] == pytest.approx(1 + 0.5j, abs=1e-12)
        assert spec.values[1] == pytest.approx(dft_by_hand(row.entries, 1), abs=1e-12)

    def test_zero_row_sum_gives_zero_mode(self):
        row = circulant_row(r_nearest_ring(10, 3, 0.7))
        spec = circulant_spectrum(row)
        assert abs(spec.values[0]) < 1e-12

    def test_ring5_symmetric_real(self):
        spec = circulant_spectrum(circulant_row(ring(5, 0.0)))
        expected = 1 - math.cos(2 * math.pi / 5)
        assert spec.values[1] == pytest.approx(expected, abs=1e-12)
        assert abs(spec.values[1].imag) < 1e-12

    def test_cap(self):
        with pytest.raises(SizeError):
            circulant_spectrum(circulant_row(ring(50, 0.0)), cap=10)

    @given(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_zero_sum_row_properties(self, tail):
        # force the zero row sum of a Laplacian-like circulant
        entries = np.array([-sum(tail)] + tail)
        spec = circulant_spectrum(CirculantRow(entries=entries))
        values = spec.values
        scale = max(1.0, np.abs(entries).sum())
        assert abs(values[0]) < 1e-9 * scale
        # real first row: spectrum closed under conjugation
        assert conjugation_closed(values, tol=1e-9 * scale)
        # trace identity
        assert values.sum() == pytest.approx(len(entries) * entries[0], abs=1e-8)

    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_subnormal=False), min_size=3, max_size=40
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_index_order_matches_summation(self, entries):
        # eigenvalue j must be sum_l entries[l] w**(l*j), not its
        # conjugate at index -j, which the closure and trace checks
        # above cannot tell apart
        values = circulant_spectrum(CirculantRow(entries=np.array(entries))).values
        tol = 1e-9 * sum(abs(e) for e in entries)
        for j in range(len(entries)):
            assert abs(values[j] - dft_by_hand(entries, j)) <= tol


class TestClosedEigenvalue:
    def test_matches_direct_summation(self):
        model = ring(4, 0.5)
        ev = closed_eigenvalue(model, 1)
        oracle = dft_by_hand(circulant_row(model).entries, 1)
        assert ev.value == pytest.approx(oracle, abs=1e-12)
        assert ev.value == pytest.approx(1 + 0.5j, abs=1e-12)

    def test_torus_antipodal_real(self):
        ev = closed_eigenvalue(torus((4, 4), 0.0), (2, 2))
        assert ev.value == pytest.approx(4.0, abs=1e-12)

    def test_rnearest_matches_oracle(self):
        model = r_nearest_ring(6, 2, 0.0)
        ev = closed_eigenvalue(model, 2)
        oracle = dft_by_hand(circulant_row(model).entries, 2)
        assert ev.value == pytest.approx(oracle, abs=1e-12)
        assert ev.value == pytest.approx(3.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            closed_eigenvalue(ring(4, 0.0), 4)
        with pytest.raises(IndexError):
            closed_eigenvalue(torus((3, 3), 0.0), (1, 3))

    @pytest.mark.parametrize(
        "model", [ring(7, 0.6), r_nearest_ring(11, 3, 0.9), torus((3, 4), 0.5)]
    )
    def test_scalar_and_vectorized_paths_agree(self, model):
        spec = full_spectrum(model)
        for pos in range(len(spec)):
            ev = closed_eigenvalue(model, spec.index_tuple(pos))
            assert ev.value == pytest.approx(spec.values[pos], abs=1e-13)


class TestFullSpectrum:
    def test_ring4_symmetric_values(self):
        spec = full_spectrum(ring(4, 0.0))
        assert np.allclose(spec.values, [0.0, 1.0, 2.0, 1.0], atol=1e-12)

    def test_torus44_cartesian(self):
        spec = full_spectrum(torus((4, 4), 0.0), source=SpectrumSource.CARTESIAN_SUM)
        assert len(spec) == 16
        assert np.max(spec.values.real) == pytest.approx(4.0, abs=1e-12)
        assert np.sum(np.abs(spec.values) < 1e-9) == 1

    def test_oracle_equals_closed(self):
        closed = full_spectrum(ring(4, 0.5), source=SpectrumSource.CLOSED_FORM)
        oracle = full_spectrum(ring(4, 0.5), source=SpectrumSource.DFT_ORACLE)
        assert np.allclose(closed.values, oracle.values, atol=1e-12)

    def test_cartesian_rejected_for_ring(self):
        with pytest.raises(TopologyError):
            full_spectrum(ring(4, 0.0), source=SpectrumSource.CARTESIAN_SUM)

    def test_index_tuples(self):
        spec = full_spectrum(torus((3, 4), 0.2))
        assert spec.index_tuple(0) == (0, 0)
        assert spec.index_tuple(4) == (1, 0)
        assert spec.eigenvalue(5).index == (1, 1)


class TestSpectrumInvariants:
    @pytest.mark.parametrize("a", [0.0, 0.4, 1.0])
    def test_exactly_one_zero_and_conjugation(self, a):
        for model in [ring(9, a), r_nearest_ring(12, 4, a), torus((3, 5), a)]:
            values = full_spectrum(model).values
            assert np.sum(np.abs(values) < 1e-9) == 1
            assert conjugation_closed(values)
            assert np.all(values.real >= -1e-12)

    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_trace_identity(self, a):
        cases = [
            (ring(17, a), 17 * 1.0),
            (r_nearest_ring(20, 5, a), 20 * 5.0),
            (torus((4, 5), a), 20 * 2.0),
            (torus((3, 3, 3), a), 27 * 3.0),
        ]
        for model, expected in cases:
            assert full_spectrum(model).values.sum() == pytest.approx(expected, abs=1e-9)

    def test_dirichlet_kernel_identity(self):
        # closed-form shortcut for the partial cosine sum, checked
        # against term-by-term summation
        for n in (8, 11, 25, 64):
            for r in (1, 2, 5):
                for j in range(1, n):
                    direct = sum(math.cos(2 * math.pi * j * k / n) for k in range(1, r + 1))
                    kernel = math.sin((2 * r + 1) * math.pi * j / n) / (
                        2 * math.sin(math.pi * j / n)
                    ) - 0.5
                    assert direct == pytest.approx(kernel, abs=1e-10)

    def test_imaginary_part_scales_linearly_in_a(self):
        for model_fn in (lambda a: ring(10, a), lambda a: r_nearest_ring(14, 3, a), lambda a: torus((4, 5), a)):
            v4 = full_spectrum(model_fn(0.4)).values
            v8 = full_spectrum(model_fn(0.8)).values
            assert np.allclose(v8.imag, 2.0 * v4.imag, atol=1e-12)
            assert np.allclose(v8.real, v4.real, atol=1e-12)

    def test_oracle_equivalence_sample(self):
        # the full grid runs in the acceptance suite; here a spot sample
        for a in (0.0, 0.3, 1.0):
            for model in [ring(13, a), r_nearest_ring(17, 4, a), torus((5, 8), a)]:
                closed = full_spectrum(model, source=SpectrumSource.CLOSED_FORM).values
                oracle = full_spectrum(model, source=SpectrumSource.DFT_ORACLE).values
                assert np.max(np.abs(closed - oracle)) < 1e-10


class TestExtremalPair:
    def test_ring4_pair(self):
        pair = extremal_pair(full_spectrum(ring(4, 0.5)))
        assert pair.lambda_s.value == pytest.approx(1 + 0.5j, abs=1e-12)
        assert pair.lambda_s.index == (1,)
        assert pair.lambda_l.value == pytest.approx(2.0, abs=1e-12)
        assert pair.lambda_l.index == (2,)

    def test_rnearest_pair(self):
        pair = extremal_pair(full_spectrum(r_nearest_ring(6, 2, 0.0)))
        assert pair.lambda_s.value == pytest.approx(2.0, abs=1e-12)
        assert pair.lambda_l.value == pytest.approx(3.0, abs=1e-12)

    def test_rnearest_real_part_tie_takes_constraining_member(self):
        # at n = 2r + 2 the slow index ties the half index in real part;
        # the complex member is the one that constrains the design
        pair = extremal_pair(full_spectrum(r_nearest_ring(6, 2, 0.5)))
        assert pair.lambda_s.index == (1,)
        assert pair.lambda_s.im == pytest.approx(0.5 * math.sqrt(3), abs=1e-12)

    def test_odd_torus_takes_half_indices(self):
        pair = extremal_pair(full_spectrum(torus((5, 5), 0.3)))
        assert pair.lambda_l.index == (2, 2)
        pair2 = extremal_pair(full_spectrum(torus((3, 5), 0.3)))
        assert pair2.lambda_l.index == (1, 2)
        # slow index sits on the larger dimension
        assert pair2.lambda_s.index == (0, 1)

    def test_conjugate_tie_prefers_smaller_index(self):
        pair = extremal_pair(full_spectrum(ring(8, 0.6)))
        assert pair.lambda_s.index == (1,)
        assert pair.lambda_s.im > 0

    def test_triangle_ring_degenerate(self):
        with pytest.raises(DegenerateError):
            extremal_pair(full_spectrum(ring(3, 0.0)))
        with pytest.raises(DegenerateError):
            extremal_pair(full_spectrum(ring(3, 0.7)))

    def test_lambda_l_dominates_real_part(self):
        for a in A_GRID:
            for model in (ring(12, a), r_nearest_ring(15, 4, a), torus((4, 8), a)):
                pair = extremal_pair(full_spectrum(model))
                assert pair.lambda_l.re >= pair.lambda_s.re
                assert abs(pair.lambda_s.value) > 0


class TestExports:
    def test_csv_shape(self):
        text = spectrum_to_csv(full_spectrum(ring(4, 0.0)))
        lines = text.strip().split("\n")
        assert lines[0] == "index;re;im"
        assert len(lines) == 5
        res = [float(line.split(";")[1]) for line in lines[1:]]
        assert res == pytest.approx([0.0, 1.0, 2.0, 1.0], abs=1e-12)

    def test_csv_multi_index(self):
        text = spectrum_to_csv(full_spectrum(torus((3, 3), 0.0)))
        assert "1|0;" in text

    def test_json_records(self):
        records = json.loads(spectrum_to_json(full_spectrum(torus((3, 3), 0.5))))
        assert len(records) == 9
        assert records[0] == {"index": [0, 0], "re": 0.0, "im": 0.0}
        assert set(records[4]) == {"index", "re", "im"}
