import cmath
import dataclasses
import json
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consensus_spectra import (
    DegenerateError,
    Kind,
    SpectrumSource,
    circulant_row,
    circulant_spectrum,
    closed_values,
    extremal_pair,
    factor_extremal_pair,
    full_spectrum,
    r_nearest_ring,
    ring,
    spectrum_to_csv,
    spectrum_to_json,
    torus,
)
from consensus_spectra import spectral
from conftest import A_GRID, grid_models


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
        values = circulant_spectrum(row)
        assert values[1] == pytest.approx(1 + 0.5j, abs=1e-12)
        assert values[1] == pytest.approx(dft_by_hand(row, 1), abs=1e-12)

    def test_zero_row_sum_gives_zero_mode(self):
        row = circulant_row(r_nearest_ring(10, 3, 0.7))
        values = circulant_spectrum(row)
        assert abs(values[0]) < 1e-12

    def test_ring5_symmetric_real(self):
        values = circulant_spectrum(circulant_row(ring(5, 0.0)))
        expected = 1 - math.cos(2 * math.pi / 5)
        assert values[1] == pytest.approx(expected, abs=1e-12)
        assert abs(values[1].imag) < 1e-12

    def test_large_ring_matches_closed_form(self):
        # the oracle is O(n log n) and has no size cap
        model = ring(20000, 0.3)
        values = circulant_spectrum(circulant_row(model))
        assert np.max(np.abs(values - closed_values(model))) <= 1e-9

    @given(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_zero_sum_row_properties(self, tail):
        # force the zero row sum of a Laplacian-like circulant
        entries = np.array([-sum(tail)] + tail)
        values = circulant_spectrum(entries)
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
        values = circulant_spectrum(np.array(entries))
        tol = 1e-9 * sum(abs(e) for e in entries)
        for j in range(len(entries)):
            assert abs(values[j] - dft_by_hand(entries, j)) <= tol


class TestClosedValues:
    def test_matches_direct_summation(self):
        model = ring(4, 0.5)
        value = closed_values(model)[1]
        oracle = dft_by_hand(circulant_row(model), 1)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(1 + 0.5j, abs=1e-12)

    def test_torus_antipodal_real(self):
        # index (2, 2) of the 4x4 grid, dimension 1 slowest
        assert closed_values(torus((4, 4), 0.0))[2 * 4 + 2] == pytest.approx(4.0, abs=1e-12)

    def test_rnearest_matches_oracle(self):
        model = r_nearest_ring(6, 2, 0.0)
        value = closed_values(model)[2]
        oracle = dft_by_hand(circulant_row(model), 2)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(3.0, abs=1e-12)


def ring_factor_as_written(n, a):
    """The ring's closed form as a separate expression:
    1 - cos(2 pi j / n) + 1j * a * sin(2 pi j / n)."""
    angle = 2.0 * np.pi * np.arange(n) / n
    return (1.0 - np.cos(angle)) + 1j * a * np.sin(angle)


class TestRingFactor:
    """A ring side is the r = 1 r-nearest factor, bit for bit the ring's
    own closed form."""

    @pytest.mark.parametrize("n", list(range(3, 61)) + [65_537, 300_000])
    def test_ring_and_torus_sides(self, n):
        for a in (0.0, 0.3, 1.0):
            factor = ring_factor_as_written(n, a)
            assert full_spectrum(ring(n, a)).values.tobytes() == factor.tobytes()
            composed = (factor[:, None] + ring_factor_as_written(3, a)[None, :]).ravel()
            assert full_spectrum(torus((n, 3), a)).values.tobytes() == composed.tobytes()


def oracle_by_sides(model):
    """The DFT oracle as per-side ring spectra (one row for a 1-D kind),
    summed over the index grid with dimension 1 slowest."""
    if model.kind is Kind.R_NEAREST_RING:
        return circulant_spectrum(circulant_row(model))
    sides = [circulant_spectrum(circulant_row(ring(k, model.a))) for k in model.shape]
    return reduce(lambda acc, nxt: np.add.outer(acc, nxt).ravel(), sides)


class TestOracleFactors:
    @pytest.mark.parametrize(
        "model",
        [
            ring(9, 0.3),
            r_nearest_ring(14, 3, 0.7),
            r_nearest_ring(9, 1, 0.2),
            torus((3, 4), 0.6),
            torus((3, 4, 5), 0.3),
            torus((8, 3), 1.0),
        ],
        ids=["ring", "rnearest", "rnearest-r1", "torus3x4", "torus3x4x5", "torus8x3"],
    )
    def test_bit_identical_to_per_side_rings(self, model):
        values = full_spectrum(model, SpectrumSource.DFT_ORACLE).values
        assert values.tobytes() == oracle_by_sides(model).tobytes()

    def test_ring_shares_the_radius_one_rnearest_candidates(self):
        # a ring and the r = 1 r-nearest ring have the same factors, so the
        # ring's pair is a cache hit on the r-nearest ring's candidates
        spectral._closed_candidates.cache_clear()
        first = factor_extremal_pair(r_nearest_ring(9, 1, 0.3))
        before = spectral._closed_candidates.cache_info()
        pair = factor_extremal_pair(ring(9, 0.3))
        after = spectral._closed_candidates.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        assert pair_bits(lambda: pair) == pair_bits(lambda: first)
        assert pair_bits(lambda: pair) == pair_bits(lambda: extremal_pair(full_spectrum(ring(9, 0.3))))


class TestFullSpectrum:
    def test_ring4_symmetric_values(self):
        spec = full_spectrum(ring(4, 0.0))
        assert np.allclose(spec.values, [0.0, 1.0, 2.0, 1.0], atol=1e-12)

    def test_torus44_cartesian(self):
        # the torus oracle composes per-ring oracle spectra over the grid
        spec = full_spectrum(torus((4, 4), 0.0), source=SpectrumSource.DFT_ORACLE)
        assert spec.source is SpectrumSource.DFT_ORACLE
        assert len(spec) == 16
        assert np.max(spec.values.real) == pytest.approx(4.0, abs=1e-12)
        assert np.sum(np.abs(spec.values) < 1e-9) == 1

    def test_oracle_equals_closed(self):
        closed = full_spectrum(ring(4, 0.5), source=SpectrumSource.CLOSED_FORM)
        oracle = full_spectrum(ring(4, 0.5), source=SpectrumSource.DFT_ORACLE)
        assert np.allclose(closed.values, oracle.values, atol=1e-12)

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


def pair_bits(pair_of):
    """(re, im, index) of both pair members with exact float bits, or the
    DegenerateError the selection raised."""
    try:
        pair = pair_of()
    except DegenerateError:
        return "DegenerateError"
    return tuple((ev.re.hex(), ev.im.hex(), ev.index) for ev in (pair.lambda_s, pair.lambda_l))


def assert_pair_matches_the_scan(model, source=SpectrumSource.CLOSED_FORM):
    """The closed-form pair against the scan of ``source``'s spectrum: bit
    for bit on the closed form; on the DFT oracle, whose values differ in
    their last bits, the same indices with values within 1e-12."""
    got = pair_bits(lambda: factor_extremal_pair(model))
    want = pair_bits(lambda: extremal_pair(full_spectrum(model, source)))
    if source is SpectrumSource.CLOSED_FORM or "DegenerateError" in (got, want):
        assert got == want, model
        return
    for (re, im, index), (oracle_re, oracle_im, oracle_index) in zip(got, want):
        assert index == oracle_index, model
        assert float.fromhex(re) == pytest.approx(float.fromhex(oracle_re), abs=1e-12), model
        assert float.fromhex(im) == pytest.approx(float.fromhex(oracle_im), abs=1e-12), model


@st.composite
def tori_with_a_long_side(draw):
    """2- to 5-D tori of at most ~1.2M nodes, one side up to 3e5 so that
    real parts within 1e-9 of an extreme span several indices."""
    sides = draw(st.lists(st.integers(3, 9), min_size=2, max_size=5))
    if draw(st.booleans()):
        room = 1_200_000 // math.prod(sides[1:])
        sides[0] = draw(st.integers(3, max(3, min(300_000, room))))
    turn = draw(st.integers(0, len(sides) - 1))
    a = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return torus(tuple(sides[turn:] + sides[:turn]), a)


class TestFactorExtremalPair:
    """The per-factor selection reproduces the full-spectrum scan bit for
    bit, including which member of a tie it takes, and picks the same
    members as the scan of the DFT oracle's spectrum."""

    @pytest.mark.parametrize("source", list(SpectrumSource))
    def test_matches_the_scan_on_the_grid(self, source):
        for model in (m for a in A_GRID for m in grid_models(a)):
            assert_pair_matches_the_scan(model, source)

    @given(tori_with_a_long_side())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_scan_on_tori(self, model):
        assert pair_bits(lambda: factor_extremal_pair(model)) == pair_bits(
            lambda: extremal_pair(full_spectrum(model))
        )

    @pytest.mark.parametrize("source", list(SpectrumSource))
    @pytest.mark.parametrize("a", [0.0, 0.3, 1.0])
    def test_ties_spanning_several_indices(self, source, a):
        model = torus((299_999, 3), a)
        re = full_spectrum(model, source).values[1:].real
        assert np.sum(re <= re.min() + 1e-9) >= 4
        assert np.sum(re >= re.max() - 1e-9) >= 8
        assert_pair_matches_the_scan(model, source)

    @pytest.mark.parametrize("dims", [(89, 5), (5, 89), (89, 89, 3), (4, 89, 6, 3)])
    def test_oracle_factors_with_a_nonzero_consensus_value(self, dims):
        # the oracle's index-0 value of the 89-ring is not exactly 0; its
        # scan still skips flat position 0 and picks the closed-form pair
        for a in A_GRID:
            assert circulant_spectrum(circulant_row(ring(89, a)))[0] != 0
            assert_pair_matches_the_scan(torus(dims, a), SpectrumSource.DFT_ORACLE)


# a = 0 and 1, and two values at which every |Im| difference falls under
# the 1e-9 tie tolerance, so the pick falls back to the smallest index
TIE_A = (0.0, 1e-12, 1e-10, 1.0)


@st.composite
def topologies(draw):
    """A ring (up to 3e5 nodes, where the real parts within 1e-9 of an
    extreme span several indices), an r-nearest ring down to n = 2r + 2,
    or a 2- to 5-D torus; its a is replaced by each caller."""
    kind = draw(st.sampled_from(["ring", "rnearest", "torus"]))
    if kind == "ring":
        return ring(draw(st.one_of(st.integers(3, 64), st.integers(3, 300_000))))
    if kind == "rnearest":
        r = draw(st.integers(1, 12))
        span = draw(st.sampled_from([10, 5_000]))
        return r_nearest_ring(draw(st.integers(2 * r + 2, 2 * r + 2 + span)), r)
    return draw(tori_with_a_long_side())


class TestPickPerA:
    """A topology's candidates are selected once; each a picks among them
    with extremal_pair's tie rule, and no pick outlives its a."""

    @given(topologies())
    @settings(max_examples=40, deadline=None)
    def test_every_a_matches_the_scan(self, topology):
        for a in TIE_A:
            model = dataclasses.replace(topology, a=a)
            assert pair_bits(lambda: factor_extremal_pair(model)) == pair_bits(
                lambda: extremal_pair(full_spectrum(model))
            ), a

    @given(topologies(), st.sampled_from(TIE_A), st.sampled_from(TIE_A))
    @settings(max_examples=40, deadline=None)
    def test_warm_topology_at_a_second_a_equals_cold(self, topology, first, second):
        model = dataclasses.replace(topology, a=second)
        spectral._closed_candidates.cache_clear()
        cold = pair_bits(lambda: factor_extremal_pair(model))
        spectral._closed_candidates.cache_clear()
        pair_bits(lambda: factor_extremal_pair(dataclasses.replace(topology, a=first)))
        assert pair_bits(lambda: factor_extremal_pair(model)) == cold

    def test_a_decides_the_tie_break(self):
        # ring(300_000) has lambda_s candidates j = 1, 2, n - 2, n - 1; at
        # a = 1 their |Im| differ by more than the tolerance and j = 2 wins
        picks = {a: factor_extremal_pair(ring(300_000, a)).lambda_s.index for a in TIE_A}
        assert picks == {0.0: (1,), 1e-12: (1,), 1e-10: (1,), 1.0: (2,)}


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


def per_record_csv(spectrum):
    """The CSV export as one record per eigenvalue, the reference for the
    array-based serializer."""
    lines = ["index;re;im"]
    for pos in range(len(spectrum)):
        ev = spectrum.eigenvalue(pos)
        lines.append(f"{'|'.join(str(c) for c in ev.index)};{ev.re!r};{ev.im!r}")
    return "\n".join(lines) + "\n"


def per_record_json(spectrum):
    evs = (spectrum.eigenvalue(pos) for pos in range(len(spectrum)))
    records = [{"index": list(ev.index), "re": ev.re, "im": ev.im} for ev in evs]
    return json.dumps(records, indent=2) + "\n"


@pytest.mark.parametrize("source", list(SpectrumSource))
class TestExportsMatchPerRecord:
    @pytest.mark.parametrize(
        "model",
        [ring(9, 0.3), r_nearest_ring(14, 3, 0.7), torus((3, 4, 5), 0.6)],
        ids=lambda m: m.kind.value,
    )
    def test_byte_identical(self, model, source):
        spectrum = full_spectrum(model, source)
        assert spectrum_to_csv(spectrum) == per_record_csv(spectrum)
        assert spectrum_to_json(spectrum) == per_record_json(spectrum)

    def test_negative_zero_imaginary_parts(self, source):
        # no model spectrum on the test grid holds a -0.0 imaginary part,
        # so one is made by conjugation; the exports must keep its sign
        spectrum = full_spectrum(ring(8, 0.5), source)
        spectrum = dataclasses.replace(spectrum, values=spectrum.values.conj())
        assert ";-0.0" in per_record_csv(spectrum)
        assert spectrum_to_csv(spectrum) == per_record_csv(spectrum)
        assert spectrum_to_json(spectrum) == per_record_json(spectrum)
