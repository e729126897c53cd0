import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from consensus_spectra import (
    DEFAULT_DENSE_CAP,
    Kind,
    NetworkModel,
    ParameterError,
    SizeError,
    TopologyError,
    circulant_row,
    dense_laplacian,
    design_pipeline,
    format_model,
    parse_model,
    r_nearest_ring,
    ring,
    rows_to_jsonl,
    sweep,
    torus,
    validate,
)


class TestValidate:
    def test_ring_ok(self):
        m = NetworkModel(Kind.RING, a=0.5, n=4)
        assert validate(m) is m

    def test_rnearest_needs_disjoint_arcs(self):
        # n = 6 < 2r + 1 = 7: the arcs overlap, which is not the complete graph
        with pytest.raises(ParameterError, match="disjoint"):
            validate(NetworkModel(Kind.R_NEAREST_RING, a=0.0, n=6, r=3))

    def test_a_out_of_range(self):
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            validate(NetworkModel(Kind.RING, a=1.2, n=4))

    def test_complete_graph_rejected_with_hint(self):
        # n = 2r + 1 makes every node adjacent to every other
        with pytest.raises(ParameterError, match="complete graph"):
            validate(NetworkModel(Kind.R_NEAREST_RING, a=0.0, n=7, r=3))

    def test_small_ring_rejected(self):
        with pytest.raises(ParameterError):
            validate(NetworkModel(Kind.RING, a=0.0, n=2))

    def test_torus_side_floor(self):
        with pytest.raises(ParameterError, match="k_2"):
            validate(NetworkModel(Kind.TORUS, a=0.0, dims=(4, 2)))

    def test_torus_needs_two_dims(self):
        with pytest.raises(ParameterError):
            validate(NetworkModel(Kind.TORUS, a=0.0, dims=(5,)))

    def test_one_directional_ring_allowed(self):
        assert validate(NetworkModel(Kind.RING, a=1.0, n=8)).a == 1.0

    def test_kind_must_be_a_kind(self):
        # the grammar's name is not the enum member
        with pytest.raises(ParameterError, match="^unknown kind 'ring'$"):
            NetworkModel(kind="ring", a=0.0, n=5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: NetworkModel(Kind.RING, a=0.3, n=12, r=3),
            lambda: NetworkModel(Kind.RING, a=0.3, n=12, dims=(3, 4)),
            lambda: NetworkModel(Kind.R_NEAREST_RING, a=0.3, n=12, r=3, dims=(3, 4)),
            lambda: NetworkModel(Kind.TORUS, a=0.3, dims=(3, 4), r=1),
            lambda: NetworkModel(Kind.TORUS, a=0.3, dims=(3, 4), n=12),
        ],
        ids=["ring-r", "ring-dims", "rnearest-dims", "torus-r", "torus-n"],
    )
    def test_size_field_of_another_kind_rejected(self, build):
        # the models are built inside the test: building one raises
        with pytest.raises(ParameterError, match="takes no"):
            validate(build())

    @pytest.mark.parametrize(
        "fields,build,spec,message",
        [
            (
                # n = 5, r = 2 is the complete graph, reported as such
                dict(kind=Kind.R_NEAREST_RING, a=0.0, n=5, r=2),
                lambda: r_nearest_ring(5, 2, 0.0),
                "rnearest:n=5,r=2,a=0.0",
                "n = 2r + 1 = 5 makes every node adjacent to every other (a complete graph); "
                "model it densely and use the generic pipeline instead",
            ),
            (
                dict(kind=Kind.R_NEAREST_RING, a=0.0, n=6, r=3),
                lambda: r_nearest_ring(6, 3, 0.0),
                "rnearest:n=6,r=3,a=0.0",
                "r-nearest ring needs n >= 2r + 2 = 8 so the two neighbor arcs stay disjoint, got n=6",
            ),
            (
                dict(kind=Kind.RING, a=1.2, n=4),
                lambda: ring(4, 1.2),
                "ring:n=4,a=1.2",
                "asymmetric factor a=1.2 outside [0, 1]",
            ),
            (
                dict(kind=Kind.R_NEAREST_RING, a=0.0, n=7, r=3),
                lambda: r_nearest_ring(7, 3, 0.0),
                "rnearest:n=7,r=3,a=0.0",
                "n = 2r + 1 = 7 makes every node adjacent to every other (a complete graph); "
                "model it densely and use the generic pipeline instead",
            ),
            (
                dict(kind=Kind.RING, a=0.0, n=2),
                lambda: ring(2, 0.0),
                "ring:n=2,a=0.0",
                "ring needs integer n >= 3, got n=2",
            ),
            (
                dict(kind=Kind.TORUS, a=0.0, dims=(4, 2)),
                lambda: torus((4, 2), 0.0),
                "torus:dims=4x2,a=0.0",
                "torus needs every k_i an integer >= 3, got k_2=2",
            ),
            (
                dict(kind=Kind.TORUS, a=0.0, dims=(5,)),
                lambda: torus((5,), 0.0),
                # the grammar cannot spell a one-sided torus
                None,
                "torus needs at least 2 dimensions, got dims=(5,)",
            ),
        ],
        ids=[
            "rnearest-n5-r2",
            "rnearest-arcs",
            "a-range",
            "complete-graph",
            "small-ring",
            "torus-side",
            "torus-one-dim",
        ],
    )
    def test_every_route_builds_through_validate(self, fields, build, spec, message):
        # construction, dataclasses.replace, the wrappers and the grammar all
        # raise validate's message: no route builds an invalid model
        valid = {
            Kind.RING: ring(8, 0.5),
            Kind.R_NEAREST_RING: r_nearest_ring(12, 3, 0.5),
            Kind.TORUS: torus((3, 4), 0.5),
        }[fields["kind"]]
        routes = [
            lambda: NetworkModel(**fields),
            lambda: dataclasses.replace(valid, **fields),
            build,
        ]
        if spec is not None:
            routes.append(lambda: parse_model(spec))
        for route in routes:
            with pytest.raises(ParameterError) as raised:
                route()
            assert str(raised.value) == message

    def test_grammar_reports_a_stray_field_before_the_constraint_it_breaks(self):
        # ring:n=2 alone breaks n >= 3; the stray r is named first
        with pytest.raises(ParameterError, match=r"unexpected fields \['r'\]"):
            parse_model("ring:n=2,a=0.3,r=1")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ring(4, True),
            lambda: ring(True),
            lambda: r_nearest_ring(14, True),
            lambda: r_nearest_ring(14, 3, False),
            lambda: torus((3, True)),
            lambda: validate(NetworkModel(Kind.RING, a=0.0, n=np.bool_(True))),
        ],
        ids=["ring-a", "ring-n", "rnearest-r", "rnearest-a", "torus-side", "numpy-bool-n"],
    )
    def test_bool_rejected(self, build):
        with pytest.raises(ParameterError):
            build()

    @pytest.mark.parametrize("int_type", [np.int64, np.int32, np.uint16])
    @pytest.mark.parametrize(
        "build",
        [
            lambda i: ring(i(8), 0.3),
            lambda i: r_nearest_ring(i(14), i(3), 0.3),
            lambda i: torus((i(4), i(6)), 0.3),
        ],
        ids=["ring", "rnearest", "torus"],
    )
    def test_numpy_integers_design_like_python_ints(self, build, int_type):
        model = build(int_type)
        reference = build(int)
        assert model == reference
        assert design_pipeline(model) == design_pipeline(reference)
        # sizes are stored as Python ints, so rows serialize to JSON
        assert rows_to_jsonl(sweep(model, {"a": [0.5]})) == rows_to_jsonl(sweep(reference, {"a": [0.5]}))

    @pytest.mark.parametrize("int_type", [np.int64, np.uint8])
    def test_validate_accepts_numpy_integers(self, int_type):
        model = NetworkModel(Kind.R_NEAREST_RING, a=0.5, n=int_type(14), r=int_type(3))
        assert validate(model) is model
        assert type(model.n) is int and type(model.r) is int


class TestFactors:
    """A model is the Cartesian sum of its circulant factors (side, radius)."""

    @pytest.mark.parametrize(
        "model,factors",
        [
            (ring(8, 0.5), ((8, 1),)),
            (r_nearest_ring(12, 3, 0.5), ((12, 3),)),
            (r_nearest_ring(9, 1, 0.5), ((9, 1),)),
            (torus((3, 4), 0.5), ((3, 1), (4, 1))),
            (torus((5, 3, 4), 0.5), ((5, 1), (3, 1), (4, 1))),
        ],
        ids=["ring", "rnearest", "rnearest-r1", "torus2", "torus3"],
    )
    def test_factors_and_degree(self, model, factors):
        assert model.factors == factors
        # one factor per dimension of the index space
        assert tuple(side for side, _ in factors) == model.shape
        # the degree is 2 * sum of the radii, the diagonal entry half of it
        assert model.degree_weight == float(sum(r for _, r in factors))
        assert type(model.degree_weight) is float

    def test_factors_follow_replace(self):
        model = r_nearest_ring(12, 3, 0.5)
        assert model.factors == ((12, 3),)
        assert dataclasses.replace(model, r=2).factors == ((12, 2),)

    def test_factors_is_not_a_field(self):
        # set once when the model is built; equality, hashing and repr
        # read the fields alone
        model = torus((5, 3), 0.5)
        assert "factors" not in {f.name for f in dataclasses.fields(model)}
        assert "factors" not in repr(model)
        assert model == torus((5, 3), 0.5)
        assert hash(model) == hash(torus((5, 3), 0.5))


class TestCirculantRow:
    def test_ring_layout(self):
        row = circulant_row(ring(4, 0.5))
        assert row == pytest.approx([1.0, -0.25, 0.0, -0.75])

    def test_symmetric_ring(self):
        row = circulant_row(ring(5, 0.0))
        assert row == pytest.approx([1.0, -0.5, 0.0, 0.0, -0.5])

    def test_rnearest_layout(self):
        row = circulant_row(r_nearest_ring(6, 2, 0.0))
        assert row == pytest.approx([2.0, -0.5, -0.5, 0.0, -0.5, -0.5])

    def test_torus_rejected(self):
        with pytest.raises(TopologyError):
            circulant_row(torus((3, 3), 0.0))

    @pytest.mark.parametrize("n,r,a", [(8, 1, 0.3), (12, 3, 0.7), (10, 4, 1.0)])
    def test_zero_sum_and_degree(self, n, r, a):
        row = circulant_row(r_nearest_ring(n, r, a))
        assert row.sum() == pytest.approx(0.0, abs=1e-14)
        assert row[0] == r


def torus33_by_neighbor_enumeration(a: float) -> np.ndarray:
    """Independent assembly of the 3x3 torus Laplacian, walking each
    node's four neighbors with mixed-radix flat index 3*i + j."""
    lap = np.zeros((9, 9))
    fw, bw = (1.0 - a) / 2.0, (1.0 + a) / 2.0
    for i in range(3):
        for j in range(3):
            v = 3 * i + j
            lap[v, v] = 2.0
            lap[v, 3 * ((i + 1) % 3) + j] -= fw
            lap[v, 3 * ((i - 1) % 3) + j] -= bw
            lap[v, 3 * i + (j + 1) % 3] -= fw
            lap[v, 3 * i + (j - 1) % 3] -= bw
    return lap


def circulant_reference(side: int, radius: int, a: float) -> np.ndarray:
    """One factor's Laplacian entry by entry: radius on the diagonal, the
    negated forward weight at offsets +1..+radius, the negated backward
    weight at offsets -1..-radius."""
    lap = np.zeros((side, side))
    for i in range(side):
        lap[i, i] = float(radius)
        for k in range(1, radius + 1):
            lap[i, (i + k) % side] = (-1.0 + a) / 2.0
            lap[i, (i - k) % side] = (-1.0 - a) / 2.0
    return lap


def kronecker_sum_reference(factors, a: float) -> np.ndarray:
    """L_1 (+) L_2 (+) ..., dimension 1 slowest: L (x) I + I (x) L_next."""
    mat = circulant_reference(*factors[0], a)
    for side, radius in factors[1:]:
        nxt = circulant_reference(side, radius, a)
        mat = np.kron(mat, np.eye(side)) + np.kron(np.eye(mat.shape[0]), nxt)
    return mat


class TestDenseLaplacian:
    @pytest.mark.parametrize(
        "model,factors",
        [
            (ring(7, 0.4), [(7, 1)]),
            (r_nearest_ring(11, 3, 0.9), [(11, 3)]),
            (torus((3, 4), 0.6), [(3, 1), (4, 1)]),
            (torus((3, 4, 5), 0.3), [(3, 1), (4, 1), (5, 1)]),
            (torus((4, 3), 1.0), [(4, 1), (3, 1)]),
        ],
        ids=["ring", "rnearest", "torus3x4", "torus3x4x5", "torus4x3-a1"],
    )
    def test_bit_identical_to_the_kronecker_sum(self, model, factors):
        assert dense_laplacian(model).tobytes() == kronecker_sum_reference(factors, model.a).tobytes()

    def test_symmetric_ring4(self):
        lap = dense_laplacian(ring(4, 0.0))
        assert np.allclose(np.diag(lap), 1.0)
        for i in range(4):
            assert lap[i, (i + 1) % 4] == pytest.approx(-0.5)
            assert lap[i, (i - 1) % 4] == pytest.approx(-0.5)

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
    def test_torus33_matches_neighbor_enumeration(self, a):
        lap = dense_laplacian(torus((3, 3), a))
        assert np.allclose(lap, torus33_by_neighbor_enumeration(a), atol=1e-15)

    @pytest.mark.parametrize("model", [ring(4, 0.5), r_nearest_ring(9, 3, 0.4)])
    def test_one_dimensional_rows_are_cyclic_shifts(self, model):
        lap = dense_laplacian(model)
        row = circulant_row(model)
        for i in range(model.n):
            assert np.allclose(lap[i], np.roll(row, i), atol=1e-15)

    @pytest.mark.parametrize(
        "model",
        [ring(7, 0.4), r_nearest_ring(11, 3, 0.9), torus((3, 4), 0.6), torus((3, 3, 4), 0.2)],
    )
    def test_row_and_column_sums_vanish(self, model):
        lap = dense_laplacian(model)
        assert np.max(np.abs(lap.sum(axis=0))) < 1e-12
        assert np.max(np.abs(lap.sum(axis=1))) < 1e-12

    @pytest.mark.parametrize("model", [ring(9, 0.0), r_nearest_ring(12, 4, 0.0), torus((4, 5), 0.0)])
    def test_symmetric_when_a_zero(self, model):
        lap = dense_laplacian(model)
        assert np.max(np.abs(lap - lap.T)) < 1e-15

    def test_torus_diagonal_is_dimension(self):
        lap = dense_laplacian(torus((3, 4, 3), 0.3))
        assert np.allclose(np.diag(lap), 3.0)

    @pytest.mark.parametrize(
        "model", [torus((40, 40), 0.3), r_nearest_ring(1600, 8, 0.3)], ids=format_model
    )
    def test_peak_memory_is_the_result(self, model):
        # built in the one result array: no Kronecker term, sum or index
        # matrix of the result's size is held beside it
        tracemalloc.start()
        try:
            lap = dense_laplacian(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * lap.nbytes

    def test_dense_cap(self):
        # raised before the order**2 matrix is allocated
        with pytest.raises(SizeError):
            dense_laplacian(ring(DEFAULT_DENSE_CAP + 1, 0.0))

    def test_order(self):
        assert dense_laplacian(torus((3, 4), 0.0)).shape == (12, 12)


class TestModelGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "ring:n=4,a=0.5",
            "rnearest:n=12,r=3,a=0.25",
            "torus:dims=3x4x5,a=0.0",
        ],
    )
    def test_round_trip(self, text):
        model = parse_model(text)
        assert parse_model(format_model(model)) == model

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ring(8, -0.0),
            lambda: parse_model("rnearest:n=8,r=2,a=-0.0"),
            lambda: torus((3, 4), np.float64(-0.0)),
        ],
    )
    def test_negative_zero_a_is_stored_as_zero(self, build):
        model = build()
        assert math.copysign(1.0, model.a) == 1.0
        assert format_model(model).endswith(",a=0.0")

    def test_parse_values(self):
        m = parse_model("rnearest:n=12,r=3,a=0.25")
        assert (m.kind, m.n, m.r, m.a) == (Kind.R_NEAREST_RING, 12, 3, 0.25)

    @pytest.mark.parametrize(
        "bad",
        [
            "lattice:n=4,a=0",
            "ring:n=4",
            "ring:n=four,a=0.5",
            "torus:dims=4,a=0.1",
            "ring:n=4,a=0.5,z=2",
            "ring:n=2,a=0.0",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParameterError):
            parse_model(bad)

    def test_field_without_equals_named(self):
        with pytest.raises(ParameterError, match="malformed field 'n8'"):
            parse_model("ring:n8,a=0.3")

    def test_empty_fields_skipped(self):
        assert parse_model("ring:n=8,,a=0.3") == ring(8, 0.3)

    @given(
        st.integers(min_value=3, max_value=200),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_ring_round_trip_any_params(self, n, a):
        model = ring(n, a)
        assert parse_model(format_model(model)) == model
