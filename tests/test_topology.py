import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from consensus_spectra import (
    Kind,
    NetworkModel,
    ParameterError,
    design_pipeline,
    format_model,
    parse_model,
    r_nearest_ring,
    ring,
    rows_to_csv,
    rows_to_jsonl,
    sweep,
    torus,
)
from consensus_spectra.topology import (
    _MAX_TABLE,
    FIELDS,
    factor_row,
    format_field,
    link_weights,
    parse_field,
    to_csv,
    to_json,
)
from conftest import A_GRID, grid_models, strict_json
from laplacian_reference import reference_laplacian

GRID = [model for a in A_GRID for model in grid_models(a)]

# (id, radius, the stored fields of a model whose first short side is
# ``side``, that side's name in the message): every spelling of a factor
SPELLINGS = [
    ("ring", 1, lambda side: dict(kind=Kind.RING, n=side), "n"),
    *[
        (f"rnearest-r{r}", r, lambda side, r=r: dict(kind=Kind.R_NEAREST_RING, n=side, r=r), "n")
        for r in range(1, 5)
    ],
    *[
        (
            f"torus-{m}d-axis{i + 1}",
            1,
            lambda side, m=m, i=i: dict(kind=Kind.TORUS, dims=tuple(side if j == i else 4 for j in range(m))),
            f"k_{i + 1}",
        )
        for m in (2, 3)
        for i in range(m)
    ],
]


def _reference_text(model):
    # the grammar's text, written out kind by kind
    a = repr(float(model.a))
    if model.kind is Kind.RING:
        return f"ring:n={model.n},a={a}"
    if model.kind is Kind.R_NEAREST_RING:
        return f"rnearest:n={model.n},r={model.r},a={a}"
    return f"torus:dims={'x'.join(map(str, model.dims))},a={a}"


class TestValidate:
    def test_ring_ok(self):
        assert NetworkModel(Kind.RING, a=0.5, n=4).factors == ((4, 1),)

    def test_rnearest_needs_disjoint_arcs(self):
        # n = 6 < 2r + 1 = 7: the two neighbor arcs overlap
        with pytest.raises(ParameterError, match="disjoint"):
            NetworkModel(Kind.R_NEAREST_RING, a=0.0, n=6, r=3)

    @pytest.mark.parametrize("a", [1.2, 2, np.int64(-1)], ids=["float", "int", "numpy-int"])
    def test_a_out_of_range(self, a):
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            NetworkModel(Kind.RING, a=a, n=4)

    @pytest.mark.parametrize(
        "a", [10**400, Fraction(10**400, 3), -(10**400)], ids=["int", "fraction", "negative-int"]
    )
    def test_a_beyond_the_float_range(self, a):
        # stored as the infinity of its sign, which the one a rule rejects
        with pytest.raises(ParameterError, match="^asymmetric factor a must be a finite real"):
            ring(4, a)

    def test_complete_graph_builds(self):
        # n = 2r + 1 makes every node adjacent to every other: the complete
        # digraph, whose two neighbor arcs are still disjoint
        m = NetworkModel(Kind.R_NEAREST_RING, a=0.0, n=7, r=3)
        assert m.factors == ((7, 3),)

    def test_small_ring_rejected(self):
        with pytest.raises(ParameterError):
            NetworkModel(Kind.RING, a=0.0, n=2)

    def test_torus_side_floor(self):
        with pytest.raises(ParameterError, match="k_2"):
            NetworkModel(Kind.TORUS, a=0.0, dims=(4, 2))

    def test_torus_needs_two_dims(self):
        with pytest.raises(ParameterError):
            NetworkModel(Kind.TORUS, a=0.0, dims=(5,))

    @pytest.mark.parametrize("dims", [range(3, 6), [3, 4, 5], np.array([3, 4, 5])])
    def test_torus_dims_from_any_iterable(self, dims):
        assert torus(dims).dims == (3, 4, 5)

    def test_one_directional_ring_allowed(self):
        assert NetworkModel(Kind.RING, a=1.0, n=8).a == 1.0

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
            build()

    @pytest.mark.parametrize(
        "fields,build,spec,message",
        [
            (
                # n = 5, r = 2 is the complete graph, which builds
                dict(kind=Kind.R_NEAREST_RING, a=0.0, n=5, r=2),
                lambda: r_nearest_ring(5, 2, 0.0),
                "rnearest:n=5,r=2,a=0.0",
                None,
            ),
            (
                dict(kind=Kind.R_NEAREST_RING, a=0.0, n=6, r=3),
                lambda: r_nearest_ring(6, 3, 0.0),
                "rnearest:n=6,r=3,a=0.0",
                "rnearest needs every side an integer >= 2r + 1 = 7, so the two neighbor arcs stay "
                "disjoint, got n=6",
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
                None,
            ),
            (
                dict(kind=Kind.RING, a=0.0, n=2),
                lambda: ring(2, 0.0),
                "ring:n=2,a=0.0",
                "ring needs every side an integer >= 2r + 1 = 3, so the two neighbor arcs stay "
                "disjoint, got n=2",
            ),
            (
                dict(kind=Kind.TORUS, a=0.0, dims=(4, 2)),
                lambda: torus((4, 2), 0.0),
                "torus:dims=4x2,a=0.0",
                "torus needs every side an integer >= 2r + 1 = 3, so the two neighbor arcs stay "
                "disjoint, got k_2=2",
            ),
            (
                dict(kind=Kind.TORUS, a=0.0, dims=(5,)),
                lambda: torus((5,), 0.0),
                # the grammar cannot spell a one-sided torus
                None,
                "torus needs at least 2 dimensions, got dims=(5,)",
            ),
            (
                # a scalar dims escaped as "'int' object is not iterable"
                dict(kind=Kind.TORUS, a=0.0, dims=5),
                lambda: torus(5, 0.0),
                None,
                "torus needs at least 2 dimensions, got dims=5",
            ),
            (
                # a str is iterable, so its characters are rejected one by one
                dict(kind=Kind.TORUS, a=0.0, dims="345"),
                lambda: torus("345", 0.0),
                None,
                "torus needs every side an integer >= 2r + 1 = 3, so the two neighbor arcs stay "
                "disjoint, got k_1=3",
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
            "torus-scalar-dims",
            "torus-str-dims",
        ],
    )
    def test_every_route_builds_through_one_check(self, fields, build, spec, message):
        # construction, dataclasses.replace, the wrappers and the grammar all
        # raise the one check's message: no route builds an invalid model.  A row
        # without a message is valid, and every route builds the same model
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
            if message is None:
                assert route() == NetworkModel(**fields)
                continue
            with pytest.raises(ParameterError) as raised:
                route()
            assert str(raised.value) == message

    @pytest.mark.parametrize(
        "radius, fields, name", [spelling[1:] for spelling in SPELLINGS], ids=[s[0] for s in SPELLINGS]
    )
    def test_one_size_rule_for_every_spelling(self, radius, fields, name):
        # side 2r + 1 (the factor's complete digraph) builds, side 2r fails
        # with the one message through every route
        good = NetworkModel(a=0.3, **fields(2 * radius + 1))
        assert good.factors == tuple((k, radius) for k in good.shape)
        assert min(good.shape) == 2 * radius + 1
        bad = fields(2 * radius)
        spec = ",".join(f"{k}={format_field(k, v)}" for k, v in bad.items() if k != "kind")
        message = (
            f"{bad['kind'].value} needs every side an integer >= 2r + 1 = {2 * radius + 1}, "
            f"so the two neighbor arcs stay disjoint, got {name}={2 * radius}"
        )
        routes = [
            lambda: NetworkModel(a=0.3, **bad),
            lambda: dataclasses.replace(good, **bad),
            lambda: parse_model(f"{bad['kind'].value}:{spec},a=0.3"),
        ]
        for route in routes:
            with pytest.raises(ParameterError) as raised:
                route()
            assert str(raised.value) == message

    @pytest.mark.parametrize("side", [_MAX_TABLE + 1, 2**63 - 1], ids=["2^60", "2^63-1"])
    @pytest.mark.parametrize(
        "fields, name", [(s[2], s[3]) for s in SPELLINGS], ids=[s[0] for s in SPELLINGS]
    )
    def test_no_side_above_the_longest_table(self, fields, name, side):
        # numpy cannot index a float64 table longer than 2**60 - 1 entries
        # (it meets n = 2**60 with a ValueError and n = 2**63 - 1 with an
        # empty arange); the size rule rejects such a side when the model
        # is built, and only tuples are built on the way
        assert _MAX_TABLE == 2**60 - 1
        good = NetworkModel(a=0.3, **fields(_MAX_TABLE))
        assert max(good.shape) == _MAX_TABLE
        bad = fields(side)
        spec = ",".join(f"{k}={format_field(k, v)}" for k, v in bad.items() if k != "kind")
        routes = [
            lambda: NetworkModel(a=0.3, **bad),
            lambda: dataclasses.replace(good, **bad),
            lambda: parse_model(f"{bad['kind'].value}:{spec},a=0.3"),
        ]
        message = f"{bad['kind'].value} needs every side <= {_MAX_TABLE}, got {name}={side}"
        for route in routes:
            with pytest.raises(ParameterError) as raised:
                route()
            assert str(raised.value) == message

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(kind=Kind.RING, n=2, r=3), "ring takes no r, got r=3"),
            (dict(kind=Kind.R_NEAREST_RING, n=4, r=0, dims=(3, 4)), "rnearest takes no dims, got dims=(3, 4)"),
            (dict(kind=Kind.TORUS, dims=(2,), n=4), "torus takes no n, got n=4"),
        ],
        ids=["ring", "rnearest", "torus"],
    )
    def test_a_stray_field_is_named_before_the_size_rule(self, fields, message):
        # each model also breaks the size rule; the field its kind does not
        # store is reported first, as the grammar does
        with pytest.raises(ParameterError) as raised:
            NetworkModel(a=0.3, **fields)
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
            lambda: NetworkModel(Kind.RING, a=0.0, n=np.bool_(True)),
            lambda: ring(4, np.bool_(True)),
        ],
        ids=["ring-a", "ring-n", "rnearest-r", "rnearest-a", "torus-side", "numpy-bool-n", "numpy-bool-a"],
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
    def test_numpy_integer_sizes_accepted(self, int_type):
        model = NetworkModel(Kind.R_NEAREST_RING, a=0.5, n=int_type(14), r=int_type(3))
        assert model.factors == ((14, 3),)
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
        model = ring(4, 0.5)
        row = factor_row(*model.factors[0], model.a)
        assert row == pytest.approx([1.0, -0.25, 0.0, -0.75])

    def test_symmetric_ring(self):
        model = ring(5, 0.0)
        row = factor_row(*model.factors[0], model.a)
        assert row == pytest.approx([1.0, -0.5, 0.0, 0.0, -0.5])

    def test_rnearest_layout(self):
        model = r_nearest_ring(6, 2, 0.0)
        row = factor_row(*model.factors[0], model.a)
        assert row == pytest.approx([2.0, -0.5, -0.5, 0.0, -0.5, -0.5])

    @pytest.mark.parametrize("n,r,a", [(8, 1, 0.3), (12, 3, 0.7), (10, 4, 1.0)])
    def test_zero_sum_and_degree(self, n, r, a):
        model = r_nearest_ring(n, r, a)
        row = factor_row(*model.factors[0], model.a)
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


class TestDenseLaplacian:
    """The n x n reference Laplacian the simulation tests compare against."""

    def test_symmetric_ring4(self):
        lap = reference_laplacian(ring(4, 0.0))
        assert np.allclose(np.diag(lap), 1.0)
        for i in range(4):
            assert lap[i, (i + 1) % 4] == pytest.approx(-0.5)
            assert lap[i, (i - 1) % 4] == pytest.approx(-0.5)

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
    def test_torus33_matches_neighbor_enumeration(self, a):
        lap = reference_laplacian(torus((3, 3), a))
        assert np.allclose(lap, torus33_by_neighbor_enumeration(a), atol=1e-15)

    @pytest.mark.parametrize("model", [ring(4, 0.5), r_nearest_ring(9, 3, 0.4)])
    def test_one_dimensional_rows_are_cyclic_shifts(self, model):
        lap = reference_laplacian(model)
        row = factor_row(*model.factors[0], model.a)
        for i in range(model.n):
            assert np.allclose(lap[i], np.roll(row, i), atol=1e-15)

    @pytest.mark.parametrize(
        "model",
        [ring(7, 0.4), r_nearest_ring(11, 3, 0.9), torus((3, 4), 0.6), torus((3, 3, 4), 0.2)],
    )
    def test_row_and_column_sums_vanish(self, model):
        lap = reference_laplacian(model)
        assert np.max(np.abs(lap.sum(axis=0))) < 1e-12
        assert np.max(np.abs(lap.sum(axis=1))) < 1e-12

    @pytest.mark.parametrize("model", [ring(9, 0.0), r_nearest_ring(12, 4, 0.0), torus((4, 5), 0.0)])
    def test_symmetric_when_a_zero(self, model):
        lap = reference_laplacian(model)
        assert np.max(np.abs(lap - lap.T)) < 1e-15

    def test_torus_diagonal_is_dimension(self):
        lap = reference_laplacian(torus((3, 4, 3), 0.3))
        assert np.allclose(np.diag(lap), 3.0)

    def test_order(self):
        assert reference_laplacian(torus((3, 4), 0.0)).shape == (12, 12)


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

    def test_blanks_around_the_kind(self):
        # stripped, as blanks around keys and values are
        model = parse_model(" ring : n = 8 , a = 0.3 ")
        assert model == ring(8, 0.3)
        assert format_model(model) == "ring:n=8,a=0.3"

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

    @pytest.mark.parametrize(
        "a, twin",
        [
            (0, 0.0),
            (1, 1.0),
            (np.int64(1), 1.0),
            (np.uint8(0), 0.0),
            (np.float64(0.5), 0.5),
            (np.float64(-0.0), 0.0),
            (np.float32(0.5), 0.5),
            (np.float32(0.3), 0.30000001192092896),
        ],
        ids=["0", "1", "int64", "uint8", "float64", "float64-neg-zero", "float32", "float32-inexact"],
    )
    def test_real_a_is_stored_as_a_python_float(self, a, twin):
        # stored as the Python float it equals, so the model prints, sweeps
        # and writes as that float's model does; a numpy int or float is
        # accepted, as a numpy integer is for every size field
        model, reference = ring(4, a), ring(4, twin)
        assert type(model.a) is float and model == reference
        assert repr(model) == repr(reference)
        rows, reference_rows = sweep(model, {}), sweep(reference, {})
        assert rows == reference_rows and type(rows[0].a) is float
        assert sweep(reference, {"a": [a]}) == reference_rows
        assert rows_to_csv(rows) == rows_to_csv(reference_rows)
        assert rows_to_jsonl(rows) == rows_to_jsonl(reference_rows)

    def test_parse_values(self):
        m = parse_model("rnearest:n=12,r=3,a=0.25")
        assert (m.kind, m.n, m.r, m.a) == (Kind.R_NEAREST_RING, 12, 3, 0.25)

    @pytest.mark.parametrize(
        "bad, message",
        [
            pytest.param(spec, message, id=spec)
            for spec, message in [
                # one spec per error class of the grammar, each full message
                ("lattice:n=4,a=0", "unknown model kind 'lattice'; expected ring, rnearest or torus"),
                ("ring:n=4", "model spec 'ring:n=4' is missing a="),
                ("ring:n8,a=0.3", "malformed field 'n8' in model spec 'ring:n8,a=0.3'"),
                ("torus:dims=4,a=0.1", "malformed dims '4', expected <int>x<int>[x<int>...]"),
                (
                    "ring:n=four,a=0.5",
                    "bad numeric field in model spec 'ring:n=four,a=0.5': "
                    "invalid literal for int() with base 10: 'four'",
                ),
                ("ring:n=4,a=0.5,z=2", "unexpected fields ['z'] in model spec 'ring:n=4,a=0.5,z=2'"),
                (
                    "ring:n=2,a=0.0",
                    "ring needs every side an integer >= 2r + 1 = 3, so the two neighbor arcs "
                    "stay disjoint, got n=2",
                ),
                # a field given twice is named, not silently overwritten
                ("ring:n=8,n=9,a=0.3", "repeated field 'n' in model spec 'ring:n=8,n=9,a=0.3'"),
                (
                    "torus:dims=3x4,a=0.2,dims=5x5",
                    "repeated field 'dims' in model spec 'torus:dims=3x4,a=0.2,dims=5x5'",
                ),
            ]
        ],
    )
    def test_rejects_malformed(self, bad, message):
        with pytest.raises(ParameterError) as raised:
            parse_model(bad)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "model, text, factors",
        [
            (ring(8, 0.3), "ring:n=8,a=0.3", ((8, 1),)),
            (r_nearest_ring(12, 3, 0.25), "rnearest:n=12,r=3,a=0.25", ((12, 3),)),
            (torus((3, 4, 5), 0.0), "torus:dims=3x4x5,a=0.0", ((3, 1), (4, 1), (5, 1))),
        ],
        ids=["ring", "rnearest", "torus"],
    )
    def test_format_and_factors_pinned(self, model, text, factors):
        assert format_model(model) == text
        assert model.factors == factors
        assert parse_model(text) == model

    def test_parse_field(self):
        # every field's text is read here, for the grammar and for sweeps
        assert FIELDS == ("n", "r", "dims", "a")
        assert parse_field("n", "8") == 8 and type(parse_field("r", "3")) is int
        assert parse_field("a", "0.25") == 0.25
        assert parse_field("dims", " 3x4x5 ") == (3, 4, 5)
        with pytest.raises(ParameterError, match=r"^malformed dims '5', expected"):
            parse_field("dims", "5")
        with pytest.raises(ValueError, match="invalid literal for int"):
            parse_field("n", "3.5")
        # format_field writes each stored value back as that text
        assert format_field("n", 8) == "8" and format_field("a", 0.25) == "0.25"
        assert format_field("dims", (3, 4, 5)) == "3x4x5"

    def test_grid_format_is_the_reference_text(self):
        texts = [(format_model(m), _reference_text(m)) for m in GRID]
        assert [pair for pair in texts if pair[0] != pair[1]] == []

    def test_grid_round_trips(self):
        assert [m for m in GRID if parse_model(format_model(m)) != m] == []

    def test_grid_stored_fields_round_trip(self):
        # every field a model stores is written and read back to its value and type
        for model in GRID:
            for key in FIELDS:
                value = getattr(model, key)
                if value is not None:
                    back = parse_field(key, format_field(key, value))
                    assert (back, type(back)) == (value, type(value)), (format_model(model), key)

    def test_empty_fields_skipped(self):
        assert parse_model("ring:n=8,,a=0.3") == ring(8, 0.3)

    @given(
        st.integers(min_value=3, max_value=200),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_ring_round_trip_any_params(self, n, a):
        model = ring(n, a)
        assert parse_model(format_model(model)) == model


class TestLinkWeights:
    @pytest.mark.parametrize("a", [0.0, 0.3, 1.0, 1 / 3])
    def test_factor_row_holds_them(self, a):
        forward, backward = link_weights(a)
        row = factor_row(7, 2, a)
        assert (row[1], row[2], row[5], row[6]) == (forward, forward, backward, backward)
        assert (forward, backward) == ((-1.0 + a) / 2.0, (-1.0 - a) / 2.0)


class TestTextWriters:
    def test_csv_cell_rule(self):
        text = to_csv(
            ("none", "float", "np", "int", "str", "bool"),
            [[None, 1.0], [0.1, math.nan], [np.float64(1 / 3), -math.inf], [3, 4], ["x", "y"], [True, 0]],
        )
        assert text == (
            "none;float;np;int;str;bool\n"
            ";0.1;0.3333333333333333;3;x;True\n"
            "1.0;nan;-inf;4;y;0\n"
        )

    def test_csv_column_of_floats_is_repr(self):
        column = [0.1 + 0.2, -0.0, 1e-300, 2.5e17, math.inf]
        assert to_csv(("x",), [column]) == "x\n" + "".join(f"{v!r}\n" for v in column)

    def test_csv_without_rows_is_the_header(self):
        assert to_csv(("a", "b"), [[], []]) == "a;b\n"

    def test_json_document_and_lines(self):
        value = [{"x": 1, "y": [0.5, "s"]}, {"x": None, "y": (True,)}]
        assert to_json(value) == json.dumps(value, indent=2) + "\n"
        assert to_json(value, lines=True) == '{"x": 1, "y": [0.5, "s"]}\n{"x": null, "y": [true]}\n'

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("inf")])
    def test_json_non_finite_is_null_at_any_depth(self, bad):
        value = {"top": bad, "list": [1.0, bad], "nested": {"tuple": (bad, 2)}}
        for text in (to_json(value), to_json([value], lines=True)):
            assert strict_json(text) == {"top": None, "list": [1.0, None], "nested": {"tuple": [None, 2]}}

    def test_json_non_finite_the_walk_misses_raises(self):
        # the walk replaces values, not keys; a NaN key has no JSON form
        with pytest.raises(ValueError):
            to_json({math.nan: 1})

