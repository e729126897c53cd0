import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from consensus_spectra import (
    ParameterError,
    figure_dataset,
    ring,
    rows_to_csv,
    rows_to_jsonl,
    sweep,
    torus,
    write_figure,
)
from consensus_spectra import spectral
from consensus_spectra.analysis import FIG5_RADII, FIG6_SIDES, FIGURES
from consensus_spectra.design import DESIGN_METHODS
from conftest import strict_json

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
FIGURE_DATA_DIR = Path(__file__).resolve().parent.parent / "figure_data"


class TestSweep:
    def test_ring_rate_decreases_with_n(self):
        rows = sweep(ring(4, 0.5), {"n": [4, 8, 16]})
        rates = [row.rate for row in rows]
        assert rates[0] > rates[1] > rates[2]
        assert [row.n for row in rows] == [4, 8, 16]

    def test_rnearest_rate_increases_with_overhead(self):
        from consensus_spectra import r_nearest_ring

        rows = sweep(r_nearest_ring(400, 1, 0.2), {"r": [1, 2, 3]})
        rates = [row.rate for row in rows]
        assert rates[0] < rates[1] < rates[2]

    def test_symmetric_point_has_zero_absolute_error(self):
        rows = sweep(ring(4, 0.0), {"a": [0.0]})
        assert rows[0].absolute_error == 0.0
        assert rows[0].rate_symmetric == rows[0].rate

    @pytest.mark.parametrize("method", list(DESIGN_METHODS))
    def test_every_symmetric_figure_row_has_zero_absolute_error(self, method):
        # the symmetric rate comes from the sweep's own method, so an a = 0
        # row holds one design's rate twice
        rows = [row for f in FIGURES for row in figure_dataset(f, method).rows if row.a == 0.0]
        assert rows
        assert [row for row in rows if row.absolute_error != 0.0] == []

    def test_minimax_sweep_solves_the_three_ring(self):
        # only the pair design refuses the 3-node ring; a minimax sweep
        # takes its symmetric rate from the minimax design too
        (row,) = sweep(ring(3, 0.3), {"n": [3]}, method="minimax")
        assert row.error == ""
        assert row.rate_symmetric == DESIGN_METHODS["minimax"](ring(3, 0.0)).rate
        assert row.absolute_error == row.rate_symmetric - row.rate

    def test_failing_point_recorded_in_row(self):
        rows = sweep(ring(4, 0.0), {"n": [3, 4]})
        assert "DegenerateError" in rows[0].error
        assert math.isnan(rows[0].rate)
        assert rows[1].error == ""
        assert rows[1].rate == pytest.approx(2 / 3)

    def test_point_that_builds_no_model_recorded_in_row(self):
        # the row carries the fields the model would have stored: sizes as
        # Python ints, -0.0 as 0.0
        rows = sweep(torus((3, 4), -0.0), {"dims": [(np.int64(5), 2), (5, 3)]})
        bad, good = rows
        assert bad.error == (
            "ParameterError: torus needs every side an integer >= 2r + 1 = 3, "
            "so the two neighbor arcs stay disjoint, got k_2=2"
        )
        assert (bad.kind, bad.n, bad.r, bad.dims) == ("torus", None, None, (5, 2))
        assert all(type(k) is int for k in bad.dims)
        assert math.copysign(1.0, bad.a) == 1.0
        assert math.isnan(bad.rate) and math.isnan(bad.absolute_error)
        assert good.error == "" and good.dims == (5, 3)
        assert json.loads(rows_to_jsonl(rows).splitlines()[0])["dims"] == "5x2"

    def test_scalar_dims_point_recorded_in_row(self):
        # a scalar dims escaped the sweep as a bare TypeError
        rows = sweep(torus((3, 4)), {"dims": [5, (3, 5)]})
        bad, good = rows
        assert bad.error == "ParameterError: torus needs at least 2 dimensions, got dims=5"
        assert bad.dims == 5 and math.isnan(bad.rate)
        assert good.error == "" and good.dims == (3, 5)
        assert rows_to_csv(rows).splitlines()[1].split(";")[3] == "5"
        assert strict_json(rows_to_jsonl(rows).splitlines()[0])["dims"] == "5"

    def test_zero_dims_point_keeps_its_cell(self):
        # a falsy dims other than None or () left the cell blank beside
        # the message that names it
        rows = sweep(torus((3, 4)), {"dims": [0, ()]})
        assert [row.error for row in rows] == [
            "ParameterError: torus needs at least 2 dimensions, got dims=0",
            "ParameterError: torus needs at least 2 dimensions, got dims=()",
        ]
        cells = [line.split(";")[3] for line in rows_to_csv(rows).splitlines()[1:]]
        assert cells == ["0", ""]
        assert [strict_json(line)["dims"] for line in rows_to_jsonl(rows).splitlines()] == ["0", ""]

    @pytest.mark.parametrize(
        "varying, key", [({"a": 0.3}, "a"), ({"n": 8}, "n"), ({"n": [8], "dims": None}, "dims")]
    )
    def test_non_iterable_values_raise(self, varying, key):
        # a scalar used to escape from itertools.product as a bare TypeError
        with pytest.raises(ParameterError, match=rf"^{key} needs a sequence of values, got "):
            sweep(ring(8), varying)

    @pytest.mark.parametrize(
        "varying, shown",
        [({"a": "0.3"}, "'0.3'"), ({"dims": "35"}, "'35'"), ({"n": [8], "a": ""}, "''")],
        ids=["a", "dims", "empty-a"],
    )
    def test_string_values_raise(self, varying, shown):
        # a str is iterable, but its characters are no values: it used to
        # give one error row per character
        key = list(varying)[-1]
        with pytest.raises(ParameterError, match=rf"^{key} needs a sequence of values, got {shown}$"):
            sweep(torus((3, 4)) if key == "dims" else ring(8), varying)

    def test_unknown_field_raises(self):
        with pytest.raises(ParameterError, match=r"cannot vary \['x'\]"):
            sweep(ring(8), {"x": [1]})

    def test_unknown_method_raises(self):
        with pytest.raises(ParameterError, match="unknown method"):
            sweep(ring(4, 0.5), {"n": [4]}, method="newton")

    def test_grid_order_is_row_major(self):
        rows = sweep(ring(4, 0.0), {"n": [4, 6], "a": [0.0, 0.5]})
        assert [(row.n, row.a) for row in rows] == [(4, 0.0), (4, 0.5), (6, 0.0), (6, 0.5)]

    def test_ring4_absolute_error(self):
        rows = sweep(ring(4, 0.5), {"n": [4]})
        assert rows[0].absolute_error == pytest.approx(2 / 3 - 6 / 11, abs=1e-12)

    def test_absolute_error_decreases_with_n_after_peak(self):
        rows = sweep(ring(4, 0.3), {"n": range(8, 65, 2)})
        errs = [row.absolute_error for row in rows]
        peak = int(np.argmax(errs))
        assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errs[peak:], errs[peak + 1 :]))

    def test_larger_asymmetry_pointwise_larger_absolute_error(self):
        sizes = {"n": range(8, 65, 2)}
        low = [r.absolute_error for r in sweep(ring(4, 0.3), sizes)]
        high = [r.absolute_error for r in sweep(ring(4, 0.9), sizes)]
        assert all(h >= l - 1e-12 for l, h in zip(low, high))

    def test_methods_agree_where_optimal(self):
        rows_p = sweep(ring(4, 0.5), {"n": [4, 8]}, method="pipeline")
        rows_m = sweep(ring(4, 0.5), {"n": [4, 8]}, method="minimax")
        for rp, rm in zip(rows_p, rows_m):
            assert rm.gamma == pytest.approx(rp.gamma, abs=1e-8)


class TestFigureDatasets:
    def test_figure6_rate_non_increasing_in_dimension(self):
        ds = figure_dataset(6)
        assert len(ds.rows) == 5
        rates = [row.rate for row in ds.rows]
        assert all(r1 >= r2 - 1e-12 for r1, r2 in zip(rates, rates[1:]))
        assert ds.rows[0].kind == "ring"
        assert ds.rows[-1].dims == FIG6_SIDES

    def test_figure5_curves_non_increasing_in_a(self):
        ds = figure_dataset(5)
        by_r = {}
        for row in ds.rows:
            by_r.setdefault(row.r, []).append(row)
        assert set(by_r) == set(FIG5_RADII)
        for r, rows in by_r.items():
            rates = [row.rate for row in rows]
            assert all(r1 >= r2 - 1e-9 for r1, r2 in zip(rates, rates[1:])), r

    def test_figure5_reports_visibility_threshold(self):
        meta = figure_dataset(5).metadata["largest_a_with_rate_above_0.01"]
        assert set(meta) <= set(FIG5_RADII)
        # the widest radii keep a visible rate well into the asymmetric range
        assert meta[150] >= 0.7
        assert all(0.0 <= a <= 1.0 for a in meta.values())

    def test_figure7_two_curves(self):
        ds = figure_dataset(7)
        a_values = {row.a for row in ds.rows}
        assert a_values == {0.3, 0.9}
        assert len(ds.rows) == 2 * len(range(4, 65, 2))

    def test_figure3_shape(self):
        ds = figure_dataset(3)
        assert len(ds.rows) == len(range(4, 41, 2)) * 4
        assert all(row.kind == "ring" for row in ds.rows)

    def test_figure4_odd_torus_grid(self):
        ds = figure_dataset(4)
        assert len(ds.rows) == 81
        assert all(row.kind == "torus" for row in ds.rows)
        assert all(row.error == "" for row in ds.rows)

    def test_regenerates_bit_identically(self):
        first = rows_to_csv(figure_dataset(5).rows)
        second = rows_to_csv(figure_dataset(5).rows)
        assert first == second

    @pytest.mark.parametrize("figure_id", [3, 4, 5, 6, 7])
    def test_matches_benchmark_reference(self, figure_id):
        # the benchmark's recorded tables, byte for byte
        expected = (REFERENCE_DIR / f"fig{figure_id}.csv").read_bytes()
        assert rows_to_csv(figure_dataset(figure_id).rows).encode() == expected

    @pytest.mark.parametrize("figure_id", sorted(FIGURES))
    def test_committed_figure_data_is_current(self, figure_id):
        # figure_data/ holds what demos/04_figure_datasets.py writes, byte
        # for byte, so a stale copy fails here
        dataset = figure_dataset(figure_id)
        expected = rows_to_csv(dataset.rows).encode()
        assert (FIGURE_DATA_DIR / dataset.filename).read_bytes() == expected

    def test_figure_data_holds_one_file_per_figure(self):
        names = sorted(path.name for path in FIGURE_DATA_DIR.iterdir())
        assert names == sorted(figure_dataset(k).filename for k in FIGURES)

    @pytest.mark.parametrize("figure_id", [3, 5, 7])
    def test_one_candidate_selection_per_topology(self, figure_id):
        # every a of a topology, each row's symmetric rate included, picks
        # from the same candidates, so a figure selects them once per
        # distinct topology, however many rows share it
        spectral._closed_candidates.cache_clear()
        rows = figure_dataset(figure_id).rows
        topologies = {(row.kind, row.n, row.r, row.dims) for row in rows}
        assert spectral._closed_candidates.cache_info().misses == len(topologies)

    def test_unknown_figure(self):
        with pytest.raises(ParameterError, match=r"unknown figure id 8; expected one of \[3, 4, 5, 6, 7\]"):
            figure_dataset(8)

    @pytest.mark.parametrize("figure_id", [3.0, np.float64(6), "3", True, None])
    def test_only_an_integer_names_a_figure(self, figure_id):
        # 3.0 == 3 used to pass and name the file fig3.0_ring_rates.csv
        with pytest.raises(ParameterError, match=r"unknown figure id .*; expected one of \[3, 4, 5, 6, 7\]"):
            figure_dataset(figure_id)

    def test_integral_figure_id_is_stored_as_int(self):
        ds = figure_dataset(np.int64(6))
        assert type(ds.figure_id) is int and ds.filename == "fig6_dimension.csv"

    @pytest.mark.parametrize(
        "figure_id, method, metadata",
        [
            (3, "pipeline", {"grid": "ring n=4..40 even, a in {0, 0.3, 0.6, 0.9}"}),
            (4, "pipeline", {"grid": "torus k1,k2 in 5..21 odd, a=0.3"}),
            (6, "pipeline", {"grid": "prefixes of sides (11, 15, 21, 25, 27), m=1..5, a=0.3"}),
            (7, "pipeline", {"grid": "ring n=4..64 even, a in {0.3, 0.9}"}),
        ]
        + [
            (
                5,
                method,
                {
                    "grid": "r-nearest n=400, r in (8, 32, 100, 150), a=0..1 step 0.05",
                    "largest_a_with_rate_above_0.01": visible,
                },
            )
            for method, visible in [
                ("pipeline", {32: 0.8, 100: 0.85, 150: 0.8}),
                ("closed", {32: 0.75, 100: 0.7, 150: 0.6}),
                ("minimax", {32: 1.0, 100: 1.0, 150: 1.0}),
            ]
        ],
    )
    def test_metadata_pinned(self, figure_id, method, metadata):
        # the grid texts and figure 5's visibility map, as first recorded
        assert figure_dataset(figure_id, method).metadata == {**metadata, "method": method}

    def test_every_figure_is_a_list_of_sweeps(self):
        assert sorted(FIGURES) == [3, 4, 5, 6, 7]
        for figure_id, (label, grid, sweeps) in FIGURES.items():
            ds = figure_dataset(figure_id)
            assert (ds.label, ds.metadata["grid"]) == (label, grid)
            assert ds.rows == [row for template, varying in sweeps for row in sweep(template, varying)]

    def test_write_figure_naming(self, tmp_path):
        path = write_figure(figure_dataset(6), tmp_path)
        assert path.name == "fig6_dimension.csv"
        assert path.read_text().startswith("kind;n;r;dims;a;")


class TestSerialization:
    def test_csv_layout(self):
        rows = sweep(ring(4, 0.5), {"n": [4]})
        text = rows_to_csv(rows)
        header, line = text.strip().split("\n")
        assert header.split(";")[:6] == ["kind", "n", "r", "dims", "a", "h"]
        cells = line.split(";")
        assert cells[0] == "ring"
        assert float(cells[7]) == pytest.approx(6 / 11)  # rate column

    def test_jsonl_round_trip(self):
        rows = sweep(torus((4, 4), 0.0), {"a": [0.0, 0.5]})
        lines = rows_to_jsonl(rows).strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert records[0]["dims"] == "4x4"
        assert records[0]["rate"] == pytest.approx(0.4)
        assert records[1]["a"] == 0.5

    def test_infinities_serialized_as_null(self):
        (row,) = sweep(ring(8, 0.3), {"n": [8]})
        row = dataclasses.replace(row, h=math.inf, gamma=-math.inf)
        record = strict_json(rows_to_jsonl([row]))
        assert (record["h"], record["gamma"]) == (None, None)
        assert record["rate"] == row.rate
        assert rows_to_csv([row]).splitlines()[1].split(";")[5:7] == ["inf", "-inf"]

    def test_nan_serialized_as_null(self):
        rows = sweep(ring(3, 0.0), {"n": [3]})
        record = json.loads(rows_to_jsonl(rows).strip())
        assert record["rate"] is None
        assert "DegenerateError" in record["error"]
