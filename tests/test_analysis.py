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
from consensus_spectra.analysis import FIG5_RADII, FIG6_SIDES

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


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
        assert bad.error == "ParameterError: torus needs every k_i an integer >= 3, got k_2=2"
        assert (bad.kind, bad.n, bad.r, bad.dims) == ("torus", None, None, (5, 2))
        assert all(type(k) is int for k in bad.dims)
        assert math.copysign(1.0, bad.a) == 1.0
        assert math.isnan(bad.rate) and math.isnan(bad.absolute_error)
        assert good.error == "" and good.dims == (5, 3)
        assert json.loads(rows_to_jsonl(rows).splitlines()[0])["dims"] == "5x2"

    def test_unknown_field_raises(self):
        with pytest.raises(ParameterError, match=r"cannot vary \['x'\]"):
            sweep(ring(8), {"x": [1]})

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
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
        with pytest.raises(ValueError):
            figure_dataset(8)

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

    def test_nan_serialized_as_null(self):
        rows = sweep(ring(3, 0.0), {"n": [3]})
        record = json.loads(rows_to_jsonl(rows).strip())
        assert record["rate"] is None
        assert "DegenerateError" in record["error"]
