"""One factor list, one model.

The ring is the r-nearest ring with r = 1: both spellings have the
factor list ((n, 1),), and every route but the grammar and the catalog
gives them the same bits.  At n = 2r + 1 an r-nearest ring is the
complete digraph; it builds, and every route runs on it.
"""

import numpy as np
import pytest

from consensus_spectra import (
    DegenerateError,
    SpectrumSource,
    closed_design,
    closed_form_R,
    closed_values,
    design_pipeline,
    factor_extremal_pair,
    full_spectrum,
    r_nearest_ring,
    report_to_json,
    ring,
    run_consensus,
    uniform_vector,
    verify_consensus,
)
from consensus_spectra.cli import run
from consensus_spectra.design import DESIGN_METHODS
from conftest import A_GRID
from laplacian_reference import reference_laplacian

COMPLETE_R = (1, 2, 3, 4, 5, 6, 50)
COMPLETE_A = (0.0, 0.37, 1.0)


def _design_or_error(method, model):
    try:
        return repr(DESIGN_METHODS[method](model))
    except DegenerateError as exc:
        return f"DegenerateError: {exc}"


def _trace_bits(trace):
    return trace.error_norms.tobytes(), trace.averages.tobytes(), trace.converged


@pytest.mark.parametrize("n", range(3, 41))
def test_ring_and_unit_radius_rnearest_ring_agree(n):
    # only closed_form_R's catalog case tells the spellings apart: the
    # paper gives each family its own formulas
    x0 = uniform_vector(n, n) - 0.5
    for a in A_GRID:
        spelled = [ring(n, a), r_nearest_ring(n, 1, a)]
        assert spelled[0].factors == spelled[1].factors == ((n, 1),)
        for source in SpectrumSource:
            values = [full_spectrum(m, source).values.tobytes() for m in spelled]
            assert values[0] == values[1]
        assert factor_extremal_pair(spelled[0]) == factor_extremal_pair(spelled[1])
        for method in ("pipeline", "minimax"):
            assert _design_or_error(method, spelled[0]) == _design_or_error(method, spelled[1])
        # the minimax design exists on the 3-node ring too
        design = DESIGN_METHODS["minimax"](spelled[0])
        for dense in (False, True):
            traces = [_trace_bits(run_consensus(m, design.h, x0, 60, 1e-300, dense=dense)) for m in spelled]
            assert traces[0] == traces[1]
        reports = [report_to_json(verify_consensus(m, design, trials=2, seed=n)) for m in spelled]
        assert reports[0] == reports[1]
    assert closed_form_R(ring(8, 0.3)).case != closed_form_R(r_nearest_ring(8, 1, 0.3)).case


def _h_scan(values, points=20_001):
    # every line's own minimizer Re l / |l|^2 lies in (0, h_max]
    h_max = 2.0 * np.max(values.real / np.abs(values) ** 2)
    h = np.linspace(0.0, h_max, points)[1:]
    return float(np.min(np.max(np.abs(1.0 - h[:, None] * values[None, :]), axis=1)))


@pytest.mark.parametrize("a", COMPLETE_A)
@pytest.mark.parametrize("r", COMPLETE_R)
def test_complete_graph_runs_every_route(r, a):
    n = 2 * r + 1
    model = r_nearest_ring(n, r, a)
    closed = closed_values(model)
    dft = full_spectrum(model, SpectrumSource.DFT_ORACLE).values
    dense = np.linalg.eigvals(reference_laplacian(model))
    assert np.max(np.abs(closed - dft)) <= 1e-12
    # the same multiset: each value has a close partner either way, and
    # the real and imaginary parts agree as sorted lists
    gap = np.abs(closed[:, None] - dense[None, :])
    assert gap.min(axis=1).max() <= 1e-10 and gap.min(axis=0).max() <= 1e-10
    assert np.max(np.abs(np.sort(closed.real) - np.sort(dense.real))) <= 1e-10
    assert np.max(np.abs(np.sort(closed.imag) - np.sort(dense.imag))) <= 1e-10
    # every nonzero eigenvalue has real part r + 1/2, so the pair's moduli
    # coincide and no pair design exists
    assert np.max(np.abs(closed[1:].real - (r + 0.5))) <= 1e-12
    for route in (design_pipeline, closed_design, closed_form_R):
        with pytest.raises(DegenerateError):
            route(model)
    design = DESIGN_METHODS["minimax"](model)
    assert design.gamma <= _h_scan(closed[1:]) + 1e-12
    if a == 0.0:
        # one eigenvalue n / 2 of multiplicity n - 1: h = 2 / n averages
        # exactly, up to the closed form's rounding of n / 2
        assert design.h == pytest.approx(2 / n, rel=1e-14)
        assert design.gamma < 1e-14
    # half the minimax h still contracts, and no trace reaches exact zero
    x0 = uniform_vector(r, n)
    structured = run_consensus(model, design.h / 2, x0, 40, 1e-300)
    dense_trace = run_consensus(model, design.h / 2, x0, 40, 1e-300, dense=True)
    assert np.max(np.abs(structured.error_norms - dense_trace.error_norms)) <= 1e-12
    assert np.max(np.abs(structured.averages - dense_trace.averages)) <= 1e-12


def test_complete_graph_cli(capsys):
    spec = "rnearest:n=7,r=3,a=0.3"
    assert run(["design", "--model", spec, "--method", "minimax"]) == 0
    capsys.readouterr()
    assert run(["design", "--model", spec, "--method", "pipeline"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error type=DegenerateError")
