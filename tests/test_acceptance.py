"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 4 (minimax optimality of the two-eigenvalue design) is
implemented exactly as stated and is expected to FAIL: the equal-modulus
construction provably stops being the global best constant once the
asymmetric factor is large enough (see notes in the failure message).
The test reports the violation set rather than hiding it.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import consensus_spectra as cs
from consensus_spectra.analysis import FIG5_RADII
from consensus_spectra.design import (
    _h_torusN_even,
    _R_torusN_even,
    formula_case,
)
from conftest import A_GRID, grid_models, pure_parity

H_TOL = 1e-9
RATE_TOL = 1e-9
SPECTRUM_TOL = 1e-10


def _verdict(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] {status}: {label}{suffix}")


def _pipeline_or_none(model):
    try:
        return cs.design_pipeline(model)
    except cs.DegenerateError:
        return None


def test_criterion_1_spectral_oracle_equivalence():
    started = time.monotonic()
    worst = 0.0
    count = 0
    for a in A_GRID:
        for model in grid_models(a):
            closed = cs.full_spectrum(model, source=cs.SpectrumSource.CLOSED_FORM).values
            oracle = cs.full_spectrum(model, source=cs.SpectrumSource.DFT_ORACLE).values
            worst = max(worst, float(np.max(np.abs(closed - oracle))))
            count += 1
    elapsed = time.monotonic() - started
    ok = worst <= SPECTRUM_TOL and elapsed < 10.0
    _verdict(1, "spectral oracle equivalence", ok, f"{count} spectra, worst {worst:.2e}, {elapsed:.1f}s")
    assert worst <= SPECTRUM_TOL
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s, bound is 10s"


# Cases whose catalog entries are known to deviate from the pipeline by
# construction: the odd-odd torus entry bakes in literal 0.16
# coefficients and an inconsistent cosine motif, and the r-nearest
# entries are built on the half-index eigenvalue, which is usually not
# the spectral maximum, with an extra sign defect in the odd case.
ALLOWED_H_DEVIATIONS = {"torus2-odd", "rnearest-even", "rnearest-odd"}


def test_criterion_2_consensus_parameter_fidelity():
    report = []
    strict_failures = []
    checked = 0
    for a in A_GRID:
        for model in grid_models(a):
            if not pure_parity(model):
                continue
            pipeline = _pipeline_or_none(model)
            if pipeline is None:
                continue
            case = formula_case(model)
            h_closed = cs.closed_design(model).h
            checked += 1
            deviation = abs(h_closed - pipeline.h)
            if not deviation <= H_TOL:
                report.append((case, cs.format_model(model), _deviation_str(deviation)))
                if case not in ALLOWED_H_DEVIATIONS:
                    strict_failures.append((case, cs.format_model(model), deviation))
            # cross-check: the N-dimensional even entry specializes to
            # every even-even 2-D grid torus
            if case == "torus2-even":
                h_nd = _h_torusN_even(max(model.dims), 2, a)
                if abs(h_nd - pipeline.h) > H_TOL:
                    strict_failures.append(("torusN-even", cs.format_model(model), abs(h_nd - pipeline.h)))
    ok = not strict_failures
    _verdict(
        2,
        "consensus-parameter fidelity",
        ok,
        f"{checked} models, {len(report)} catalogued deviations (all in {sorted(ALLOWED_H_DEVIATIONS)})",
    )
    assert ok, f"unexpected closed-form h deviations: {strict_failures[:10]}"


def _deviation_str(dev: float) -> str:
    return "nan" if math.isnan(dev) else f"{dev:.3e}"


def test_criterion_3_rate_formula_reconciliation():
    tags_by_case: dict[str, set] = {}
    offset_worst = 0.0
    for a in A_GRID:
        for model in grid_models(a):
            if not pure_parity(model):
                continue
            pipeline = _pipeline_or_none(model)
            if pipeline is None:
                continue
            rec = cs.closed_form_R(model)
            tags_by_case.setdefault(rec.case, set()).add(rec.tag)
            # the even-family N-torus entry must stay offset-by-one on
            # both its reductions: even rings (m = 1) and even-even
            # 2-D tori (m = 2)
            if model.kind is cs.Kind.RING and model.n % 2 == 0:
                printed = _R_torusN_even(model.n, 1, a)
                offset_worst = max(offset_worst, abs(printed - (pipeline.rate - 1.0)))
            if rec.case == "torus2-even":
                printed = _R_torusN_even(max(model.dims), 2, a)
                offset_worst = max(offset_worst, abs(printed - (pipeline.rate - 1.0)))
                offset_worst = max(offset_worst, abs(rec.value - (pipeline.rate - 1.0)))

    expected = {
        "ring-even": {cs.ReconciliationTag.IDENTICAL},
        "ring-odd": {cs.ReconciliationTag.IDENTICAL},
        "torus2-even": {cs.ReconciliationTag.OFFSET_BY_ONE},
        "torus2-odd": {cs.ReconciliationTag.MISMATCH},
        "rnearest-even": {cs.ReconciliationTag.MISMATCH},
        "rnearest-odd": {cs.ReconciliationTag.MISMATCH},
    }
    stable = all(len(tags) == 1 for tags in tags_by_case.values())
    matches = tags_by_case == expected
    ok = stable and matches and offset_worst <= RATE_TOL
    _verdict(
        3,
        "rate-formula reconciliation",
        ok,
        f"tags {[(c, sorted(t.value for t in ts)) for c, ts in sorted(tags_by_case.items())]}, "
        f"offset residual {offset_worst:.2e}",
    )
    assert stable, f"unstable tags: {tags_by_case}"
    assert matches, f"tag map changed: {tags_by_case}"
    assert offset_worst <= RATE_TOL


def test_criterion_4_minimax_optimality():
    """Faithful check that the pair design equals the true minimax on
    every supported-parity grid model.

    This criterion is NOT attainable: |1 - h*lambda_s| stops being
    monotone before the equalization point once a is large enough
    (for the 4-ring, exactly when a > 1/sqrt(3)), and on r-nearest
    rings and tori additional eigenvalues with large imaginary part
    can bind first.  The failure message quantifies the violation set
    and carries an independent h-scan certificate on the smallest
    counterexample.  The README's acceptance section documents the
    analysis.
    """
    violations = []
    checked = 0
    for a in A_GRID:
        for model in grid_models(a):
            if not pure_parity(model):
                continue
            pipeline = _pipeline_or_none(model)
            if pipeline is None:
                continue
            checked += 1
            mm = cs.minimax_h(cs.full_spectrum(model))
            gap = abs(mm.gamma - pipeline.gamma)
            if gap > H_TOL:
                violations.append((cs.format_model(model), pipeline.gamma, mm.gamma, gap))

    ok = not violations
    _verdict(
        4,
        "minimax optimality of the extremal-pair design",
        ok,
        f"{checked} models, {len(violations)} violations",
    )
    if violations:
        smallest = min(violations, key=lambda v: v[3])
        largest = max(violations, key=lambda v: v[3])
        # independent certificate on a tiny counterexample: a plain h-scan
        # beats the pair design on the asymmetric 4-ring at a = 0.6
        witness = cs.ring(4, 0.6)
        pair_gamma = cs.design_pipeline(witness).gamma
        nz = cs.full_spectrum(witness).values[1:]
        hs = np.linspace(0.0, 1.0, 200001)
        scan_gamma = float(np.min(np.max(np.abs(1 - hs[:, None] * nz[None, :]), axis=1)))
        raise AssertionError(
            f"{len(violations)} of {checked} supported-parity grid models have "
            f"minimax gamma != pair gamma (tolerance {H_TOL}).  "
            f"Smallest gap: {smallest}; largest gap: {largest}.  "
            f"Certificate: ring n=4, a=0.6 pair design gives gamma="
            f"{pair_gamma:.12f} but a 200k-point h-scan over the same spectrum "
            f"reaches {scan_gamma:.12f}, so the pair design is not the global "
            f"best constant.  The two-eigenvalue construction is only optimal "
            f"while |1 - h*lambda_s| is still decreasing at the equalization "
            f"point and no third eigenvalue binds; both conditions break at "
            f"large asymmetry.  See the acceptance section of the README."
        )


# Fixed 20-model sample for the simulation check, spread over families,
# parities and asymmetry values.  Two validity conditions shaped the
# choice: the design's claimed gamma must be its true spectral
# contraction (the deviating large-a cases are exactly the criterion-4
# violation set), and traces must keep at least one clean estimation
# window before the error reaches float rounding.
CRITERION_5_SAMPLE = (
    ("ring:n=4,a=0.5"),
    ("ring:n=12,a=0.3"),
    ("ring:n=17,a=0.0"),
    ("ring:n=24,a=0.1"),
    ("ring:n=33,a=0.2"),
    ("ring:n=48,a=0.3"),
    ("ring:n=64,a=0.4"),
    ("rnearest:n=12,r=2,a=0.0"),
    ("rnearest:n=16,r=3,a=0.1"),
    ("rnearest:n=24,r=2,a=0.2"),
    ("rnearest:n=25,r=3,a=0.0"),
    ("rnearest:n=36,r=4,a=0.1"),
    ("rnearest:n=45,r=5,a=0.2"),
    ("rnearest:n=64,r=5,a=0.3"),
    ("torus:dims=4x4,a=0.0"),
    ("torus:dims=5x8,a=0.3"),
    ("torus:dims=4x8,a=0.2"),
    ("torus:dims=5x5,a=0.1"),
    ("torus:dims=8x8,a=0.3"),
    ("torus:dims=3x5,a=0.0"),
)


def test_criterion_5_simulation_agreement():
    started = time.monotonic()
    worst_rel = 0.0
    worst_drift = 0.0
    assert len(CRITERION_5_SAMPLE) == 20
    for text in CRITERION_5_SAMPLE:
        model = cs.parse_model(text)
        design = cs.design_pipeline(model)
        assert design.gamma < 0.999, text
        x0 = cs.uniform_vector(1234, model.order)
        initial_error = float(np.linalg.norm(x0 - x0.mean()))
        # 100 warm-up + 50 estimation steps; the run stops early only if
        # the error falls 12 decades first (float noise floor)
        trace = cs.run_consensus(
            model, design.h, x0, max_steps=151, tolerance=max(1e-12 * initial_error, 1e-300)
        )
        empirical = trace.empirical_factor
        rel = abs(empirical - design.gamma) / design.gamma
        worst_rel = max(worst_rel, rel)
        drift = float(np.max(np.abs(trace.averages - trace.averages[0])))
        worst_drift = max(worst_drift, drift / np.linalg.norm(x0))
        assert rel <= 0.01, f"{text}: empirical {empirical:.6f} vs gamma {design.gamma:.6f}"
        assert drift <= 1e-12 * np.linalg.norm(x0), f"{text}: average drifted {drift:.2e}"
    elapsed = time.monotonic() - started
    ok = elapsed < 30.0
    _verdict(
        5,
        "simulation agreement",
        ok,
        f"20 models, worst rel. gap {worst_rel:.4%}, worst drift {worst_drift:.1e}, {elapsed:.1f}s",
    )
    assert elapsed < 30.0


def test_criterion_6_qualitative_claims():
    # (a) ring rate non-increasing in a (fixed n) and in n (fixed a)
    for n in range(4, 41, 2):
        rates = [cs.design_pipeline(cs.ring(n, a)).rate for a in (0.0, 0.3, 0.6, 0.9)]
        assert all(r1 >= r2 - 1e-12 for r1, r2 in zip(rates, rates[1:])), f"n={n}"
    for a in (0.0, 0.3, 0.6, 0.9):
        rates = [cs.design_pipeline(cs.ring(n, a)).rate for n in range(4, 41)]
        assert all(r1 >= r2 - 1e-12 for r1, r2 in zip(rates, rates[1:])), f"a={a}"

    # (b) r-nearest rate increasing with neighborhood radius
    rates_r = [cs.design_pipeline(cs.r_nearest_ring(400, r, 0.2)).rate for r in (1, 2, 3)]
    assert rates_r[0] < rates_r[1] < rates_r[2]

    # (c) rate non-increasing with torus dimension
    fig6 = cs.figure_dataset(6)
    rates_m = [row.rate for row in fig6.rows]
    assert all(r1 >= r2 - 1e-12 for r1, r2 in zip(rates_m, rates_m[1:]))

    # (d) absolute error eventually non-increasing in n, larger at a=0.9
    fig7 = cs.figure_dataset(7)
    curves = {a: [row.absolute_error for row in fig7.rows if row.a == a] for a in (0.3, 0.9)}
    for a, errs in curves.items():
        peak = int(np.argmax(errs))
        assert peak <= 2, f"absolute error peaks late (index {peak}) for a={a}"
        assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errs[peak:], errs[peak + 1 :])), a
    assert all(h >= l - 1e-12 for l, h in zip(curves[0.3], curves[0.9]))

    # (e) some displayed radius crosses zero rate inside a in [0.7, 0.9]
    crossings = {}
    fig5_rows = cs.figure_dataset(5).rows
    for r in FIG5_RADII:
        lo, hi = None, None
        rows = [row for row in fig5_rows if row.r == r]
        for r1, r2 in zip(rows, rows[1:]):
            if r1.rate > 0.0 >= r2.rate:
                lo, hi = r1.a, r2.a
                break
        if lo is None:
            continue
        for _ in range(50):  # bisect the crossing
            mid = 0.5 * (lo + hi)
            if cs.design_pipeline(cs.r_nearest_ring(400, r, mid)).rate > 0:
                lo = mid
            else:
                hi = mid
        crossings[r] = 0.5 * (lo + hi)
    in_band = {r: a for r, a in crossings.items() if 0.7 <= a <= 0.9}
    assert in_band, f"no displayed radius crosses zero in [0.7, 0.9]; crossings: {crossings}"
    _verdict(
        6,
        "qualitative sweep claims",
        True,
        f"zero crossings {({r: round(a, 3) for r, a in crossings.items()})}, in-band {sorted(in_band)}",
    )


def test_criterion_7_worked_constants():
    model = cs.ring(4, 0.5)
    pipeline = cs.design_pipeline(model)
    minimax = cs.minimax_h(cs.full_spectrum(model))
    h_closed = cs.closed_design(model).h
    rate_closed = cs.closed_form_R(model)

    for h in (pipeline.h, minimax.h, h_closed):
        assert h == pytest.approx(8 / 11, abs=1e-9)
    for gamma in (pipeline.gamma, minimax.gamma, abs(1 - h_closed * (1 + 0.5j))):
        assert gamma == pytest.approx(5 / 11, abs=1e-9)
    for rate in (pipeline.rate, minimax.rate, rate_closed.value):
        assert rate == pytest.approx(6 / 11, abs=1e-9)
    assert abs(pipeline.h - minimax.h) <= 1e-9
    assert abs(pipeline.h - h_closed) <= 1e-9
    assert abs(pipeline.gamma - minimax.gamma) <= 1e-9
    assert rate_closed.tag is cs.ReconciliationTag.IDENTICAL
    _verdict(7, "worked constants for the asymmetric 4-ring", True, "h=8/11, gamma=5/11, R=6/11")
