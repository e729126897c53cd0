"""Output checks of the benchmark and the reference tables they use.

Every checker returns a list of failure messages; an empty list means
the output passed.  The checks hold for any workload seed:

* figure CSVs match the recorded CSVs value for value, column by column;
* design requests match the recorded h, gamma, rate, reconciliation tag
  and raised exception type;
* the root-of-unity oracle agrees with the closed form to 1e-9, scaled
  by max |lambda|;
* the minimax gamma is at most the pair gamma + 1e-9 and matches the
  recorded minimax gamma;
* simulation keeps the mean (drift <= 1e-12 ||x0||), structured and
  dense runs of one model agree to 1e-12, and the final error obeys
  ||e_T|| <= rho**T ||e_0|| plus a rounding allowance, where
  rho = max over nonzero lambda of |1 - h lambda| (exact here because
  every Laplacian of these families is normal);
* ``uniform_vector`` is bit-identical to the scalar splitmix64 stream.

The reference tables under ``reference/`` were written by
``record_reference.py`` from the library as it was when the benchmark
was added.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from consensus_spectra import simulate

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DESIGN_REQUESTS_CSV = REFERENCE_DIR / "design_requests.csv"
CERTIFY_JSON = REFERENCE_DIR / "certify.json"

ORACLE_TOL = 1e-9
MINIMAX_TOL = 1e-9
REQUEST_REL_TOL = 1e-12
DRIFT_TOL = 1e-12
DENSE_TOL = 1e-12
EPS = float(np.finfo(float).eps)


def figure_reference_path(figure_id: int) -> Path:
    return REFERENCE_DIR / f"fig{figure_id}.csv"


def _parse_semicolon_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text), delimiter=";"))
    return rows[0], rows[1:]


def check_figure_csv(reference: str, produced: str) -> list[str]:
    """Every reference column is present and equal cell for cell."""
    ref_header, ref_rows = _parse_semicolon_csv(reference)
    header, rows = _parse_semicolon_csv(produced)
    missing = [c for c in ref_header if c not in header]
    if missing:
        return [f"columns {missing} missing"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    where = [header.index(c) for c in ref_header]
    failures = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, j, expected in zip(ref_header, where, ref):
            if row[j] != expected:
                failures.append(f"row {i} {col}: {row[j]!r} != {expected!r}")
    return failures


# --- design requests ----------------------------------------------------------


def load_design_reference(path: Path = DESIGN_REQUESTS_CSV) -> dict[str, dict]:
    """Reference table keyed by model spec."""
    header, rows = _parse_semicolon_csv(path.read_text())
    table = {}
    for row in rows:
        rec = dict(zip(header, row))
        for key in ("h", "gamma", "rate"):
            rec[key] = float(rec[key]) if rec[key] else None
        table[rec["spec"]] = rec
    return table


def design_record(payload: dict | None, error: str) -> dict:
    """The fields of a design request that the reference table pins."""
    rec = (payload or {}).get("reconciliation") or {}
    return {
        "h": None if payload is None else payload["h"],
        "gamma": None if payload is None else payload["gamma"],
        "rate": None if payload is None else payload["rate"],
        "tag": rec.get("tag", ""),
        "error": error,
    }


def _same_float(got, expected, rel_tol: float) -> bool:
    if got is None or expected is None:
        return got is expected
    if math.isnan(expected):
        return math.isnan(got)
    return abs(got - expected) <= rel_tol * max(1.0, abs(expected))


def check_design_request(reference: dict, produced: dict) -> list[str]:
    failures = []
    for key in ("h", "gamma", "rate"):
        if not _same_float(produced[key], reference[key], REQUEST_REL_TOL):
            failures.append(f"{key} {produced[key]!r} != reference {reference[key]!r}")
    for key in ("tag", "error"):
        if produced[key] != reference[key]:
            failures.append(f"{key} {produced[key]!r} != reference {reference[key]!r}")
    return failures


# --- certify ------------------------------------------------------------------


def load_certify_reference(path: Path = CERTIFY_JSON) -> dict[str, dict]:
    return json.loads(path.read_text())


def oracle_error(closed: np.ndarray, oracle: np.ndarray) -> float:
    """max |oracle - closed| scaled by max |lambda|."""
    return float(np.max(np.abs(oracle - closed)) / np.max(np.abs(closed)))


def check_oracle(scaled_error: float) -> list[str]:
    if not scaled_error <= ORACLE_TOL:
        return [f"oracle differs from the closed form by {scaled_error:.3e} x max|lambda|"]
    return []


def check_minimax(minimax_gamma: float, pair_gamma: float, reference_gamma: float) -> list[str]:
    failures = []
    if not minimax_gamma <= pair_gamma + MINIMAX_TOL:
        failures.append(f"minimax gamma {minimax_gamma!r} above pair gamma {pair_gamma!r}")
    if not abs(minimax_gamma - reference_gamma) <= MINIMAX_TOL:
        failures.append(f"minimax gamma {minimax_gamma!r} != reference {reference_gamma!r}")
    return failures


# --- simulation ---------------------------------------------------------------


def check_drift(averages: np.ndarray, x0: np.ndarray) -> list[str]:
    drift = float(np.max(np.abs(averages - averages[0])))
    if not drift <= DRIFT_TOL * float(np.linalg.norm(x0)):
        return [f"mean drifted by {drift:.3e}"]
    return []


def check_dense_agreement(structured, dense) -> list[str]:
    """Structured and dense traces of one run agree to 1e-12."""
    failures = []
    for field in ("error_norms", "averages"):
        a, b = getattr(structured, field), getattr(dense, field)
        if a.shape != b.shape:
            failures.append(f"{field}: {a.shape} != {b.shape}")
        elif not np.max(np.abs(a - b)) <= DENSE_TOL:
            failures.append(f"{field} differ by {np.max(np.abs(a - b)):.3e}")
    return failures


def spectral_radius(h: float, eigenvalues: np.ndarray) -> float:
    """max |1 - h lambda| over the nonzero eigenvalues (position 0 is 0)."""
    return float(np.max(np.abs(1.0 - h * eigenvalues[1:])))


def check_final_error(
    error_norms: np.ndarray, x0: np.ndarray, h: float, eigenvalues: np.ndarray, degree: float
) -> list[str]:
    """||e_T|| <= rho**T ||e_0|| + T * eps * (1 + 2 h (2 deg + 2) deg) ||x0||.

    The second term bounds T steps of rounding: one apply of L sums at
    most 2 deg + 1 terms whose weights total 2 deg in absolute value, and
    no state is larger than x0 while rho <= 1.
    """
    steps = len(error_norms) - 1
    rho = spectral_radius(h, eigenvalues)
    bound = rho**steps * float(error_norms[0])
    allowance = steps * EPS * (1.0 + 2.0 * abs(h) * (2.0 * degree + 2.0) * degree)
    allowance *= float(np.linalg.norm(x0))
    final = float(error_norms[-1])
    if not final <= bound + allowance:
        return [f"final error {final:.3e} above rho^T bound {bound:.3e} + {allowance:.3e}"]
    return []


def splitmix_reference(seed: int, size: int) -> np.ndarray:
    nxt = simulate.splitmix64(seed)
    return np.array([(nxt() >> 11) / float(1 << 53) for _ in range(size)])


def check_uniform(values: np.ndarray, reference: np.ndarray) -> list[str]:
    if values.shape != reference.shape or not np.array_equal(values, reference):
        return ["uniform_vector differs from the scalar splitmix64 stream"]
    return []


# --- cli ----------------------------------------------------------------------


def check_exit(code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def check_equal(label: str, produced, expected) -> list[str]:
    """Exact equality of parsed numbers (arrays compared elementwise)."""
    if isinstance(expected, np.ndarray):
        produced = np.asarray(produced)
        same = produced.shape == expected.shape and np.array_equal(produced, expected)
    else:
        same = produced == expected
    return [] if same else [f"{label} differs from the library result"]
