"""Complex Laplacian spectra for the regular network families.

Two independent routes produce the same spectrum:

* closed trigonometric forms, one expression for every factor;
* the discrete Fourier transform of each factor's circulant first row
  (the oracle route, kept free of any closed form).

Either way a spectrum is the Cartesian sum of the spectra of the
model's circulant factors (``NetworkModel.factors``) over the index
grid.

Eigenvalues are indexed, not sorted: the consensus eigenvalue is the
all-zeros index.  Every design reads one extremal pair,
``factor_extremal_pair``, a tuple (lambda_s, lambda_l); a
``ComplexEigenvalue`` stores re, im and index, and derives ``value``.
lambda_s is the nonzero eigenvalue of minimum real part, lambda_l the
eigenvalue of maximum real part, a real-part tie (within 1e-9) goes to
the largest |imaginary part| (within 1e-9) and then to the smallest
flat index.  It reads the closed-form per-dimension factors without
building the N eigenvalues, and every model has a pair.  Closed-form
real parts are independent of the asymmetric factor a, and each
factor's imaginary part is a times an a-free sine sum, so the
candidates for the pair are selected once per topology and a decides
only the |imaginary part| tie-break among them.
No route validates its model: a ``NetworkModel`` is checked when built.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ParameterError
from .topology import NetworkModel, factor_row, to_csv, to_json


class SpectrumSource(enum.Enum):
    CLOSED_FORM = "closed"
    DFT_ORACLE = "dft"


@dataclass(frozen=True)
class ComplexEigenvalue:
    re: float
    im: float
    index: tuple[int, ...]

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class Spectrum:
    """Every eigenvalue of a model's Laplacian, exactly once.

    Values are stored as a flat complex array in mixed-radix index
    order (dimension 1 slowest), so flat position 0 is always the
    consensus eigenvalue.  ``full_spectrum`` builds every spectrum, so
    the values are always those of ``model`` under ``source``.
    """

    model: NetworkModel
    values: np.ndarray
    source: SpectrumSource

    def __len__(self) -> int:
        return len(self.values)


def circulant_spectrum(row: np.ndarray) -> np.ndarray:
    """Eigenvalues of a circulant matrix as the DFT of its first row.

    Eigenvalue j is sum over l of row[l] * w**(l*j) with
    w = exp(2*pi*i/n).  This is the oracle route: it deliberately
    avoids every closed form in this module.
    """
    # numpy's ifft carries the positive exponent (and a 1/n factor), so
    # index j lands on w**(l*j); fft would give the conjugate at index -j
    return len(row) * np.fft.ifft(row)


def _compose_cartesian(per_dim: list[np.ndarray]) -> np.ndarray:
    """Sum per-dimension eigenvalues over the full index grid, flattened
    with dimension 1 slowest-varying."""
    def outer_sum(acc, nxt):
        return (acc[:, None] + nxt[None, :]).ravel()

    return reduce(outer_sum, per_dim)


def _closed_parts(factors: tuple[tuple[int, int], ...]) -> list[tuple]:
    """Closed-form (real part, sine sum) of each circulant factor (side n,
    radius r): r - sum of cos(2 pi j k / n) and sum of sin(2 pi j k / n)
    over k = 1..r, at every index j.  Neither depends on a."""
    parts = []
    for n, r in factors:
        angle = 2.0 * np.pi * np.arange(n)[:, None] * np.arange(1, r + 1)[None, :] / n
        parts.append((r - np.cos(angle).sum(axis=1), np.sin(angle).sum(axis=1)))
    return parts


def _factors(model: NetworkModel, source: SpectrumSource) -> list[np.ndarray]:
    """The spectra of the model's circulant factors from the requested
    route; ``_compose_cartesian`` of them is its full spectrum.

    DFT_ORACLE transforms each factor's circulant row, which stays
    independent of the trigonometric simplification.  Any other source
    raises ParameterError.
    """
    if source is SpectrumSource.CLOSED_FORM:
        # real part + (1j * a) * sine sum
        return [re + 1j * model.a * s for re, s in _closed_parts(model.factors)]
    if source is SpectrumSource.DFT_ORACLE:
        return [circulant_spectrum(factor_row(n, r, model.a)) for n, r in model.factors]
    raise ParameterError(f"unknown spectrum source {source!r}; expected a SpectrumSource")


def closed_values(model: NetworkModel) -> np.ndarray:
    """All eigenvalues from the closed forms, as a flat complex array."""
    return _compose_cartesian(_factors(model, SpectrumSource.CLOSED_FORM))


def full_spectrum(
    model: NetworkModel, source: SpectrumSource = SpectrumSource.CLOSED_FORM
) -> Spectrum:
    """Complete spectrum via the requested route: the Cartesian sum of the
    per-dimension factors (see ``_factors``)."""
    return Spectrum(model=model, values=_compose_cartesian(_factors(model, source)), source=source)


_RE_TIE_TOL = 1e-9


@lru_cache(maxsize=1024)
def _closed_candidates(factors: tuple[tuple[int, int], ...]) -> tuple[tuple, tuple]:
    """The candidates for lambda_s and for lambda_l of one topology (its
    circulant factors, so a ring and the r = 1 r-nearest ring share): every
    nonzero index tuple whose composed real part lies within the tie
    tolerance of the nonzero minimum (maximum), in flat index order, each
    as (index, real part, per-dimension sine sums).

    Float addition is monotone, so a composed real part can lie within
    the tolerance of the extreme only if each component does with every
    other dimension held at its own extreme.  The product of those few
    per-dimension candidates is composed in ``_compose_cartesian`` order,
    which reproduces every real part and the flat index order.

    Real parts and sine sums do not depend on a, so every a reuses them.
    1024 entries hold the acceptance grid's 302 topologies (361 models;
    59 rings share factors) and a figure's handful with room to spare.
    """
    parts = _closed_parts(factors)

    def side(sign: float) -> tuple:
        # sign 1 selects the smallest nonzero real part, sign -1 the
        # largest; negation is exact, so every sum and threshold is the
        # negation of the one a scan of the full spectrum computes
        re = [sign * p[0] for p in parts]
        low_nz = [float(r[1:].min()) for r in re]
        low = [min(float(r[0]), v) for r, v in zip(re, low_nz)]

        def held(d, x):
            # x in dimension d and every other dimension at its minimum,
            # added in _compose_cartesian's order
            return reduce(operator.add, low[:d] + [x] + low[d + 1 :])

        # a nonzero index tuple has a nonzero component in some dimension d
        limit = min(held(d, v) for d, v in enumerate(low_nz)) + _RE_TIE_TOL
        cands = [np.flatnonzero(held(d, r) <= limit) for d, r in enumerate(re)]
        values = _compose_cartesian([p[0][c] for p, c in zip(parts, cands)])
        keep = sign * values <= limit
        # the all-zeros index, first when every candidate set holds it, is
        # the consensus eigenvalue
        keep[0] &= any(c[0] for c in cands)
        at = np.unravel_index(np.flatnonzero(keep), [len(c) for c in cands])
        index = [c[i].tolist() for c, i in zip(cands, at)]
        terms = [p[1][i].tolist() for p, i in zip(parts, index)]
        return tuple(zip(zip(*index), values[keep].tolist(), zip(*terms)))

    return side(1.0), side(-1.0)


def _pick(side: tuple, a: float) -> ComplexEigenvalue:
    """The tie rule on one side's candidates: the largest |imaginary
    part| within the tolerance, then the smallest flat index.
    A factor's imaginary part is 0.0 + a * (its sine sum), the bits of
    ``_factors``' ``re + 1j * a * s``; a candidate's is their sum in
    ``_compose_cartesian`` order."""
    ims = []
    for _, _, sines in side:
        im = 0.0 + a * sines[0]
        for s in sines[1:]:
            im += 0.0 + a * s
        ims.append(im)
    k = 0
    if len(ims) > 1:
        floor = max(map(abs, ims)) - _RE_TIE_TOL
        while abs(ims[k]) < floor:
            k += 1
    index, re, _ = side[k]
    return ComplexEigenvalue(re=re, im=float(ims[k]), index=index)


def factor_extremal_pair(model: NetworkModel) -> tuple[ComplexEigenvalue, ComplexEigenvalue]:
    """The design's extremal pair (lambda_s, lambda_l), from the
    closed-form per-dimension factors alone: O(sum of the sides), not O(N).

    lambda_s is the nonzero eigenvalue of minimum real part, lambda_l the
    eigenvalue of maximum real part.  A real-part tie (within 1e-9) goes
    to the largest |imaginary part| (within 1e-9), then to the smallest
    flat index: among equal real parts the largest |im| member has the
    largest modulus of 1 - h*lambda for any h > 0, so it constrains the
    design.  The tie is absolute, so past a side of about 2.4e5 the gap
    6*pi**2/n**2 between that side's two slowest real parts falls below
    it and lambda_s need not be the slowest mode: ``ring(10**6, 0.3)``
    picks index (7,).  Each value has the bits of
    ``full_spectrum(model)``'s entry at its index.  The candidates
    (``_closed_candidates``) come from the a-free real parts, once per
    topology; a enters only at the pick, in O(candidates).

    Every model has a pair, the 3-node ring's two equal index-1 members
    included; only the equal-modulus solve ``design.solve_h_pair`` refuses.
    """
    return tuple(_pick(side, model.a) for side in _closed_candidates(model.factors))


# --- export -------------------------------------------------------------------


def _columns(spectrum: Spectrum) -> tuple[list, list, list]:
    """Per-dimension index components, real and imaginary parts, as lists."""
    shape = spectrum.model.shape
    index = np.indices(shape).reshape(len(shape), -1).tolist()
    return index, spectrum.values.real.tolist(), spectrum.values.imag.tolist()


def spectrum_to_csv(spectrum: Spectrum) -> str:
    """Semicolon CSV with columns index;re;im (multi-indices joined by |)."""
    index, re, im = _columns(spectrum)
    joined = list(map("|".join, zip(*[list(map(str, k)) for k in index])))
    return to_csv(("index", "re", "im"), (joined, re, im))


def spectrum_to_json(spectrum: Spectrum) -> str:
    index, re, im = _columns(spectrum)
    return to_json([{"index": i, "re": r, "im": m} for i, r, m in zip(zip(*index), re, im)])
