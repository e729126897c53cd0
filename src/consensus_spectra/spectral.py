"""Complex Laplacian spectra for the regular network families.

Three independent routes produce the same spectrum:

* closed trigonometric forms, one expression per family;
* the discrete Fourier transform of the circulant first row (the
  oracle route, kept free of any closed form);
* Cartesian composition for tori, summing per-ring spectra over the
  index grid.

Eigenvalues are indexed, not sorted: the consensus eigenvalue is the
all-zeros index, and extremal selection scans for the smallest and
largest real parts.  Real parts are independent of the asymmetric
factor a; imaginary parts scale linearly in it.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DegenerateError, SizeError, TopologyError
from .topology import (
    DEFAULT_DENSE_CAP,
    CirculantRow,
    Kind,
    NetworkModel,
    circulant_row,
    validate,
)


class SpectrumSource(enum.Enum):
    CLOSED_FORM = "ClosedForm"
    DFT_ORACLE = "DftOracle"
    CARTESIAN_SUM = "CartesianSum"


@dataclass(frozen=True)
class ComplexEigenvalue:
    re: float
    im: float
    index: tuple[int, ...]

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    @property
    def modulus_sq(self) -> float:
        return self.re * self.re + self.im * self.im


@dataclass(frozen=True)
class Spectrum:
    """Every eigenvalue of a model's Laplacian, exactly once.

    Values are stored as a flat complex array in mixed-radix index
    order (dimension 1 slowest), so flat position 0 is always the
    consensus eigenvalue.  ``eigenvalues`` materializes record objects
    and is meant for small models; numeric code should use ``values``.
    """

    model: NetworkModel
    values: np.ndarray
    source: SpectrumSource

    @property
    def shape(self) -> tuple[int, ...]:
        return self.model.shape

    def index_tuple(self, pos: int) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unravel_index(pos, self.shape))

    def eigenvalue(self, pos: int) -> ComplexEigenvalue:
        v = self.values[pos]
        return ComplexEigenvalue(re=float(v.real), im=float(v.imag), index=self.index_tuple(pos))

    @property
    def eigenvalues(self) -> tuple[ComplexEigenvalue, ...]:
        return tuple(self.eigenvalue(p) for p in range(len(self.values)))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return (self.eigenvalue(p) for p in range(len(self.values)))


@dataclass(frozen=True)
class ExtremalPair:
    """The design's second-smallest and largest eigenvalues."""

    lambda_s: ComplexEigenvalue
    lambda_l: ComplexEigenvalue


def circulant_spectrum(row: CirculantRow, cap: int = DEFAULT_DENSE_CAP) -> Spectrum:
    """Spectrum of a circulant matrix as the DFT of its first row.

    Eigenvalue j is sum over l of entries[l] * w**(l*j) with
    w = exp(2*pi*i/n).  This is the oracle route: it deliberately
    avoids every closed form in this module.
    """
    entries = row.entries
    n = row.order
    if n > cap:
        raise SizeError(f"circulant oracle: n={n} exceeds cap {cap}")
    # numpy's ifft carries the positive exponent (and a 1/n factor), so
    # index j lands on w**(l*j); fft would give the conjugate at index -j
    values = n * np.fft.ifft(entries)
    # model is reconstructed by the callers that have one; standalone rows
    # get a ring-shaped placeholder carrying only the order
    model = NetworkModel(kind=Kind.RING, a=0.0, n=n)
    return Spectrum(model=model, values=values, source=SpectrumSource.DFT_ORACLE)


def _closed_ring_values(n: int, a: float) -> np.ndarray:
    j = np.arange(n)
    angle = 2.0 * np.pi * j / n
    return 1.0 - np.cos(angle) + 1j * a * np.sin(angle)


def _closed_rnearest_values(n: int, r: int, a: float) -> np.ndarray:
    j = np.arange(n)[:, None]
    k = np.arange(1, r + 1)[None, :]
    angle = 2.0 * np.pi * j * k / n
    return r - np.cos(angle).sum(axis=1) + 1j * a * np.sin(angle).sum(axis=1)


def _compose_cartesian(per_dim: list[np.ndarray]) -> np.ndarray:
    """Sum per-dimension eigenvalues over the full index grid, flattened
    with dimension 1 slowest-varying."""
    def outer_sum(acc, nxt):
        return (acc[:, None] + nxt[None, :]).ravel()

    return reduce(outer_sum, per_dim)


def closed_eigenvalue(model: NetworkModel, index) -> ComplexEigenvalue:
    """Single eigenvalue from the trigonometric closed form.

    ``index`` is an integer for the 1-D kinds or a tuple of per-
    dimension indices for tori, each component in [0, k).
    """
    validate(model)
    if model.kind is Kind.TORUS:
        idx = tuple(int(c) for c in index)
        if len(idx) != len(model.dims):
            raise IndexError(f"index {idx} has {len(idx)} components, model has {len(model.dims)}")
        for c, k in zip(idx, model.dims):
            if not 0 <= c < k:
                raise IndexError(f"index component {c} outside [0, {k})")
        angles = [2.0 * np.pi * c / k for c, k in zip(idx, model.dims)]
        re = len(model.dims) - sum(np.cos(t) for t in angles)
        im = model.a * sum(np.sin(t) for t in angles)
        return ComplexEigenvalue(re=float(re), im=float(im), index=idx)

    j = int(index[0]) if isinstance(index, (tuple, list)) else int(index)
    if not 0 <= j < model.n:
        raise IndexError(f"index {j} outside [0, {model.n})")
    if model.kind is Kind.RING:
        t = 2.0 * np.pi * j / model.n
        return ComplexEigenvalue(
            re=float(1.0 - np.cos(t)), im=float(model.a * np.sin(t)), index=(j,)
        )
    k = np.arange(1, model.r + 1)
    angles = 2.0 * np.pi * j * k / model.n
    return ComplexEigenvalue(
        re=float(model.r - np.cos(angles).sum()),
        im=float(model.a * np.sin(angles).sum()),
        index=(j,),
    )


def closed_values(model: NetworkModel) -> np.ndarray:
    """All eigenvalues from the closed forms, as a flat complex array."""
    validate(model)
    if model.kind is Kind.RING:
        return _closed_ring_values(model.n, model.a)
    if model.kind is Kind.R_NEAREST_RING:
        return _closed_rnearest_values(model.n, model.r, model.a)
    per_dim = [_closed_ring_values(k, model.a) for k in model.dims]
    return _compose_cartesian(per_dim)


def full_spectrum(
    model: NetworkModel,
    source: SpectrumSource = SpectrumSource.CLOSED_FORM,
    cap: int = DEFAULT_DENSE_CAP,
) -> Spectrum:
    """Complete spectrum via the requested route.

    DFT_ORACLE transforms the circulant row for the 1-D kinds; for a
    torus it runs the per-dimension ring oracle and composes the sums,
    which stays independent of the trigonometric simplification.
    CARTESIAN_SUM is that same composition and is only defined for tori.
    """
    validate(model)
    if source is SpectrumSource.CLOSED_FORM:
        return Spectrum(model=model, values=closed_values(model), source=source)

    if model.kind is Kind.TORUS:
        if source is SpectrumSource.DFT_ORACLE or source is SpectrumSource.CARTESIAN_SUM:
            per_dim = []
            for k in model.dims:
                ring_model = NetworkModel(kind=Kind.RING, a=model.a, n=k)
                per_dim.append(circulant_spectrum(circulant_row(ring_model), cap=cap).values)
            return Spectrum(
                model=model,
                values=_compose_cartesian(per_dim),
                source=SpectrumSource.CARTESIAN_SUM,
            )
        raise TopologyError(f"unsupported source {source} for torus")

    if source is SpectrumSource.CARTESIAN_SUM:
        raise TopologyError("Cartesian composition is only defined for tori")
    spec = circulant_spectrum(circulant_row(model), cap=cap)
    return Spectrum(model=model, values=spec.values, source=SpectrumSource.DFT_ORACLE)


_RE_TIE_TOL = 1e-9
_MODULUS_TOL = 1e-12


def extremal_pair(spectrum: Spectrum) -> ExtremalPair:
    """Select the second-smallest and largest eigenvalues.

    lambda_s is the nonzero eigenvalue of minimum real part, lambda_l
    the eigenvalue of maximum real part.  Real-part ties are broken by
    the largest |imaginary part| and then the smallest index: among
    equal real parts the largest |im| member has the largest modulus of
    1 - h*lambda for any h > 0, so it is the member that actually
    constrains the design (it also reproduces the index-1 and
    half-index choices conventional for these families).

    Raises DegenerateError when the two moduli coincide, which makes
    the equal-modulus equation for h unsolvable (3-node ring).
    """
    values = spectrum.values
    if len(values) < 2:
        raise DegenerateError("spectrum has no nonzero eigenvalue")
    nz = values[1:]  # flat position 0 is the consensus eigenvalue
    re = nz.real
    im_abs = np.abs(nz.imag)

    def pick(candidate_mask: np.ndarray) -> int:
        cand = np.flatnonzero(candidate_mask)
        best_im = im_abs[cand].max()
        cand = cand[im_abs[cand] >= best_im - _RE_TIE_TOL]
        return int(cand.min()) + 1  # back to flat spectrum position

    s_pos = pick(re <= re.min() + _RE_TIE_TOL)
    l_pos = pick(re >= re.max() - _RE_TIE_TOL)
    lam_s = spectrum.eigenvalue(s_pos)
    lam_l = spectrum.eigenvalue(l_pos)
    if abs(lam_l.modulus_sq - lam_s.modulus_sq) <= _MODULUS_TOL * max(1.0, lam_l.modulus_sq):
        raise DegenerateError(
            f"extremal eigenvalues have equal moduli (|l_s|^2 = {lam_s.modulus_sq!r}, "
            f"|l_l|^2 = {lam_l.modulus_sq!r}); no nonzero consensus parameter exists"
        )
    return ExtremalPair(lambda_s=lam_s, lambda_l=lam_l)


# --- export -------------------------------------------------------------------


def _index_text(index: tuple[int, ...]) -> str:
    return "|".join(str(c) for c in index)


def spectrum_to_csv(spectrum: Spectrum) -> str:
    """Semicolon CSV with columns index;re;im (multi-indices joined by |)."""
    lines = ["index;re;im"]
    for pos in range(len(spectrum)):
        ev = spectrum.eigenvalue(pos)
        lines.append(f"{_index_text(ev.index)};{ev.re!r};{ev.im!r}")
    return "\n".join(lines) + "\n"


def spectrum_to_json(spectrum: Spectrum) -> str:
    records = [
        {"index": list(ev.index), "re": ev.re, "im": ev.im}
        for ev in spectrum
    ]
    return json.dumps(records, indent=2) + "\n"
