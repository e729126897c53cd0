"""The full-spectrum scan for the extremal pair: the reference the
library's closed-form pair (``factor_extremal_pair``) is checked against.

It reads a ``Spectrum``'s N values, from either route, in one O(N) pass.
lambda_s is the nonzero eigenvalue of minimum real part, lambda_l the
eigenvalue of maximum real part.  Real-part ties within 1e-9 are broken
by the largest |imaginary part| (within the same 1e-9) and then by the
smallest flat index.  Every spectrum with a nonzero eigenvalue has a
pair, even one whose members have equal moduli (the 3-node ring).
"""

from __future__ import annotations

import numpy as np

from consensus_spectra import ComplexEigenvalue, DegenerateError

RE_TIE_TOL = 1e-9


def eigenvalue(spectrum, pos: int) -> ComplexEigenvalue:
    """The eigenvalue at flat position ``pos`` with its index tuple
    (mixed radix over the model's shape, dimension 1 slowest)."""
    v = spectrum.values[pos]
    index = tuple(int(c) for c in np.unravel_index(pos, spectrum.model.shape))
    return ComplexEigenvalue(re=float(v.real), im=float(v.imag), index=index)


def extremal_pair(spectrum) -> tuple[ComplexEigenvalue, ComplexEigenvalue]:
    values = spectrum.values
    if len(values) < 2:
        raise DegenerateError("spectrum has no nonzero eigenvalue")
    nz = values[1:]  # flat position 0 is the consensus eigenvalue
    re = nz.real
    im_abs = np.abs(nz.imag)

    def pick(candidate_mask: np.ndarray) -> int:
        cand = np.flatnonzero(candidate_mask)
        best_im = im_abs[cand].max()
        cand = cand[im_abs[cand] >= best_im - RE_TIE_TOL]
        return int(cand.min()) + 1  # back to flat spectrum position

    lam_s = eigenvalue(spectrum, pick(re <= re.min() + RE_TIE_TOL))
    lam_l = eigenvalue(spectrum, pick(re >= re.max() - RE_TIE_TOL))
    return lam_s, lam_l
