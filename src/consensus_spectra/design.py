"""Best-constant weight design: consensus parameter, factor and rate.

The canonical route (``design_pipeline``) works on any model, checked
when it was built (no route here validates again).  It picks lambda_s,
the nonzero eigenvalue of minimum real part, and lambda_l, the
eigenvalue of maximum real part; a real-part tie goes to the largest
|imaginary part| and then to the smallest index.  The pair comes from
the closed-form per-dimension factors (``spectral.factor_extremal_pair``;
no full spectrum is built).  It then solves

    |1 - h*lambda_s| = |1 - h*lambda_l|

for the single nonzero real h, and reports the convergence factor
gamma = |1 - h*lambda_s|.  Only that solve (``solve_h_pair``) refuses a
model, when the pair's moduli coincide (the 3-node ring).  A
``ConsensusDesign`` stores h, gamma, the method (its route's name in
``DESIGN_METHODS``) and the model's pair; its ``rate`` R = 1 - gamma
is derived.

A catalog of closed-form expressions covers each topology/parity case
(even/odd ring, even-even/odd-odd torus, all-even/all-odd m-torus,
even/odd r-nearest ring).  One route reads it: ``closed_form_R`` and
``closed_design`` run the pipeline and hand its design to ``_catalog``,
which finds the parity case once and evaluates the case's h and rate
entries.  So no entry is evaluated where the pair design does not exist
(the odd-ring entries are 0/0 on the 3-node ring), and the catalog
reads the pipeline's pair.  The entries are evaluated as catalogued, in
plain floats; at a pole an r-nearest entry reports nan (0/0 or a
negative radicand) or an infinity signed like its numerator, never an
error.  ``closed_form_R`` returns the raw value beside the pipeline
rate; the ``ReconciledRate``'s derived ``tag`` records whether the
value equals the pipeline rate, the pipeline rate minus one, or
neither.  ``closed_design(model).h`` is the catalog h.  No entry is
silently corrected.  Known quirks (literal 0.16 coefficients in the
odd-odd torus entry, the squared asymmetry coefficient in the r-nearest
entries read as a**2) are kept so that deviations stay visible.

``minimax_h`` is an independent oracle: it minimizes the worst modulus
max |1 - h*lambda| over all nonzero eigenvalues exactly.  The maximum
is attained on the vertices of the spectrum's convex hull, built from
the per-dimension factor hulls, and the minimizing h is an active
vertex's own minimizer or the crossing of two active vertices; it
exists for every model.  It too reads only the model's closed-form
per-dimension factors:
``minimax_h(spectrum)`` takes the spectrum's model, not its values or
source, and no design route builds a full spectrum.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DegenerateError, UnsupportedParityError
from .spectral import ComplexEigenvalue, Spectrum, SpectrumSource, _factors, factor_extremal_pair
from .topology import NetworkModel, format_model

ASSUMPTION_NOTES = (
    "r-nearest closed forms read the squared asymmetry coefficient as a**2",
    "odd-odd torus closed form keeps its literal 0.16 coefficients",
)


class ReconciliationTag(enum.Enum):
    IDENTICAL = "Identical"
    OFFSET_BY_ONE = "OffsetByOne"
    MISMATCH = "Mismatch"


@dataclass(frozen=True)
class ConsensusDesign:
    """h, gamma, the method's ``DESIGN_METHODS`` name and the model's extremal pair."""

    h: float
    gamma: float
    method: str
    lambda_s: ComplexEigenvalue
    lambda_l: ComplexEigenvalue

    @property
    def rate(self) -> float:
        return 1.0 - self.gamma


_RECONCILE_TOL = 1e-9


@dataclass(frozen=True)
class ReconciledRate:
    """A catalog rate value and its relation to the pipeline rate."""

    value: float
    pipeline_rate: float
    case: str

    @property
    def tag(self) -> ReconciliationTag:
        # a non-finite value is within no tolerance of anything: a mismatch
        if abs(self.value - self.pipeline_rate) <= _RECONCILE_TOL:
            return ReconciliationTag.IDENTICAL
        if abs(self.value - (self.pipeline_rate - 1.0)) <= _RECONCILE_TOL:
            return ReconciliationTag.OFFSET_BY_ONE
        return ReconciliationTag.MISMATCH


def solve_h_pair(lambda_s: complex, lambda_l: complex) -> float:
    """Real nonzero solution of |1 - h*l_s| = |1 - h*l_l|.

    Expanding both squared moduli and cancelling the quadratic equation's
    trivial root h = 0 leaves

        h = 2 (Re l_l - Re l_s) / (|l_l|^2 - |l_s|^2),

    which does not exist when the moduli coincide.
    """
    den = abs(lambda_l) ** 2 - abs(lambda_s) ** 2
    if abs(den) <= 1e-12 * max(1.0, abs(lambda_l) ** 2):
        raise DegenerateError(
            f"|lambda_s| = |lambda_l| (= {abs(lambda_s)!r}); equal-modulus equation has no nonzero solution"
        )
    return 2.0 * (lambda_l.real - lambda_s.real) / den


def _on_slow_mode(h: float, lam_s, lam_l, method: str) -> ConsensusDesign:
    """Design with gamma = |1 - h*lambda_s| measured on the pair's slow mode."""
    return ConsensusDesign(h, abs(1.0 - h * lam_s.value), method, lam_s, lam_l)


def design_pipeline(model: NetworkModel) -> ConsensusDesign:
    """Canonical best-constant design: extremal pair -> h.

    This is the reference every closed-form entry is checked against.
    """
    lam_s, lam_l = factor_extremal_pair(model)
    h = solve_h_pair(lam_s.value, lam_l.value)
    return _on_slow_mode(h, lam_s, lam_l, "pipeline")


# --- closed-form catalog ------------------------------------------------------
#
# Case ids: ring-even, ring-odd, torus2-even, torus2-odd, torusN-even,
# torusN-odd, rnearest-even, rnearest-odd.
#
# Torus entries are written against a specific dimension ordering: the
# dimension that carries the slow eigenvalue index is the one with the
# largest side (that side minimizes the nonzero real part), so the 2-D
# entries receive (k_small, k_big) and the N-D entries put the largest
# side first.


def formula_case(model: NetworkModel) -> str:
    parities = {k % 2 for k in model.shape}
    if len(parities) > 1:
        raise UnsupportedParityError(
            f"no closed form for mixed-parity torus dims {model.dims}; use design_pipeline"
        )
    # one side is a ring's or an r-nearest ring's; more make a torus
    m = len(model.shape)
    family = model.kind.value if m == 1 else "torus2" if m == 2 else "torusN"
    return f"{family}-{'even' if parities.pop() == 0 else 'odd'}"


def _h_ring_even(n: int, a: float) -> float:
    c, s = math.cos(2 * math.pi / n), math.sin(2 * math.pi / n)
    return (2 + 2 * c) / (3 - c * c + 2 * c - a * a * s * s)


def _h_ring_odd(n: int, a: float) -> float:
    c1, s1 = math.cos(math.pi / n), math.sin(math.pi / n)
    c2, s2 = math.cos(2 * math.pi / n), math.sin(2 * math.pi / n)
    return (2 * (c1 + c2)) / (
        -c2 * c2 + 2 * c2 - a * a * s2 * s2 + c1 * c1 + a * a * s1 * s1 + 2 * c1
    )


def _h_torus2_even(k_big: int, a: float) -> float:
    c, s = math.cos(2 * math.pi / k_big), math.sin(2 * math.pi / k_big)
    return (6 + 2 * c) / (15 - c * c + 2 * c - a * a * s * s)


def _h_torus2_odd(k_small: int, k_big: int, a: float) -> float:
    # a is intentionally unused: the entry hard-codes 0.16 literals in
    # the two places the squared asymmetry coefficient would sit
    del a
    c = math.cos(2 * math.pi / k_big)
    s = math.sin(2 * math.pi / k_big)
    c1 = math.cos(math.pi * (k_small - 1) / k_small)
    c2 = math.cos(math.pi * (k_big - 1) / k_big)
    s1 = math.sin(math.pi * (k_small - 1) / k_small)
    s2 = math.sin(math.pi * (k_big - 1) / k_big)
    x = 2 * c1 + c2
    num = -2 * c + 2 * x - 2
    den = 0.16 * s * s - 0.16 * (s1 + s2) ** 2 + c * c - 2 * c - x * x + 4 * x - 3
    return num / den


def _h_torusN_even(k_slow: int, m: int, a: float) -> float:
    c, s = math.cos(2 * math.pi / k_slow), math.sin(2 * math.pi / k_slow)
    return (2 - 2 * c - 4 * m) / (1 - 4 * m * m + c * c - 2 * c + a * a * s * s)


def _h_torusN_odd(dims_slow_first: tuple[int, ...], a: float) -> float:
    k1 = dims_slow_first[0]
    m = len(dims_slow_first)
    c, s = math.cos(2 * math.pi / k1), math.sin(2 * math.pi / k1)
    sum_c = sum(math.cos(math.pi * (k - 1) / k) for k in dims_slow_first)
    sum_s = sum(math.sin(math.pi * (k - 1) / k) for k in dims_slow_first)
    num = 2 - 2 * c - 4 * m
    den = (
        1 + c * c - 2 * c + a * a * s * s - m * m - sum_c * sum_c - a * a * sum_s * sum_s
    )
    return num / den


def _divide(num: float, den: float) -> float:
    if den == 0.0:
        return math.nan if num == 0.0 else math.copysign(math.inf, num)
    return num / den


def _rnearest_terms(n: int, r: int):
    """Shared building blocks: the slow-index Dirichlet ratio S and the
    matching imaginary-part combination C."""
    S = math.sin((2 * r + 1) * math.pi / n) / math.sin(math.pi / n)
    C = 1 / math.tan(math.pi / n) - math.cos((2 * r + 1) * math.pi / n) / math.sin(math.pi / n)
    return S, C


def _h_rnearest_even(n: int, r: int, a: float) -> float:
    S, C = _rnearest_terms(n, r)
    cr = math.cos(math.pi * r)
    num = cr - S
    den = 0.25 * S * S - (r + 0.5) * (S - cr) - 0.25 * cr * cr + 0.25 * a * a * C * C
    return _divide(num, den)


def _h_rnearest_odd(n: int, r: int, a: float) -> float:
    S, C = _rnearest_terms(n, r)
    half = math.pi * (n - 1) / (2 * n)
    Sp = math.sin((2 * r + 1) * half) / math.sin(half)
    Cp = 1 / math.tan(half) - math.cos((2 * r + 1) * half) / math.sin(half)
    num = Sp - S
    den = (
        0.25 * S * S
        + (r + 0.5) * (S - Sp)
        - 0.25 * Sp * Sp
        + 0.25 * a * a * C * C
        - 0.25 * a * a * Cp * Cp
    )
    return _divide(num, den)


def _R_ring_even(n: int, a: float) -> float:
    c = math.cos(2 * math.pi / n)
    a2 = a * a
    return (2 - 2 * a2 - 2 * c + 2 * a2 * c) / (3 - a2 + (-1 + a2) * c)


def _R_ring_odd(n: int, a: float) -> float:
    c1 = math.cos(math.pi / n)
    c2 = math.cos(2 * math.pi / n)
    c3 = math.cos(3 * math.pi / n)
    c4 = math.cos(4 * math.pi / n)
    a2, a4 = a * a, a ** 4
    inner = (
        2
        + 4 * a2
        + 2 * a4
        - 2 * (-1 + a4) * c1
        + (-1 + a2) ** 2 * c2
        + 2 * c3
        - 2 * a4 * c3
        + c4
        - 2 * a2 * c4
        + a4 * c4
    )
    return 1 - math.sqrt(inner) / (math.sqrt(2) * (2 - (-1 + a2) * c1 + (-1 + a2) * c2))


def _R_torus2_even(k_big: int, a: float) -> float:
    c, s = math.cos(2 * math.pi / k_big), math.sin(2 * math.pi / k_big)
    a2 = a * a
    return (a2 * s * s + c * c + 6 * c + 9) / (a2 * s * s + c * c - 2 * c - 15)


def _R_torus2_odd(k_small: int, k_big: int, a: float) -> float:
    c1, s1 = math.cos(math.pi / k_small), math.sin(math.pi / k_small)
    c2, s2 = math.cos(math.pi / k_big), math.sin(math.pi / k_big)
    cb, sb = math.cos(2 * math.pi / k_big), math.sin(2 * math.pi / k_big)
    a2 = a * a
    p1 = 4 * (2 * c1 + c2 + cb + 1)
    q1 = (
        -a2 * sb * sb
        + a2 * (s1 + s2) ** 2
        - cb * cb
        + (2 * c1 + c2) ** 2
        + 8 * c1
        + 4 * c2
        + 2 * cb
        + 3
    )
    return math.sqrt(a2 * p1 * p1 * sb * sb / (q1 * q1) + (1 - p1 * s2 * s2 / q1) ** 2)


def _R_torusN_even(k_slow: int, m: int, a: float) -> float:
    c, s = math.cos(2 * math.pi / k_slow), math.sin(2 * math.pi / k_slow)
    a2 = a * a
    num = a2 * s * s + (4 * m - 2) * c + c * c + (1 - 2 * m) ** 2
    den = a2 * s * s + c * c - 2 * c - 4 * m * m + 1
    return num / den


def _R_rnearest_even(n: int, r: int, a: float) -> float:
    S, _ = _rnearest_terms(n, r)
    sp = math.sin(math.pi / n)
    s2p = math.sin(2 * math.pi / n)
    c2p = math.cos(2 * math.pi / n)
    cr = math.cos(math.pi * r)
    crn = math.cos((2 * r + 1) * math.pi / n)
    srn = math.sin((2 * r + 1) * math.pi / n)
    p2 = (a * sp * crn - 0.5 * a * s2p) / (c2p - 1)
    q2 = S - cr
    r2 = sp * srn / (c2p - 1) + r + 0.5
    s_2 = (
        0.25 * a * a * (2 * sp * crn - s2p) ** 2 / (c2p - 1) ** 2
        + sp * sp * srn * srn / (c2p - 1) ** 2
        + (r + 0.5) * (cr - srn / sp)
        - 0.25 * cr * cr
    )
    inner = _divide(p2 * q2, s_2) ** 2 + _divide(r2 * q2, s_2) + 1
    return 1 - math.sqrt(inner) if inner >= 0 else math.nan


def _R_rnearest_odd(n: int, r: int, a: float) -> float:
    S, _ = _rnearest_terms(n, r)
    half = math.pi * (n - 1) / (2 * n)
    sp = math.sin(math.pi / n)
    s2p = math.sin(2 * math.pi / n)
    c2p = math.cos(2 * math.pi / n)
    cp = math.cos(math.pi / n)
    chn = math.cos(math.pi / (2 * n))
    srn = math.sin((2 * r + 1) * math.pi / n)
    crn = math.cos((2 * r + 1) * math.pi / n)
    shn = math.sin((2 * r + 1) * half)
    chn2 = math.cos((2 * r + 1) * half)
    p3 = (-a * sp * crn + 0.5 * a * s2p) / (c2p - 1)
    q3 = -S + shn / chn
    r3 = -sp * srn / (c2p - 1) - r - 0.5
    s_3 = (
        -0.25 * a * a * (2 * chn * chn2 - sp) ** 2 / (cp + 1) ** 2
        + 0.25 * a * a * (2 * sp * crn - s2p) ** 2 / (c2p - 1) ** 2
        - chn * chn * shn * shn / (cp + 1) ** 2
        + sp * sp * srn * srn / (c2p - 1) ** 2
        + (r + 0.5) * (shn / chn - S)
    )
    inner = _divide(p3 * q3, s_3) ** 2 + _divide(r3 * q3, s_3) + 1
    return 1 - math.sqrt(inner) if inner >= 0 else math.nan


# case id -> (h entry, R entry, the entries' arguments).  The arguments
# are built from the model and its sides largest first (the largest side
# carries the slow eigenvalue index); the all-odd N-torus has no
# catalogued rate entry.
_CATALOG = {
    "ring-even": (_h_ring_even, _R_ring_even, lambda m, k: (m.n, m.a)),
    "ring-odd": (_h_ring_odd, _R_ring_odd, lambda m, k: (m.n, m.a)),
    "rnearest-even": (_h_rnearest_even, _R_rnearest_even, lambda m, k: (m.n, m.r, m.a)),
    "rnearest-odd": (_h_rnearest_odd, _R_rnearest_odd, lambda m, k: (m.n, m.r, m.a)),
    "torus2-even": (_h_torus2_even, _R_torus2_even, lambda m, k: (k[0], m.a)),
    "torus2-odd": (_h_torus2_odd, _R_torus2_odd, lambda m, k: (k[1], k[0], m.a)),
    "torusN-even": (_h_torusN_even, _R_torusN_even, lambda m, k: (k[0], len(k), m.a)),
    "torusN-odd": (_h_torusN_odd, None, lambda m, k: (k, m.a)),
}


def _catalog(model: NetworkModel, pipeline: ConsensusDesign) -> tuple[str, float, float]:
    """(case, h, rate value) of the catalog entries for the model's parity
    case, evaluated verbatim; no case is patched to agree with the pipeline.

    ``pipeline`` is the model's ``design_pipeline`` design, so a model
    reaches an entry only once its pair design exists: the 3-node ring,
    where the odd-ring entries are 0/0, has already raised
    DegenerateError.  The all-odd N-torus has no catalogued rate entry;
    its value is its h measured on the pipeline's slow mode.  Raises
    UnsupportedParityError for mixed-parity tori.
    """
    case = formula_case(model)
    h_entry, R_entry, arguments = _CATALOG[case]
    args = arguments(model, tuple(sorted(model.shape, reverse=True)))
    h = h_entry(*args)
    if R_entry is None:
        value = _on_slow_mode(h, pipeline.lambda_s, pipeline.lambda_l, "closed").rate
    else:
        value = R_entry(*args)
    return case, h, value


def closed_form_R(model: NetworkModel) -> ReconciledRate:
    """Catalog rate value plus its reconciliation against the pipeline."""
    pipeline = design_pipeline(model)
    case, _, value = _catalog(model, pipeline)
    return ReconciledRate(value, pipeline.rate, case)


def closed_design(model: NetworkModel) -> ConsensusDesign:
    """Design built from the catalog h, measured on the slow mode.

    gamma is |1 - h*lambda_s| with the pipeline's extremal pair, so a
    deviating catalog entry shows up as a gamma unlike the pipeline's.
    """
    pipeline = design_pipeline(model)
    _, h, _ = _catalog(model, pipeline)
    return _on_slow_mode(h, pipeline.lambda_s, pipeline.lambda_l, "closed")


def _convex_hull(z: np.ndarray) -> np.ndarray:
    """Positions in ``z`` of its convex-hull vertices, counter-clockwise
    from the leftmost-lowest point (both ends for collinear points).

    Andrew's monotone chain with the stack replaced by rounds of
    simultaneous deletion: a point that does not turn left between its
    current neighbours on a chain is no hull vertex, so every such point
    goes at once, and the rounds end when both chains turn left
    everywhere.  Exact duplicates go first, since two copies of a vertex
    would each see a zero turn.
    """
    order = np.lexsort((z.imag, z.real))
    sorted_z = z[order]
    order = order[np.concatenate(([True], sorted_z[1:] != sorted_z[:-1]))]
    if len(order) < 3:
        return order
    chains = []
    for chain in (order, order[::-1]):
        while True:
            q = z[chain]
            d = q[1:] - q[:-1]
            left = (d[:-1].conj() * d[1:]).imag > 0
            if left.all():
                break
            chain = chain[np.concatenate(([True], left, [True]))]
        chains.append(chain[:-1])
    return np.concatenate(chains)


def _hull_candidates(model: NetworkModel) -> np.ndarray:
    """Values whose convex hull is that of the model's nonzero
    eigenvalues, from its closed-form factors (a ring or an r-nearest
    ring is one factor), each with the consensus value exactly 0j at
    index 0.

    The hull of a Cartesian sum is the Minkowski sum of the factor
    hulls, whose boundary is the factor edges merged by angle; the
    merged index tuples' values are composed in ``_compose_cartesian``
    order, bit for bit the spectrum's entries.  Dropping the all-zeros
    vertex cuts off only the corner it spans with its two merged
    neighbours, so the candidates are the other merged vertices and the
    nonzero eigenvalues in that corner.  Of those, only one factor's
    values can be hull vertices: a vertex with two nonzero components
    beats, in its supporting direction, both tuples that drop one of
    them, so it beats the all-zeros tuple too and is a merged vertex.
    Within the polygon the corner is zero's side of the chord; the chord
    is included, so the real segment of a = 0 keeps its points.
    """
    factors = _factors(model, SpectrumSource.CLOSED_FORM)

    def polygon(f, positions):
        # counter-clockwise from the lowest vertex, so that the edge
        # angles rise through [0, 2*pi)
        z = f[positions]
        start = np.lexsort((z.real, z.imag))[0]
        positions = np.concatenate((positions[start:], positions[:start]))
        z = f[positions]
        angles = np.mod(np.angle(np.concatenate((z[1:], z[:1])) - z), 2 * np.pi)
        return positions, np.maximum.accumulate(angles)

    polygons = [polygon(f, _convex_hull(f)) for f in factors]
    owner = np.concatenate([np.full(len(p), e) for e, (p, _) in enumerate(polygons)])
    owner = owner[np.argsort(np.concatenate([a for _, a in polygons]), kind="stable")]
    # vertex t of the sum: every polygon's start advanced by its own edges
    # among the first t
    at = []
    for e, (p, _) in enumerate(polygons):
        step = owner == e
        at.append(p[(np.cumsum(step) - step) % len(p)])
    merged = reduce(operator.add, [f[i] for f, i in zip(factors, at)])
    # the polygon from its all-zeros vertex, whose neighbours span the corner
    merged = np.roll(merged, -int(np.argmax(merged == 0)))
    chord = (merged[1] - merged[-1]).conj()
    distinct = dict(zip(model.factors, factors)).values()
    z = np.concatenate([merged[1:]] + [f[1:][(chord * (f[1:] - merged[-1])).imag <= 0] for f in distinct])
    # sorted by real and then imaginary part, each value once
    z = z[np.lexsort((z.imag, z.real))]
    return z[np.concatenate(([True], z[1:] != z[:-1]))]


def _minimax(model: NetworkModel) -> ConsensusDesign:
    """``minimax_h`` of the model's spectrum, from the closed-form
    per-dimension factors: O(sum of the sides), not O(N)."""
    z = _hull_candidates(model)
    z = z[_convex_hull(z)]
    re = z.real
    msq = re * re + z.imag * z.imag
    dual = msq - 2j * re
    outline = _convex_hull(dual)
    # the upper chain runs counter-clockwise from the rightmost vertex
    # back to the first; reversed, it lists the lines by rising slope
    right = np.lexsort((dual[outline].imag, dual[outline].real))[-1]
    upper = np.concatenate((outline[right:], outline[:1]))[::-1] if right else outline
    slope, re_up = msq[upper], re[upper]
    with np.errstate(divide="ignore", invalid="ignore"):
        # where line k hands the envelope over to line k + 1
        cross = 2.0 * (re_up[1:] - re_up[:-1]) / (slope[1:] - slope[:-1])
    # piece k reaches into h > 0 and, at its right end, the objective's
    # slope 2 (|l_k|^2 h - Re l_k) is no longer negative
    rising = (cross > 0) & (slope[:-1] * cross >= re_up[:-1])
    k = int(np.argmax(np.append(rising, True)))
    h = float(re_up[k] / slope[k])
    if k and cross[k - 1] > h:
        h = float(cross[k - 1])
    gamma = float(np.max(np.abs(1.0 - h * z)))
    return ConsensusDesign(h, gamma, "minimax", *factor_extremal_pair(model))


def minimax_h(spectrum: Spectrum) -> ConsensusDesign:
    """Minimize the worst contraction modulus over all nonzero eigenvalues.

    |1 - h*lambda| is convex in lambda, so its maximum over the spectrum
    is attained on the vertices of the convex hull of the nonzero
    eigenvalues, and only those enter.  For h > 0,

        max |1 - h*lambda|^2 = 1 + h * max (|lambda|^2 * h - 2 Re lambda),

    the inner maximum is the upper envelope of one line per vertex, and
    that envelope is dual to the upper hull of the points
    (|lambda|^2, -2 Re lambda).  The objective is convex, so its minimum
    lies on the first envelope piece at whose right end it stops
    falling: at that line's own minimizer Re lambda / |lambda|^2, or at
    the piece's left end, the crossing of two lines
    2 (Re l_i - Re l_j) / (|l_i|^2 - |l_j|^2).  The solve is exact; no
    search runs.

    Only ``spectrum.model`` is read, not the values or the source: the
    hull vertices come from the model's closed-form per-dimension
    factors.  The ``lambda_s`` and ``lambda_l`` fields are the model's
    closed-form pair (``factor_extremal_pair``), also where their moduli
    coincide and no pair design exists (the 3-node ring).
    """
    return _minimax(spectrum.model)


# design method name -> model -> design, whose ``method`` is that name;
# the names sweeps, figures and the CLI accept
DESIGN_METHODS = {
    "pipeline": design_pipeline,
    "closed": closed_design,
    "minimax": _minimax,
}


def design_export_dict(
    model: NetworkModel,
    design: ConsensusDesign,
    reconciliation: ReconciledRate | None = None,
) -> dict:
    """JSON-ready summary including the catalog caveats."""

    def ev_dict(ev: ComplexEigenvalue):
        return {"index": list(ev.index), "re": ev.re, "im": ev.im}

    rec = None
    if reconciliation is not None:
        rec = {
            "value": reconciliation.value,
            "tag": reconciliation.tag.value,
            "pipeline_rate": reconciliation.pipeline_rate,
            "case": reconciliation.case,
        }
    return {
        "model": format_model(model),
        "h": design.h,
        "gamma": design.gamma,
        "rate": design.rate,
        "method": design.method,
        "lambda_s": ev_dict(design.lambda_s),
        "lambda_l": ev_dict(design.lambda_l),
        "reconciliation": rec,
        "assumptions": list(ASSUMPTION_NOTES),
    }
