"""Network models and their directed Laplacian matrices.

Four regular families are supported: the ring, the r-nearest-neighbor
ring, the 2-D torus and the m-dimensional torus (the torus kind covers
every m >= 2), each a Cartesian sum of directed circulant factors
(``NetworkModel.factors``), which the spectra and Laplacians read.  The
ring stays a kind of its own for the model grammar and the catalog.

Links are directional: the forward neighbor of a node is weighted
(1 - a) / 2 and the backward neighbor (1 + a) / 2, where a in [0, 1] is
the asymmetric link factor.  a = 0 reproduces the undirected network
exactly, a = 1 is a fully one-directional cycle.  Although links are
directed, every node's in-weights and out-weights sum to the same value
for these families, which is why the Laplacians below have zero column
sums as well as zero row sums.

All values are immutable after construction and every operation is a
pure function of its inputs, so everything here is safe to share across
threads.
"""

from __future__ import annotations

import enum
import math
import numbers
import re as _re
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError, TopologyError

DEFAULT_DENSE_CAP = 10_000


class Kind(enum.Enum):
    RING = "ring"
    R_NEAREST_RING = "rnearest"
    TORUS = "torus"


def _is_int(v) -> bool:
    # stored sizes are plain ints, tested first: the ABC check costs about
    # a microsecond, and validate runs on every model built
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def _as_int(v):
    return int(v) if _is_int(v) else v


def _normalised(n, r, dims, a) -> dict:
    """The field values a model stores."""
    # sizes are stored as Python ints in a tuple, so numpy integers
    # export like ints; other values are left for validate to reject
    if dims is not None:
        dims = tuple(_as_int(k) for k in dims)
    if isinstance(a, float) and a == 0.0:
        # -0.0 is stored as 0.0: it formats as "a=0.0" and is one
        # model with +0.0, as equality and hashing already say
        a = 0.0
    return {"n": _as_int(n), "r": _as_int(r), "dims": dims, "a": a}


@dataclass(frozen=True)
class NetworkModel:
    """Topology descriptor plus the asymmetric link factor.

    Exactly one of the size fields is meaningful per kind: ``n`` for
    RING, ``n`` and ``r`` for R_NEAREST_RING, ``dims`` for TORUS.  A model
    is validated once, when built (``dataclasses.replace`` included), so
    no invalid model exists and no other layer validates again.

    ``factors`` holds the (side, radius) of each circulant factor, one
    per dimension: ((n, r),) for an r-nearest ring, (k, 1) per side for a
    ring or a torus.  It is set once, when the model is built.
    """

    kind: Kind
    a: float
    n: int | None = None
    r: int | None = None
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        for field, value in _normalised(self.n, self.r, self.dims, self.a).items():
            object.__setattr__(self, field, value)
        validate(self)
        # a plain attribute, not a field: equality, hashing and repr read
        # the fields alone
        if self.kind is Kind.R_NEAREST_RING:
            factors = ((self.n, self.r),)
        else:
            factors = tuple([(k, 1) for k in self.shape])
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        """Total node count."""
        return math.prod(self.shape)

    @property
    def degree_weight(self) -> float:
        """Diagonal Laplacian entry: the sum of the factors' radii."""
        return float(sum(r for _, r in self.factors))

    @property
    def shape(self) -> tuple[int, ...]:
        """Eigenvalue index space: (n,) for 1-D kinds, dims for tori."""
        if self.kind is Kind.TORUS:
            return self.dims
        return (self.n,)


def ring(n: int, a: float = 0.0) -> NetworkModel:
    return NetworkModel(kind=Kind.RING, a=a, n=n)


def r_nearest_ring(n: int, r: int, a: float = 0.0) -> NetworkModel:
    return NetworkModel(kind=Kind.R_NEAREST_RING, a=a, n=n, r=r)


def torus(dims, a: float = 0.0) -> NetworkModel:
    return NetworkModel(kind=Kind.TORUS, a=a, dims=dims)


_SIZE_FIELDS = {Kind.RING: ("n",), Kind.R_NEAREST_RING: ("n", "r"), Kind.TORUS: ("dims",)}


def validate(model: NetworkModel) -> NetworkModel:
    """Return ``model`` unchanged if all its invariants hold.

    Raises ParameterError naming the violated constraint otherwise.
    ``NetworkModel.__post_init__`` runs it, so every built model passes.
    """
    a = model.a
    if isinstance(a, bool) or not (isinstance(a, (int, float)) and math.isfinite(a)):
        raise ParameterError(f"asymmetric factor a must be a finite real, got {a!r}")
    if not 0.0 <= a <= 1.0:
        raise ParameterError(f"asymmetric factor a={a} outside [0, 1]")

    if model.kind is Kind.RING:
        n = model.n
        if not _is_int(n) or n < 3:
            raise ParameterError(f"ring needs integer n >= 3, got n={n}")
    elif model.kind is Kind.R_NEAREST_RING:
        n, r = model.n, model.r
        if not _is_int(r) or r < 1:
            raise ParameterError(f"r-nearest ring needs integer r >= 1, got r={r}")
        if _is_int(n) and n == 2 * r + 1:
            raise ParameterError(
                f"n = 2r + 1 = {n} makes every node adjacent to every other "
                f"(a complete graph); model it densely and use the generic "
                f"pipeline instead"
            )
        if not _is_int(n) or n < 2 * r + 2:
            raise ParameterError(
                f"r-nearest ring needs n >= 2r + 2 = {2 * r + 2} so the two "
                f"neighbor arcs stay disjoint, got n={n}"
            )
    elif model.kind is Kind.TORUS:
        dims = model.dims
        if dims is None or len(dims) < 2:
            raise ParameterError(f"torus needs at least 2 dimensions, got dims={dims}")
        for i, k in enumerate(dims):
            if not _is_int(k) or k < 3:
                raise ParameterError(f"torus needs every k_i an integer >= 3, got k_{i + 1}={k}")
    else:
        raise ParameterError(f"unknown kind {model.kind!r}")
    for field in ("n", "r", "dims"):
        value = getattr(model, field)
        if value is not None and field not in _SIZE_FIELDS[model.kind]:
            raise ParameterError(f"{model.kind.value} takes no {field}, got {field}={value}")
    return model


def factor_row(side: int, radius: int, a: float) -> np.ndarray:
    """First Laplacian row of one circulant factor; its cyclic shifts are
    the factor's matrix and its entries sum to zero.

    Offsets +1..+radius (next indices mod side) carry the forward weight
    (1 - a) / 2, offsets -1..-radius the backward weight (1 + a) / 2; the
    Laplacian negates both.
    """
    row = np.zeros(side)
    row[0] = float(radius)
    row[1 : radius + 1] = (-1.0 + a) / 2.0
    row[side - radius : side] = (-1.0 - a) / 2.0
    return row


def circulant_row(model: NetworkModel) -> np.ndarray:
    """First Laplacian row of a one-factor model (a ring or an r-nearest
    ring).  Tori are not single circulants, use dense_laplacian."""
    if len(model.factors) > 1:
        raise TopologyError("a torus is not a single circulant; use dense_laplacian")
    return factor_row(*model.factors[0], model.a)


def _factor_matrix(side: int, radius: int, a: float) -> np.ndarray:
    # entry (i, j) is row[(j - i) % side]: window side - i of the doubled
    # row, so the matrix is one copy of a strided view, with no index matrix
    row = factor_row(side, radius, a)
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((row, row)), side)
    return windows[side:0:-1].copy()


def _kronecker_sum(mat: np.ndarray, lap: np.ndarray) -> np.ndarray:
    """kron(mat, I) + kron(I, lap), with the same products and sums, built
    in the one result array.  The identity's entries are 0.0 and 1.0, so
    the second term's blocks are 0.0 * lap off the block diagonal and
    1.0 * lap on it; each product keeps its sign of zero."""
    m, s = len(mat), len(lap)
    out = np.empty((m * s, m * s))
    blocks = out.reshape(m, s, m, s)
    eye = np.eye(s)
    np.multiply(mat[:, None, :, None], eye[None, :, None, :], out=blocks)
    np.add(blocks, 0.0 * lap[None, :, None, :], out=blocks)
    # the diagonal blocks are made again, with 1.0 * lap as the second term
    unit = 1.0 * lap
    for i in range(m):
        block = blocks[i, :, i, :]
        np.multiply(mat[i, i], eye, out=block)
        np.add(block, unit, out=block)
    return out


def dense_laplacian(model: NetworkModel) -> np.ndarray:
    """Materialize the full Laplacian matrix, node i at row i.  Row and
    column sums are both zero, which makes the consensus iteration
    average-preserving.

    The Laplacian is the Kronecker sum of the factors' circulant
    matrices, all sharing the same asymmetric factor; node indices are
    mixed-radix with dimension 1 slowest-varying, and a one-factor model
    is its factor's matrix.  Each Kronecker sum is built in its result
    array, so the peak is about one n x n matrix.  Raises SizeError,
    before allocating, past ``DEFAULT_DENSE_CAP`` nodes.
    """
    order = model.order
    if order > DEFAULT_DENSE_CAP:
        raise SizeError(f"order {order} exceeds dense cap {DEFAULT_DENSE_CAP}")
    first, *rest = model.factors
    mat = _factor_matrix(*first, model.a)
    for side, radius in rest:
        mat = _kronecker_sum(mat, _factor_matrix(side, radius, model.a))
    return mat


# --- model grammar -----------------------------------------------------------
#
# ring:n=<int>,a=<float>
# rnearest:n=<int>,r=<int>,a=<float>
# torus:dims=<int>x<int>[x<int>...],a=<float>

_DIMS_RE = _re.compile(r"^\d+(x\d+)+$")


def parse_model(text: str) -> NetworkModel:
    """Parse a model specification string into a model."""
    head, _, body = text.strip().partition(":")
    head = head.lower()
    fields = {}
    for part in body.split(","):
        if not part:
            continue
        key, eq, value = part.partition("=")
        if not eq:
            raise ParameterError(f"malformed field {part!r} in model spec {text!r}")
        fields[key.strip()] = value.strip()

    def need(key):
        if key not in fields:
            raise ParameterError(f"model spec {text!r} is missing {key}=")
        return fields.pop(key)

    # all fields are read first: a stray field is reported before a broken constraint
    try:
        if head == "ring":
            kind, sizes = Kind.RING, {"n": int(need("n"))}
        elif head == "rnearest":
            kind, sizes = Kind.R_NEAREST_RING, {"n": int(need("n")), "r": int(need("r"))}
        elif head == "torus":
            dims_text = need("dims")
            if not _DIMS_RE.match(dims_text):
                raise ParameterError(f"malformed dims {dims_text!r}, expected <int>x<int>[x<int>...]")
            kind, sizes = Kind.TORUS, {"dims": tuple(int(d) for d in dims_text.split("x"))}
        else:
            raise ParameterError(
                f"unknown model kind {head!r}; expected ring, rnearest or torus"
            )
        a = float(need("a"))
    except ValueError as exc:
        raise ParameterError(f"bad numeric field in model spec {text!r}: {exc}") from exc
    if fields:
        raise ParameterError(f"unexpected fields {sorted(fields)} in model spec {text!r}")
    return NetworkModel(kind, a=a, **sizes)


def _format_float(x: float) -> str:
    return repr(float(x))


def format_model(model: NetworkModel) -> str:
    """Inverse of parse_model: format_model(parse_model(s)) round-trips."""
    a = _format_float(model.a)
    if model.kind is Kind.RING:
        return f"ring:n={model.n},a={a}"
    if model.kind is Kind.R_NEAREST_RING:
        return f"rnearest:n={model.n},r={model.r},a={a}"
    dims = "x".join(str(k) for k in model.dims)
    return f"torus:dims={dims},a={a}"
