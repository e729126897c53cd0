"""Network models and their directed Laplacian matrices.

Four regular families are supported: the ring, the r-nearest-neighbor
ring, the 2-D torus and the m-dimensional torus (the torus kind covers
every m >= 2).  The ring stays a kind of its own for the model grammar
and the closed-form catalog, but every kernel treats it as the 1-torus:
its ``shape`` is (n,) and its degree weight is m = 1.

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

    @property
    def order(self) -> int:
        """Total node count."""
        return math.prod(self.shape)

    @property
    def degree_weight(self) -> float:
        """Diagonal Laplacian entry: r (r-nearest), m (torus, ring m = 1)."""
        if self.kind is Kind.R_NEAREST_RING:
            return float(self.r)
        return float(len(self.shape))

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


def circulant_row(model: NetworkModel) -> np.ndarray:
    """First Laplacian row for the 1-D families; its cyclic shifts are
    the whole matrix and its entries sum to zero.

    Offset +1 (next index mod n) carries the forward weight (1 - a) / 2,
    offset -1 the backward weight (1 + a) / 2; the Laplacian negates
    both.  Tori are not single circulants, use dense_laplacian.
    """
    if model.kind is Kind.TORUS:
        raise TopologyError("a torus is not a single circulant; use dense_laplacian")
    n, a = model.n, model.a
    r = 1 if model.kind is Kind.RING else model.r  # a ring is the r = 1 row
    row = np.zeros(n)
    row[0] = float(r)
    row[1 : r + 1] = (-1.0 + a) / 2.0
    row[n - r : n] = (-1.0 - a) / 2.0
    return row


def _circulant_matrix(row: np.ndarray) -> np.ndarray:
    n = len(row)
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return row[idx]


def dense_laplacian(model: NetworkModel) -> np.ndarray:
    """Materialize the full Laplacian matrix, node i at row i.  Row and
    column sums are both zero, which makes the consensus iteration
    average-preserving.

    1-D kinds expand their circulant row cyclically.  A torus is the
    Kronecker sum of ring Laplacians, one per dimension, all sharing the
    same asymmetric factor; node indices are mixed-radix with dimension
    1 slowest-varying.  Raises SizeError, before allocating, past
    ``DEFAULT_DENSE_CAP`` nodes.
    """
    order = model.order
    if order > DEFAULT_DENSE_CAP:
        raise SizeError(f"order {order} exceeds dense cap {DEFAULT_DENSE_CAP}")
    if model.kind is Kind.TORUS:
        mat = np.zeros((1, 1))
        for k in model.dims:
            ring_lap = _circulant_matrix(circulant_row(ring(k, model.a)))
            mat = np.kron(mat, np.eye(k)) + np.kron(np.eye(mat.shape[0]), ring_lap)
        return mat
    return _circulant_matrix(circulant_row(model))


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
