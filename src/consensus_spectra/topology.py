"""Network models and the rows of their directed Laplacians.

Four regular families are supported: the ring, the r-nearest-neighbor
ring, the 2-D torus and the m-dimensional torus (the torus kind covers
every m >= 2), each a Cartesian sum of directed circulant factors
(``NetworkModel.factors``), which the spectra, designs and consensus
steps read, so ``ring(n, a)`` and ``r_nearest_ring(n, 1, a)`` differ only
in the grammar and the catalog.  A factor of radius r needs a side
>= 2r + 1, so its two neighbor arcs stay disjoint (n = 2r + 1 is the
complete digraph).  A model's Laplacian is the Kronecker sum of its
factors' circulant matrices, each given by its first row,
``factor_row``; nothing here builds it as an order x order matrix.

Links are directional: the forward neighbor of a node is weighted
(1 - a) / 2 and the backward neighbor (1 + a) / 2, where a in [0, 1] is
the asymmetric link factor.  a = 0 reproduces the undirected network
exactly, a = 1 is a fully one-directional cycle.  Although links are
directed, every node's in-weights and out-weights sum to the same value
for these families, which is why the Laplacians have zero column
sums as well as zero row sums.

All values are immutable after construction and every operation is a
pure function of its inputs, so everything here is safe to share across
threads.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import re as _re
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


class Kind(enum.Enum):
    RING = "ring"
    R_NEAREST_RING = "rnearest"
    TORUS = "torus"


def _is_int(v) -> bool:
    # stored sizes are plain ints, tested first: the ABC check costs about
    # a microsecond, and the size rule runs on every model built
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def _as_int(v):
    return int(v) if _is_int(v) else v


def _normalised(n, r, dims, a) -> dict:
    """The field values a model stores."""
    # sizes are stored as Python ints in a tuple, and a real a that is not
    # a bool as the Python float it equals (adding 0.0 turns -0.0 into
    # 0.0), so numpy values print, export and compare like Python ones;
    # a real beyond the float range becomes the infinity of its sign, and
    # other values, a non-iterable dims too, are left for _factors to reject
    if dims is not None:
        try:
            dims = tuple(_as_int(k) for k in dims)
        except TypeError:
            pass
    if type(a) is float or (isinstance(a, numbers.Real) and not isinstance(a, bool)):
        try:
            a = float(a) + 0.0
        except OverflowError:
            a = math.inf if a > 0 else -math.inf
    return {"n": _as_int(n), "r": _as_int(r), "dims": dims, "a": a}


@dataclass(frozen=True)
class NetworkModel:
    """Topology descriptor plus the asymmetric link factor.

    The kind's ``_KIND_FIELDS`` row names the fields it stores: ``n`` for
    RING, ``n`` and ``r`` for R_NEAREST_RING, ``dims`` for TORUS.
    ``factors`` holds the (side, radius) of each circulant factor: each
    side of ``dims``, or ``n``, with radius ``r``, or 1 where the kind has
    no r.  Building the model, ``dataclasses.replace`` included, derives
    it once and raises ParameterError at the first broken invariant (a
    finite a in [0, 1], a kind of ``_KIND_FIELDS`` with no field outside
    its row, each side an integer in [2r + 1, ``_MAX_TABLE``]), so no
    invalid model exists and no other layer validates again.
    """

    kind: Kind
    a: float
    n: int | None = None
    r: int | None = None
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        for field, value in _normalised(self.n, self.r, self.dims, self.a).items():
            object.__setattr__(self, field, value)
        # a plain attribute, not a field: equality, hashing and repr read
        # the fields alone
        object.__setattr__(self, "factors", _factors(self))

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
        """Eigenvalue index space: the sides of a torus, else (n,)."""
        return self.dims or (self.n,)


def ring(n: int, a: float = 0.0) -> NetworkModel:
    return NetworkModel(kind=Kind.RING, a=a, n=n)


def r_nearest_ring(n: int, r: int, a: float = 0.0) -> NetworkModel:
    return NetworkModel(kind=Kind.R_NEAREST_RING, a=a, n=n, r=r)


def torus(dims, a: float = 0.0) -> NetworkModel:
    return NetworkModel(kind=Kind.TORUS, a=a, dims=dims)


FIELDS = ("n", "r", "dims", "a")
# the fields a model of each kind stores, in the grammar's order; the size
# rule reads the sides from dims, else n, and the radius from r, else 1
_KIND_FIELDS = {
    Kind.RING: ("n", "a"),
    Kind.R_NEAREST_RING: ("n", "r", "a"),
    Kind.TORUS: ("dims", "a"),
}

# the longest float64 table numpy can index (2**60 - 1 on 64 bits); past it numpy
# gives a ValueError or an empty table, not a MemoryError
_MAX_TABLE = np.iinfo(np.intp).max // 8


def _factors(model: NetworkModel) -> tuple[tuple[int, int], ...]:
    """The (side, radius) of each circulant factor of a valid ``model``."""
    a = model.a
    if not (isinstance(a, float) and math.isfinite(a)):
        raise ParameterError(f"asymmetric factor a must be a finite real, got {a!r}")
    if not 0.0 <= a <= 1.0:
        raise ParameterError(f"asymmetric factor a={a} outside [0, 1]")
    kind = model.kind
    try:
        fields = _KIND_FIELDS[kind]
    except (KeyError, TypeError):
        raise ParameterError(f"unknown kind {kind!r}") from None
    for field in FIELDS:
        value = getattr(model, field)
        if value is not None and field not in fields:
            raise ParameterError(f"{kind.value} takes no {field}, got {field}={value}")
    sides = model.dims if "dims" in fields else (model.n,)
    if "dims" in fields and not (isinstance(sides, tuple) and len(sides) >= 2):
        raise ParameterError(f"{kind.value} needs at least 2 dimensions, got dims={sides}")
    radius = model.r if "r" in fields else 1
    if not _is_int(radius) or radius < 1:
        raise ParameterError(f"{kind.value} needs integer r >= 1, got r={radius}")
    for i, side in enumerate(sides):
        if _is_int(side) and 2 * radius + 1 <= side <= _MAX_TABLE:
            continue
        name = f"k_{i + 1}" if "dims" in fields else "n"
        if not _is_int(side) or side < 2 * radius + 1:
            raise ParameterError(
                f"{kind.value} needs every side an integer >= 2r + 1 = {2 * radius + 1}, "
                f"so the two neighbor arcs stay disjoint, got {name}={side}"
            )
        raise ParameterError(f"{kind.value} needs every side <= {_MAX_TABLE}, got {name}={side}")
    return tuple([(side, radius) for side in sides])


def link_weights(a: float) -> tuple[float, float]:
    """The Laplacian entries (forward, backward) of one link: the negated
    weights (1 - a) / 2 and (1 + a) / 2."""
    return (-1.0 + a) / 2.0, (-1.0 - a) / 2.0


def factor_row(side: int, radius: int, a: float) -> np.ndarray:
    """First Laplacian row of one circulant factor; its cyclic shifts are
    the factor's matrix and its entries sum to zero.

    Offsets +1..+radius (next indices mod side) carry the forward weight
    (1 - a) / 2, offsets -1..-radius the backward weight (1 + a) / 2; the
    Laplacian negates both.
    """
    row = np.zeros(side)
    row[0] = float(radius)
    row[1 : radius + 1], row[side - radius : side] = link_weights(a)
    return row


# --- model grammar -----------------------------------------------------------
#
# ring:n=<int>,a=<float>
# rnearest:n=<int>,r=<int>,a=<float>
# torus:dims=<int>x<int>[x<int>...],a=<float>

_DIMS_RE = _re.compile(r"^\s*\d+(x\d+)+\s*$")
_NUMBERS = {"n": int, "r": int, "a": float}


def parse_field(key: str, text: str):
    """Model field ``key`` (one of ``FIELDS``) read from ``text``, blanks around it
    allowed: bad dims raise ParameterError, a bad number int's or float's ValueError."""
    if key != "dims":
        return _NUMBERS[key](text)
    if not _DIMS_RE.match(text):
        raise ParameterError(f"malformed dims {text!r}, expected <int>x<int>[x<int>...]")
    return tuple(map(int, text.split("x")))


def parse_model(text: str) -> NetworkModel:
    """Parse a model specification string; a repeated field is rejected."""
    head, _, body = text.strip().partition(":")
    head = head.strip().lower()
    fields = {}
    for part in body.split(","):
        if not part:
            continue
        key, eq, value = (s.strip() for s in part.partition("="))
        if not eq:
            raise ParameterError(f"malformed field {part!r} in model spec {text!r}")
        if key in fields:
            raise ParameterError(f"repeated field {key!r} in model spec {text!r}")
        fields[key] = value
    if head not in {k.value for k in Kind}:
        raise ParameterError(f"unknown model kind {head!r}; expected ring, rnearest or torus")
    kind = Kind(head)
    # all fields are read first: a stray field is reported before a broken constraint
    values = {}
    for key in _KIND_FIELDS[kind]:
        if key not in fields:
            raise ParameterError(f"model spec {text!r} is missing {key}=")
        try:
            values[key] = parse_field(key, fields.pop(key))
        except ValueError as exc:
            raise ParameterError(f"bad numeric field in model spec {text!r}: {exc}") from exc
    if fields:
        raise ParameterError(f"unexpected fields {sorted(fields)} in model spec {text!r}")
    return NetworkModel(kind, **values)


def format_field(key: str, value) -> str:
    """Inverse of parse_field: the grammar's text of a stored field value,
    as in n=8, a=0.3 or dims=3x4x5 (a failed sweep point's non-tuple dims as str())."""
    return "x".join(map(str, value)) if key == "dims" and isinstance(value, tuple) else str(value)


def format_model(model: NetworkModel) -> str:
    """Inverse of parse_model: format_model(parse_model(s)) round-trips."""
    fields = [f"{key}={format_field(key, getattr(model, key))}" for key in _KIND_FIELDS[model.kind]]
    return f"{model.kind.value}:{','.join(fields)}"


# --- text output -------------------------------------------------------------
# Every CSV and JSON text the package writes comes from to_csv or to_json.
# A CSV cell is empty for None, the repr of a float and str() of anything
# else; text holding ';', '"' or a line break is quoted, its quotes doubled.

_NEEDS_QUOTES = _re.compile(r'[;"\r\n]')


def _text(v) -> str:
    text = str(v)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def _cell(v) -> str:
    return "" if v is None else float.__repr__(v) if isinstance(v, float) else _text(v)


def _cells(column):
    # the rule of _cell, tested once per column where the types allow
    types = set(map(type, column))
    if types <= {float}:
        return map(float.__repr__, column)
    if types <= {int, str}:
        return map(_text, column)
    return map(_cell, column)


def to_csv(header, columns) -> str:
    """Semicolon CSV of equal-length ``columns`` under ``header``, a line per row."""
    lines = [";".join(header), *map(";".join, zip(*map(_cells, columns)))]
    return "\n".join(lines) + "\n"


def _finite_or_null(value):
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def to_json(value, lines: bool = False) -> str:
    """``value`` as an indent-2 JSON document and a newline, or with
    ``lines`` each of its items as one compact line.  Every non-finite
    float inside dicts, lists and tuples is written as null, as JSON has
    no token for it; one that this misses raises ValueError."""
    if lines:
        return "\n".join(json.dumps(_finite_or_null(v), allow_nan=False) for v in value) + "\n"
    return json.dumps(_finite_or_null(value), indent=2, allow_nan=False) + "\n"
