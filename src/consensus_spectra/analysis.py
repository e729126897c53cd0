"""Parameter sweeps and the datasets behind the standard figures.

Every row carries both the model's rate and the rate of the symmetric
(a = 0) model of identical topology; their difference is the absolute
error introduced by ignoring link asymmetry.  Both rates come from the
sweep's method (the canonical pipeline unless the caller switches it),
so a solved a = 0 row has absolute error exactly 0.  Rows are produced
serially in deterministic grid order, so a dataset regenerates
bit-identically across runs.

The standard figures are the entries of ``FIGURES``; each dataset's
``metadata["grid"]`` carries its entry's grid text.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from .design import DESIGN_METHODS
from .errors import ConsensusSpectraError, ParameterError
from .topology import FIELDS, NetworkModel, _normalised, format_field, r_nearest_ring, ring, torus
from .topology import _is_int, to_csv, to_json


@dataclass(frozen=True)
class SweepRow:
    kind: str
    n: int | None
    r: int | None
    dims: tuple[int, ...] | None
    a: float
    h: float
    gamma: float
    rate: float
    rate_symmetric: float
    absolute_error: float
    method: str
    error: str = ""

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["dims"] = "" if self.dims is None else format_field("dims", self.dims)
        return d


def _evaluate_point(template: NetworkModel, point: dict, method: str) -> SweepRow:
    """The row of ``template`` with the fields of ``point`` replaced.  A
    point that builds no model records the fields it would have stored."""
    fields = {key: getattr(template, key) for key in FIELDS} | point
    base = {"kind": template.kind.value, **_normalised(**fields), "method": method}
    try:
        model = dataclasses.replace(template, **point)
        designer = DESIGN_METHODS[method]
        design = designer(model)
        rate_sym = designer(dataclasses.replace(model, a=0.0)).rate
    except ConsensusSpectraError as exc:
        nan, error = math.nan, f"{type(exc).__name__}: {exc}"
        return SweepRow(
            h=nan, gamma=nan, rate=nan, rate_symmetric=nan, absolute_error=nan, error=error, **base
        )
    return SweepRow(
        h=design.h,
        gamma=design.gamma,
        rate=design.rate,
        rate_symmetric=rate_sym,
        absolute_error=rate_sym - design.rate,
        **base,
    )


def sweep(template: NetworkModel, varying: dict, method: str = "pipeline") -> list[SweepRow]:
    """One row per point of the cartesian grid over ``varying``.

    ``varying`` maps model fields (n, r, a, dims) to value sequences;
    rows follow the grid order of the dict.  A point that fails
    validation or design is recorded in-row and the sweep continues.
    """
    keys = list(varying)
    unknown = set(keys) - set(FIELDS)
    if unknown:
        raise ParameterError(f"cannot vary {sorted(unknown)}; expected n, r, a or dims")
    if method not in DESIGN_METHODS:
        raise ParameterError(f"unknown method {method!r}; expected {', '.join(DESIGN_METHODS)}")
    for key in keys:
        try:
            if isinstance(varying[key], str):  # iterable, but by character
                raise TypeError
            iter(varying[key])
        except TypeError:
            raise ParameterError(f"{key} needs a sequence of values, got {varying[key]!r}") from None
    grid = product(*(varying[k] for k in keys))
    return [_evaluate_point(template, dict(zip(keys, combo)), method) for combo in grid]


@dataclass(frozen=True)
class FigureDataset:
    figure_id: int
    label: str
    rows: list[SweepRow]
    metadata: dict

    @property
    def filename(self) -> str:
        return f"fig{self.figure_id}_{self.label}.csv"


# the displayed radii keep the rates visibly nonzero, and the slowest
# curves reach zero near a = 0.8
FIG5_RADII = (8, 32, 100, 150)
FIG6_SIDES = (11, 15, 21, 25, 27)

# figure id -> (label, grid text, [(template, varying), ...]); the
# figure's rows are those of each sweep in turn
FIGURES = {
    3: (
        "ring_rates",
        "ring n=4..40 even, a in {0, 0.3, 0.6, 0.9}",
        [(ring(4), {"n": range(4, 41, 2), "a": (0.0, 0.3, 0.6, 0.9)})],
    ),
    4: (
        "torus_odd",
        "torus k1,k2 in 5..21 odd, a=0.3",
        [(torus((5, 5), 0.3), {"dims": list(product(range(5, 22, 2), repeat=2))})],
    ),
    5: (
        "n400",
        f"r-nearest n=400, r in {FIG5_RADII}, a=0..1 step 0.05",
        [(r_nearest_ring(400, 8), {"r": FIG5_RADII, "a": [round(0.05 * i, 2) for i in range(21)]})],
    ),
    6: (
        "dimension",
        f"prefixes of sides {FIG6_SIDES}, m=1..5, a=0.3",
        [
            (ring(FIG6_SIDES[0], 0.3), {}),
            (torus(FIG6_SIDES[:2], 0.3), {"dims": [FIG6_SIDES[:m] for m in range(2, len(FIG6_SIDES) + 1)]}),
        ],
    ),
    7: (
        "abs_error",
        "ring n=4..64 even, a in {0.3, 0.9}",
        [(ring(4), {"a": (0.3, 0.9), "n": range(4, 65, 2)})],
    ),
}


def figure_dataset(figure_id: int, method: str = "pipeline") -> FigureDataset:
    """Full dataset behind one of the standard figures, an id of ``FIGURES``."""
    if not _is_int(figure_id) or figure_id not in FIGURES:
        raise ParameterError(f"unknown figure id {figure_id!r}; expected one of {sorted(FIGURES)}")
    label, grid, sweeps = FIGURES[figure_id]
    rows = [row for template, varying in sweeps for row in sweep(template, varying, method)]
    metadata = {"grid": grid, "method": method}
    if figure_id == 5:
        # per radius, the last grid point (a rises within each r) where the
        # rate is still above 1%
        visible = {row.r: row.a for row in rows if row.rate > 0.01}
        metadata["largest_a_with_rate_above_0.01"] = visible
    return FigureDataset(int(figure_id), label, rows, metadata)


# --- serialization ------------------------------------------------------------

_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))


def rows_to_csv(rows: list[SweepRow]) -> str:
    dicts = [row.as_dict() for row in rows]
    return to_csv(_COLUMNS, [[d[c] for d in dicts] for c in _COLUMNS])


def rows_to_jsonl(rows: list[SweepRow]) -> str:
    return to_json([row.as_dict() for row in rows], lines=True)


def write_figure(dataset: FigureDataset, directory) -> Path:
    path = Path(directory) / dataset.filename
    path.write_text(rows_to_csv(dataset.rows))
    return path
