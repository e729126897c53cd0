#!/usr/bin/env python3
"""Record the reference tables the benchmark's checks compare against.

Run from the repository root, only when the library's intended output
changes (the tables pin today's values, defects included):

    python3 perfbench/record_reference.py

Writes, under perfbench/reference/:

* fig3.csv .. fig7.csv: ``rows_to_csv(figure_dataset(k).rows)``;
* design_requests.csv: h, gamma, rate, reconciliation tag and raised
  exception type of every design request of the acceptance grid;
* certify.json: the same fields plus the minimax gamma for every model
  of the certify phase (full and toy sizes).
"""

import csv
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from consensus_spectra import analysis, topology  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import NULL_TRACER  # noqa: E402

FIELDS = ("spec", "h", "gamma", "rate", "tag", "error")


def _cell(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def main() -> None:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for k in (3, 4, 5, 6, 7):
        text = analysis.rows_to_csv(analysis.figure_dataset(k).rows)
        checks.figure_reference_path(k).write_text(text)

    with open(checks.DESIGN_REQUESTS_CSV, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=";", lineterminator="\n")
        writer.writerow(FIELDS)
        for a in workloads.A_GRID:
            for model in workloads.grid_models(a):
                rec = workloads.design_request(NULL_TRACER, model)
                cells = [_cell(rec[f]) for f in FIELDS[1:]]
                writer.writerow([topology.format_model(model), *cells])

    table = {}
    for specs in workloads.CERTIFY_MODELS.values():
        for spec in specs:
            out = workloads.certify_model(NULL_TRACER, spec)
            table[spec] = dict(out["design"], minimax_gamma=out["minimax_gamma"])
    checks.CERTIFY_JSON.write_text(json.dumps(table, indent=2) + "\n")


if __name__ == "__main__":
    main()
