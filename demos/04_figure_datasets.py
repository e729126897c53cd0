#!/usr/bin/env python3
"""Regenerate the standard sweep datasets and print their headlines.

Writes fig3..fig7 CSV files into ./figure_data/ and summarizes the
qualitative behavior each dataset demonstrates: rates fall with size,
asymmetry and dimension, rise with neighborhood radius, and the
symmetric-model error is largest on small, strongly asymmetric networks.
"""

from pathlib import Path

import consensus_spectra as cs

out_dir = Path("figure_data")
out_dir.mkdir(exist_ok=True)

for figure_id in sorted(cs.analysis.FIGURES):
    dataset = cs.figure_dataset(figure_id)
    path = cs.write_figure(dataset, out_dir)
    print(f"figure {figure_id}: {len(dataset.rows)} rows -> {path}")
    print(f"  grid: {dataset.metadata['grid']}")

print()

fig3 = cs.figure_dataset(3)
small = [r for r in fig3.rows if r.n == 8]
print("ring n=8, rate vs asymmetry:", {r.a: round(r.rate, 4) for r in small})

fig5 = cs.figure_dataset(5)
print("r-nearest n=400, last a with rate above 1%:", fig5.metadata["largest_a_with_rate_above_0.01"])

fig6 = cs.figure_dataset(6)
print("rate vs dimension:", [round(r.rate, 5) for r in fig6.rows])

fig7 = cs.figure_dataset(7)
for a in (0.3, 0.9):
    curve = [r for r in fig7.rows if r.a == a]
    print(
        f"absolute error at a={a}: n=4 -> {curve[0].absolute_error:.5f}, "
        f"n=64 -> {curve[-1].absolute_error:.5f}"
    )
