#!/usr/bin/env python3
"""Where the two-eigenvalue design stops being the true best constant.

The classical construction equalizes |1 - h*lambda| on the slowest and
fastest Laplacian modes.  With real spectra (a = 0) that is provably
the global best constant.  With complex spectra it only stays optimal
while the slow mode's modulus is still decreasing at the equalization
point and no interior eigenvalue binds first; both conditions fail at
large asymmetry.  For the 4-node ring the breakdown is exactly at
a = 1/sqrt(3) ~ 0.577.

This script compares the pair design with the true minimax (solved
exactly on the vertices of the spectrum's convex hull, where the convex
worst-modulus objective is decided) and with a brute-force h-scan, so
all three routes certify each other.
"""

import numpy as np

import consensus_spectra as cs


def scan_minimum(model, points=200001):
    """Brute-force reference: the smallest worst modulus on an h grid."""
    nz = cs.full_spectrum(model).values[1:]
    hs = np.linspace(0.0, 2.0 / nz.real.max(), points)
    worst = np.max(np.abs(1 - hs[:, None] * nz[None, :]), axis=1)
    return float(worst.min())


print(f"{'model':28s} {'pair gamma':>12s} {'minimax':>12s} {'h-scan':>12s}  verdict")
for model in [
    cs.ring(4, 0.3),
    cs.ring(4, 0.5),
    cs.ring(4, 0.6),
    cs.ring(4, 0.9),
    cs.r_nearest_ring(16, 4, 0.2),
    cs.r_nearest_ring(16, 4, 0.5),
    cs.torus((5, 5), 0.3),
    cs.torus((5, 5), 0.9),
]:
    pair = cs.design_pipeline(model)
    best = cs.minimax_h(cs.full_spectrum(model))
    ref = scan_minimum(model)
    optimal = abs(best.gamma - pair.gamma) <= 1e-9
    verdict = "pair design optimal" if optimal else "pair design beaten"
    print(
        f"{cs.format_model(model):28s} {pair.gamma:12.9f} {best.gamma:12.9f} "
        f"{ref:12.9f}  {verdict}"
    )

print(
    "\nThe minimax and h-scan columns always agree; the pair column drifts"
    "\nabove them once the asymmetry is large enough.  For production use"
    "\nprefer minimax_h when a is large; the pair design remains exact for"
    "\nsymmetric networks and for small-to-moderate asymmetry."
)
