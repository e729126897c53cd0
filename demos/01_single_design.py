#!/usr/bin/env python3
"""Walk through one complete best-constant design on a small asymmetric ring.

The 4-node ring with link factor a = 0.5 is the package's worked example:
its consensus parameter, factor and rate come out as the exact fractions
8/11, 5/11, 6/11, and all three solution routes (extremal-pair equation,
closed-form catalog, exact minimax) land on the same point.
"""

import numpy as np

import consensus_spectra as cs

model = cs.ring(4, a=0.5)
print(f"model: {cs.format_model(model)}")
print(f"Laplacian first row: {cs.topology.factor_row(*model.factors[0], model.a)}")

spectrum = cs.full_spectrum(model)
print("\neigenvalues (index, value):")
for j, value in enumerate(spectrum.values):
    print(f"  j={j}: {value:.6f}")

pipeline = cs.design_pipeline(model)
print(f"\nextremal pair: lambda_s = {pipeline.lambda_s.value}, lambda_l = {pipeline.lambda_l.value}")

print(f"\npair-solve design: h = {pipeline.h:.12f}  (8/11 = {8/11:.12f})")
print(f"                   gamma = {pipeline.gamma:.12f}  (5/11 = {5/11:.12f})")
print(f"                   rate = {pipeline.rate:.12f}  (6/11 = {6/11:.12f})")

print(f"\nclosed-form h: {cs.closed_design(model).h:.12f}")
reconciled = cs.closed_form_R(model)
print(f"closed-form rate: {reconciled.value:.12f} [{reconciled.tag.value} vs pipeline]")

minimax = cs.minimax_h(spectrum)
print(f"exact minimax:  h* = {minimax.h:.12f}, gamma* = {minimax.gamma:.12f}")

# watch the iteration contract at exactly gamma per step
x0 = np.array([1.0, 2.0, 3.0, 4.0])
trace = cs.run_consensus(model, pipeline.h, x0, max_steps=60, tolerance=1e-12)
print(f"\nsimulation from x0 = {x0} (average {x0.mean()}):")
print("  step   error norm     running average")
for t in (0, 1, 2, 5, 10, 20, trace.steps):
    print(f"  {t:4d}   {trace.error_norms[t]:.6e}   {trace.averages[t]:.12f}")
print(f"converged: {trace.converged} after {trace.steps} steps")
print(f"empirical contraction {trace.empirical_factor:.6f} vs design gamma {pipeline.gamma:.6f}")
