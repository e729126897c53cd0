#!/usr/bin/env python3
"""Verify designs by running the consensus iteration on random states.

Seeded splitmix-generated initial vectors make every run reproducible.
Each trial checks that the node average never moves, that the iteration
contracts when the design says it should, and that the measured
contraction factor matches the design gamma.
"""

import consensus_spectra as cs

for model in [cs.ring(16, 0.3), cs.torus((4, 4), 0.0), cs.r_nearest_ring(24, 2, 0.2)]:
    design = cs.design_pipeline(model)
    report = cs.verify_consensus(model, design, trials=5, seed=42)
    print(f"{cs.format_model(model)}: gamma = {design.gamma:.6f}")
    for entry in report:
        verdict = "pass" if entry.passed else f"FAIL ({entry.note})"
        print(f"  trial {entry.trial} (seed {entry.seed}): empirical {entry.empirical_factor:.6f} -> {verdict}")
    print()

# a deliberately broken step size: the divergence guard trips and the
# report records the failure instead of raising
model = cs.ring(8, 0.0)
good = cs.design_pipeline(model)
bad = cs.ConsensusDesign(
    h=2.0, gamma=3.0, method=good.method, lambda_s=good.lambda_s, lambda_l=good.lambda_l
)
report = cs.verify_consensus(model, bad, trials=1, seed=7)
print(f"bad step size on {cs.format_model(model)}: pass={report[0].passed}, note: {report[0].note}")

# near the breakdown point the factor sits at 1 and nothing converges
model = cs.r_nearest_ring(400, 3, 0.8)
design = cs.design_pipeline(model)
print(f"\n{cs.format_model(model)}: gamma = {design.gamma:.6f} (essentially no contraction)")
x0 = cs.uniform_vector(13, model.order)
trace = cs.run_consensus(model, design.h, x0, max_steps=300, tolerance=1e-9)
print(f"300 steps: converged={trace.converged}, empirical factor {trace.empirical_factor:.6f}")
