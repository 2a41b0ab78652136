#!/usr/bin/env python3
"""Structural invariants on randomly generated pairs.

Random reflections through Haar-random subspaces multiply into valid
chiral pairs of every signature. This walks one pair through the whole
identity battery by hand, then runs the aggregated battery over a batch
of dimensions the way the command line selftest does.
"""

import numpy as np

from chiralwalk import build_index_report, coisometry
from chiralwalk.selfcheck import random_chiral_pair, run_selftest, transformation_checks

rng = np.random.default_rng(42)
pair = random_chiral_pair(rng, 12)
report = build_index_report(pair)
dec = coisometry(pair)
# The grading's eigenspaces have dimensions (n +- signature)/2, and the
# supercharge q = (U - U*)/2i maps Gamma+ to Gamma- through its block alpha.
plus = (pair.dim + report.gamma_signature) // 2
minus = pair.dim - plus
q = (pair.u - pair.u.conj().T) / 2j

print(f"one random pair, dim {pair.dim}:")
print(f"  grading signature: +{plus} / -{minus}")
print(f"  supercharge block alpha: {minus}x{plus}")
print(f"  anticommutator residual: {np.max(np.abs(pair.gamma @ q + q @ pair.gamma)):.2e}")
print(f"  coin space dim {dec.coin_space_dim}, flipped={dec.flipped}, "
      f"discriminant norm {np.max(np.abs(np.linalg.eigvalsh(dec.discriminant))):.6f}")

print(f"  index routes: alpha={report.index_alpha} witten={report.index_witten} "
      f"formula={report.index_formula} signature={report.gamma_signature}")
print(f"  mapping residual: {report.mapping_residual:.2e}")
print("  per-check results:")
for check in report.checks:
    print(f"    {'ok ' if check.passed else 'FAIL'} {check.name} "
          f"(residual {check.residual:.2e})")
for check in transformation_checks(pair, report.index_alpha, rng):
    print(f"    {'ok ' if check.passed else 'FAIL'} {check.name}")

print()
print("aggregated battery, dims 2..16, 5 pairs each:")
result = run_selftest(dim_max=16, trials=5, seed=3)
print(f"  pairs: {result.pairs}, failures: {len(result.failures)}")
width = max(len(name) for name in result.totals)
for name in sorted(result.totals):
    print(f"  {name:<{width}} {result.passes[name]}/{result.totals[name]}")
