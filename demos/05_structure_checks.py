"""Martingale structure of the conditional mean, measured by Monte Carlo.

The process m_t(X_t) = E[X_0 | X_t] is a martingale in reverse time.  Three
measurable consequences: squared increments over nested time intervals add
up (orthogonality); the corrected-score gap shrinks as times approach each
other (monotonicity); and on a d-dimensional manifold the posterior spread
E||X_0 - m_t(X_t)||^2 grows like d * t at small noise.
"""

import numpy as np

from revdiff import (
    PointCloudMeasure,
    PointCloudOracle,
    concentration_curve,
    make_manifold_cloud,
    martingale_checks,
    monotonicity_check,
    spawn_rng,
)

rng = spawn_rng(5, 0)
two = PointCloudOracle(PointCloudMeasure.uniform(np.array([[-0.5], [0.5]])))

print("== orthogonality of increments (residual should sit at 0) ==")
for ts in ((0.0, 0.25, 1.0), (0.05, 0.2, 0.6)):
    rep = martingale_checks(two, *ts, 50_000, rng)
    print(f"  times {ts}: residual = {rep.value:+.4e} +- {rep.stderr:.1e}  "
          f"tower diagnostic = {rep.extras['tower_residual']:.3e}")

print("\n== sub-increments through an intermediate time ==")
rep = martingale_checks(two, 0.0, 0.25, 1.0, 50_000, rng)
for i, t, val, se in rep.components:
    tag = ["E|M3-M1|^2", "E|M3-M2|^2", "E|M2-M1|^2"][i]
    print(f"  {tag} = {val:.4f} +- {se:.1e}")

print("\n== error monotonicity in the anchor gap ==")
rep = monotonicity_check(two, 0.1, 0.3, 0.8, 50_000, rng)
print(f"  earlier-minus-later gap = {rep.value:+.4f} +- {rep.stderr:.1e}  (nonnegative)")

print("\n== posterior spread on manifolds: circle (d=1) vs torus (d=2) ==")
times = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]
curves = {}
for kind, D, kw in (("circle", 2, {}), ("torus", 4, {"intrinsic_dim": 2})):
    oracle = PointCloudOracle(make_manifold_cloud(kind, D=D, n=2048, rng=rng, **kw))
    curves[kind] = concentration_curve(oracle, times, 30_000, rng)

print(f"  {'t':>8} {'circle':>12} {'torus':>12} {'ratio':>8}")
for (j, t, vc, _), (_, _, vt, _) in zip(curves["circle"].components, curves["torus"].components):
    print(f"  {t:>8.3f} {vc:>12.5f} {vt:>12.5f} {vt / vc:>8.3f}")
print("  (ratio tracks the dimension ratio 2 at small t; both stay below the")
print("   squared diameter bound of 1)")
