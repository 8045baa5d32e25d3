"""Anatomy of the reverse-run time grid.

The forward process turns data into noise by shrinking it with c(t) = e^-t
while adding Gaussian noise of variance 1 - e^-2t; ``noise_scales(t)`` returns
the pair (c, sigma2), the one place the package evaluates them for a single
time.  Reversing it numerically needs a grid over [0, T - delta] whose gaps
respect gamma_k <= kappa * min(1, T - t_k): uniform gaps of size kappa far
from the data, geometrically shrinking gaps near it.
"""

import numpy as np

from revdiff import build_schedule, noise_scales, schedule_to_text, validate_schedule

print("== noise scales ==")
for t in (0.0, 0.01, np.log(2.0), 2.0, 10.0):
    c, sigma2 = noise_scales(t)
    print(f"  t={t:<8.4f} c={c:.6f}  sigma2={sigma2:.6f}  c^2+sigma2={c**2 + sigma2:.16f}")

print("\n== a small grid: kappa=0.25, L=4 uniform steps, K=8 total ==")
sched = build_schedule(0.25, 4, 8)
print(f"  horizon T = {sched.horizon}, early stop delta = {sched.early_stop}")
print(f"  times  = {np.array2string(sched.times, precision=4)}")
print(f"  gammas = {np.array2string(sched.gammas, precision=4)}")
print(f"  note: every gap obeys gamma_k <= kappa * min(1, T - t_k)")
bound = sched.kappa * np.minimum(1.0, sched.taus[:-1])
print(f"  gap/bound ratios: {np.array2string(sched.gammas / bound, precision=3)}")

print("\n== validation gates external grids ==")
report = validate_schedule(sched)
print(f"  all checks pass: {report.passed}")
for name, ok, detail in report.checks:
    print(f"    [{'ok' if ok else 'FAIL'}] {name}")

print("\n== serialized record (replayable bit-exactly) ==")
print(schedule_to_text(sched))

print("== a production-size grid ==")
big = build_schedule(0.1, 90, 235)
print(f"  T = {big.horizon:.2f}, delta = {big.early_stop:.3e}, K = {big.n_steps}")
print(f"  smallest gap = {big.gammas.min():.3e} (vs kappa = {big.kappa})")
