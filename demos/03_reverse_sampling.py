"""Running the reverse sampler: noise in, data out.

A batch starts at N(0, I), takes K scheme steps along the grid, and lands on
an approximation of the data law noised to the early-stopping time.  For the
corrected scheme the conditional mean of every step is the exact reverse
bridge mean; the exponential integrator drifts more and injects more noise.
Both schemes take the step y' = alpha y + beta score + eta z, with the
coefficients of every step read from ``step_table(schedule, scheme)``.
"""

import numpy as np

from revdiff import (
    PointCloudMeasure,
    PointCloudOracle,
    ReverseRunConfig,
    build_schedule,
    run_reverse,
    step_table,
)

sched = build_schedule(0.2, 10, 40)
print(f"grid: T = {sched.horizon}, delta = {sched.early_stop:.4e}, K = {sched.n_steps}")

print("\n== per-step coefficients from the step table (first, middle, last) ==")
c, e = step_table(sched, "corrected"), step_table(sched, "exponential_integrator")
for k in (0, 20, 39):
    print(
        f"  k={k:<3} corrected (a={c.alpha[k]:.4f}, b={c.beta[k]:.4f}, eta={np.sqrt(c.eta2[k]):.4f})   "
        f"EI (a={e.alpha[k]:.4f}, b={e.beta[k]:.4f}, eta={np.sqrt(e.eta2[k]):.4f})"
    )

two = PointCloudOracle(PointCloudMeasure.uniform(np.array([[-0.5], [0.5]])))

print("\n== corrected scheme on the two-point law ==")
cfg = ReverseRunConfig(schedule=sched, batch=20_000, seed=42)
res = run_reverse(cfg, two)
y = res.terminal[:, 0]
frac_left = float((y < 0).mean())
print(f"  terminal mean   = {y.mean():+.4f} (target 0)")
print(f"  mass near -1/2  = {frac_left:.3f} (target 0.5)")
near = np.minimum(np.abs(y - 0.5), np.abs(y + 0.5))
print(f"  median distance to a data point = {np.median(near):.4f} "
      f"(noise floor sigma_delta = {np.sqrt(-np.expm1(-2 * sched.early_stop)):.4f})")

print("\n== same run, exponential integrator ==")
cfg_ei = ReverseRunConfig(schedule=sched, batch=20_000, seed=42, scheme="exponential_integrator")
res_ei = run_reverse(cfg_ei, two)
near_ei = np.minimum(np.abs(res_ei.terminal[:, 0] - 0.5), np.abs(res_ei.terminal[:, 0] + 0.5))
print(f"  median distance to a data point = {np.median(near_ei):.4f} (looser)")

print("\n== determinism: same config and seed, any worker count ==")
a = run_reverse(ReverseRunConfig(schedule=sched, batch=512, seed=7), two)
b = run_reverse(ReverseRunConfig(schedule=sched, batch=512, seed=7, n_workers=4), two)
print(f"  bit-identical terminals: {a.terminal.tobytes() == b.terminal.tobytes()}")
