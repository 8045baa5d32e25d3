"""Exact score oracles: posterior means, scores, and the identity tying them.

Every data law here answers score queries in closed form.  The posterior
mean m_t(x) = E[X_0 | X_t = x] and the score s_t(x) of the noised marginal
are two views of the same object: s_t(x) = (c_t m_t(x) - x) / sigma_t^2.
"""

import numpy as np

from revdiff import (
    GaussianLaw,
    GaussianOracle,
    PointCloudMeasure,
    PointCloudOracle,
    PointMassOracle,
    ProductOracle,
    forward_sample,
    log_marginal_gradient,
    make_manifold_cloud,
    spawn_rng,
)

rng = spawn_rng(0, 0)
t = np.log(2.0)  # c = 1/2, sigma2 = 3/4

print("== point mass at e1 ==")
pm = PointMassOracle(np.array([1.0, 0.0]))
print(f"  score(ln2, 0) = {pm.score(t, np.zeros(2))}   (= (c*y0 - 0)/sigma2 = 2/3 e1)")

print("\n== two-point law on {0, e1} ==")
cloud = PointCloudMeasure.uniform(np.array([[0.0], [1.0]]))
pc = PointCloudOracle(cloud)
for x in (0.0, 0.25, 0.5, 1.0):
    m = pc.posterior_mean(t, np.array([x]))[0]
    print(f"  m(ln2, {x:4.2f}) = {m:.4f}")
print("  (at x = 0.25 both mixture components are equidistant, so m = 1/2)")

print("\n== gaussian law, rank 1 in R^2 ==")
law = GaussianLaw(mean=np.zeros(2), factor=np.array([[1.0], [0.0]]))
go = GaussianOracle(law)
x = np.array([0.3, -0.2])
print(f"  score(ln2, {x}) = {go.score(t, x)}")
print("  (the data direction is less restored than the pure-noise one)")

print("\n== score is the gradient of the log marginal ==")
for oracle, name in ((pc, "two-point"), (go, "gaussian")):
    _, xq = forward_sample(oracle, t, rng, 1)
    grad = log_marginal_gradient(oracle, t, xq[0])  # central differences, step 1e-5
    s = oracle.score(t, xq[0])
    rel = np.linalg.norm(grad - s) / np.linalg.norm(s)
    print(f"  {name:<10} finite-difference gap: {rel:.2e} relative")

print("\n== products split coordinate blocks ==")
prod = ProductOracle([(pc, [0]), (PointMassOracle(np.zeros(1)), [1])])
xq = np.array([0.3, -0.9])
s = prod.score(0.8, xq)
print(f"  score block 2 = {s[1]:.4f}  vs pure-noise value {-xq[1] / (-np.expm1(-1.6)):.4f}")

print("\n== synthetic manifolds: intrinsic dim d, sampled in k coordinates ==")
for kind, D, d, kw in (("circle", 2, 1, {}), ("torus", 4, 2, {"intrinsic_dim": 2}), ("hilbert", 2, 1, {"order": 4})):
    cloud = make_manifold_cloud(kind, D=D, n=512, rng=rng, **kw)
    print(f"  {kind:<8} d={d} k={2 * d} cloud diameter={cloud.diameter():.4f}")
