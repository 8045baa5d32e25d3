"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from revdiff.measures import (
    GaussianLaw,
    GaussianOracle,
    PointCloudMeasure,
    PointCloudOracle,
    forward_sample,
    log_marginal_gradient,
    make_manifold_cloud,
    random_frame,
    spawn_rng,
)
from revdiff.metrics import (
    concentration_curve,
    discretization_error_meter,
    gaussian_kl,
    kl_experiment,
    marginal_law,
    martingale_checks,
    monotonicity_check,
    propagate_affine_reverse,
    score_error_budget,
)
from revdiff.sampler import (
    ReverseRunConfig,
    ScorePerturbation,
    fine_integrate_step,
    fine_step_conditional_law,
    step_table,
)
from revdiff.schedule import build_schedule, validate_schedule


def announce(cid, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {cid}: {detail}")
    assert passed, f"{cid}: {detail}"


def rotated_rank_law(D, d, var=0.25, seed=0):
    frame = random_frame(D, d, spawn_rng(seed, 77))
    return GaussianLaw(mean=np.zeros(D), factor=frame * math.sqrt(var), diag_floor=0.0)


def reference_schedule(kappa=0.1, horizon=10.0, delta=1e-6):
    L = round((horizon - 1.0) / kappa)
    extra = round(math.log(1.0 / delta) / math.log1p(kappa))
    return build_schedule(kappa, L, L + extra)


def test_c01_schedule_reference_grid():
    sched = build_schedule(0.25, 4, 8)
    expected = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.2, 1.36, 1.488, 1.5904])
    grid_err = float(np.abs(sched.times - expected).max())
    bound = sched.kappa * np.minimum(1.0, sched.taus[:-1])
    bound_ok = bool((sched.gammas <= bound * (1 + 1e-12)).all())
    ok = grid_err <= 1e-12 and bound_ok and validate_schedule(sched).passed
    announce("C1 schedule", ok, f"max grid error {grid_err:.2e}, step bound {'ok' if bound_ok else 'violated'}")


def test_c02_tweedie_identity_finite_differences():
    rng = spawn_rng(101, 0)
    cloud = PointCloudMeasure.uniform(0.4 * rng.standard_normal((6, 3)))
    oracles = [
        ("point_cloud", PointCloudOracle(cloud)),
        (
            "gaussian",
            GaussianOracle(
                GaussianLaw(
                    mean=0.3 * rng.standard_normal(3),
                    factor=0.5 * rng.standard_normal((3, 2)),
                    diag_floor=0.2,
                )
            ),
        ),
    ]
    worst = 0.0
    cases = 0
    for _, oracle in oracles:
        for _ in range(60):
            t = float(np.exp(rng.uniform(math.log(0.02), math.log(3.0))))
            _, x = forward_sample(oracle, t, rng, 1)
            x = x[0]
            grad = log_marginal_gradient(oracle, t, x, h=1e-5)
            s = oracle.score(t, x)
            worst = max(worst, float(np.linalg.norm(grad - s) / np.linalg.norm(s)))
            cases += 1
    announce("C2 tweedie", worst <= 1e-4 and cases >= 100, f"{cases} cases, worst relative gap {worst:.2e}")


def test_c03_scheme_equivalence_order():
    sched = build_schedule(0.2, 3, 8)
    oracle = GaussianOracle(
        GaussianLaw(mean=np.zeros(2), factor=np.array([[0.5], [0.2]]), diag_floor=0.0)
    )
    substeps = (2, 8, 32, 128)
    worst_order_m = math.inf
    worst_order_v = math.inf
    tab = step_table(sched, "corrected")
    for k in (1, 4, 6):
        y = np.array([0.4, -0.6])
        target_m = tab.alpha[k] * y + tab.beta[k] * oracle.score(float(sched.taus[k]), y)
        errs_m, errs_v = [], []
        for n in substeps:
            mean, var = fine_step_conditional_law(y, k, sched, oracle.score, n)
            errs_m.append(float(np.linalg.norm(mean - target_m)))
            errs_v.append(abs(var - tab.eta2[k]))
        fit = lambda errs: -np.polyfit(np.log(substeps), np.log(errs), 1)[0]
        worst_order_m = min(worst_order_m, fit(errs_m))
        worst_order_v = min(worst_order_v, fit(errs_v))
    # stochastic integrator agrees with its conditional law (covariance incl.
    # off-diagonals close to eta^2 I)
    rng = spawn_rng(103, 0)
    n_mc, k = 60_000, 4
    y = np.array([0.4, -0.6])
    ys = np.broadcast_to(y, (n_mc, 2)).copy()
    out = fine_integrate_step(ys, k, sched, oracle.score, 64, rng)
    mean64, var64 = fine_step_conditional_law(y, k, sched, oracle.score, 64)
    cov = np.cov(out.T)
    cov_dev = float(np.abs(cov - var64 * np.eye(2)).max())
    mc_ok = (
        float(np.linalg.norm(out.mean(axis=0) - mean64)) <= 4 * math.sqrt(var64 / n_mc)
        and cov_dev <= 4 * var64 * math.sqrt(2.0 / n_mc)
    )
    ok = worst_order_m >= 0.9 and worst_order_v >= 0.9 and mc_ok
    announce(
        "C3 equivalence",
        ok,
        f"orders mean {worst_order_m:.3f}, var {worst_order_v:.3f} (>= 0.9), mc law check {'ok' if mc_ok else 'failed'}",
    )


def test_c04_zero_discretization_error_point_mass():
    sched = build_schedule(0.2, 10, 40)
    y0 = np.array([0.6, -0.2, 0.1, 0.0, 0.3, -0.4])
    cfg = ReverseRunConfig(schedule=sched, init="data_pT")
    out = propagate_affine_reverse(GaussianLaw.point_mass(y0), cfg)
    delta = sched.early_stop
    c, s2 = math.exp(-delta), -math.expm1(-2 * delta)
    mean_err = float(np.abs(out.mean - c * y0).max())
    cov_err = float(np.abs(out.covariance() - s2 * np.eye(6)).max())
    ok = mean_err <= 1e-10 and cov_err <= 1e-10
    announce("C4 exactness", ok, f"mean error {mean_err:.2e}, cov error {cov_err:.2e} (<= 1e-10)")


def test_c05_linear_in_intrinsic_dimension():
    sched = reference_schedule()
    dims = [1, 2, 4, 8]
    kls = []
    for d in dims:
        law = rotated_rank_law(32, d, var=0.25, seed=d)
        kls.append(kl_experiment(law, ReverseRunConfig(schedule=sched, init="data_pT")).value)
    slope, intercept = np.polyfit(dims, kls, 1)
    pred = slope * np.array(dims) + intercept
    ss_res = float(((np.array(kls) - pred) ** 2).sum())
    ss_tot = float(((np.array(kls) - np.mean(kls)) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    ok = r2 >= 0.99 and abs(intercept) <= 0.05 * kls[-1]
    announce(
        "C5 linear-in-d",
        ok,
        f"R^2 {r2:.6f} (>= 0.99), intercept {intercept:.2e} vs 5% of d=8 value {0.05 * kls[-1]:.2e}",
    )


def test_c06_ambient_dimension_independence():
    sched = reference_schedule()
    dims = [4, 16, 64, 256]
    totals, inits = [], []
    for D in dims:
        law = rotated_rank_law(D, 2, var=0.25, seed=D)
        totals.append(kl_experiment(law, ReverseRunConfig(schedule=sched)).value)
        inits.append(gaussian_kl(marginal_law(law, sched.horizon), GaussianLaw.isotropic(D)))
    spread = max(totals) - min(totals)
    bound = 1e-6 + (max(inits) - min(inits))
    ok = spread <= bound
    announce("C6 D-independence", ok, f"KL spread {spread:.2e} <= 1e-6 + init spread {max(inits) - min(inits):.2e}")


def test_c07_one_over_k_rate():
    horizon, delta = 10.0, 1e-6
    law = rotated_rank_law(8, 2, var=0.25, seed=9)
    oracle = GaussianOracle(law)
    budgets, terminal = [], []
    ks = []
    for i in range(4):
        kappa = 0.2 / 2**i
        L = round((horizon - 1.0) / kappa)
        extra = round(math.log(1.0 / delta) / math.log1p(kappa))
        sched = build_schedule(kappa, L, L + extra)
        ks.append(sched.n_steps)
        budgets.append(discretization_error_meter(oracle, sched, 0, None, mode="exact").value)
        terminal.append(
            kl_experiment(law, ReverseRunConfig(schedule=sched, init="data_pT")).value
        )
    factors = [budgets[i] / budgets[i + 1] for i in range(3)]
    term_factors = [terminal[i] / terminal[i + 1] for i in range(3)]
    ok = all(1.7 <= f <= 2.3 for f in factors)
    announce(
        "C7 O(1/K)",
        ok,
        f"K {ks}; budget factors {[f'{f:.3f}' for f in factors]} in [1.7, 2.3] "
        f"(terminal-KL factors {[f'{f:.2f}' for f in term_factors]}, second-order as expected)",
    )


def test_c08_kl_tensorization():
    sched = build_schedule(0.2, 10, 30)
    single = GaussianLaw(mean=np.array([0.3]), factor=np.array([[0.5]]))
    kl_one = kl_experiment(single, ReverseRunConfig(schedule=sched)).value
    worst = 0.0
    for d in (2, 4, 8):
        prod = GaussianLaw(mean=np.full(d, 0.3), factor=0.5 * np.eye(d))
        kl_d = kl_experiment(prod, ReverseRunConfig(schedule=sched)).value
        worst = max(worst, abs(kl_d - d * kl_one))
    announce("C8 tensorization", worst <= 1e-10, f"worst |KL_d - d*KL_1| = {worst:.2e} (<= 1e-10)")


def _check_grid_oracles():
    two = PointCloudOracle(
        PointCloudMeasure.uniform(np.array([[-0.5, 0.0], [0.5, 0.0]]))
    )
    gauss = GaussianOracle(rotated_rank_law(3, 1, var=0.25, seed=31))
    rng = spawn_rng(523, 9)
    circle = PointCloudOracle(make_manifold_cloud("circle", D=2, n=512, rng=rng))
    return [("two_point", two), ("gaussian", gauss), ("circle", circle)]


TRIPLES = [(0.0, 0.25, 1.0), (0.01, 0.05, 0.3), (0.05, 0.2, 0.6), (0.1, 0.5, 2.0)]


def test_c09_martingale_orthogonality_grid():
    rng = spawn_rng(525, 0)
    n = 100_000
    worst_z = 0.0
    for name, oracle in _check_grid_oracles():
        for ts in TRIPLES:
            rep = martingale_checks(oracle, *ts, n, rng)
            z = abs(rep.value) / rep.stderr
            worst_z = max(worst_z, z)
    announce("C9 martingale", worst_z <= 3.0, f"12 cases at n={n}, worst |z| = {worst_z:.2f} (<= 3)")


def test_c10_monotonicity_grid():
    rng = spawn_rng(526, 0)
    n = 100_000
    worst_z = math.inf
    for name, oracle in _check_grid_oracles():
        for ts in TRIPLES:
            t1 = max(ts[0], 0.02)
            rep = monotonicity_check(oracle, t1, ts[1], ts[2], n, rng)
            z = rep.value / rep.stderr if rep.stderr > 0 else math.inf
            worst_z = min(worst_z, z)
    announce("C10 monotonicity", worst_z >= -3.0, f"12 cases at n={n}, worst z = {worst_z:.2f} (>= -3)")


def test_c11_concentration_curves():
    rng = spawn_rng(527, 0)
    times = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]
    n = 100_000
    results = {}
    for kind, D, kwargs in (("circle", 2, {}), ("torus", 4, {"intrinsic_dim": 2})):
        oracle = PointCloudOracle(make_manifold_cloud(kind, D=D, n=2048, rng=rng, **kwargs))
        rep = concentration_curve(oracle, times, n, rng)
        results[kind] = rep
    bounded = all(
        val <= 1.0 + 3 * se for rep in results.values() for (_, _, val, se) in rep.components
    )
    growing = all(rep.extras["min_increment_z"] >= -3.0 for rep in results.values())
    at = times.index(1e-2)
    ratio = results["torus"].components[at][2] / results["circle"].components[at][2]
    ok = bounded and growing and 1.4 <= ratio <= 2.8
    announce(
        "C11 concentration",
        ok,
        f"bounded {bounded}, growing {growing}, torus/circle ratio at t=0.01: {ratio:.3f} in [1.4, 2.8]",
    )


def test_c12_score_error_budget_slope():
    sched = reference_schedule(kappa=0.2)
    law = rotated_rank_law(4, 1, var=0.25, seed=41)
    a = np.array([1.0, 0.0, 0.0, 0.0])
    eps = [0.01, 0.02, 0.04, 0.08]
    dkl = [
        score_error_budget(law, ScorePerturbation(epsilon=e, constant=a), sched).extras["kl_excess"]
        for e in eps
    ]
    slope = float(np.polyfit(np.log(eps), np.log(dkl), 1)[0])
    ok = abs(slope - 2.0) <= 0.2
    announce("C12 score budget", ok, f"log-log slope {slope:.4f} (2 +- 0.2)")


def test_c13_ei_baseline_comparison():
    sched = reference_schedule()
    ei, corrected = {}, {}
    for D in (8, 64):
        law = rotated_rank_law(D, 2, var=0.25, seed=D + 1)
        ei[D] = kl_experiment(
            law,
            ReverseRunConfig(schedule=sched, scheme="exponential_integrator", init="data_pT"),
        ).value
        corrected[D] = kl_experiment(
            law, ReverseRunConfig(schedule=sched, init="data_pT")
        ).value
    spread = abs(corrected[64] - corrected[8])
    ok = ei[64] > 2.0 * ei[8] and spread <= 1e-6
    announce(
        "C13 EI baseline",
        ok,
        f"EI KL {ei[8]:.3e} -> {ei[64]:.3e} (grows with D); corrected spread {spread:.2e} <= 1e-6",
    )
