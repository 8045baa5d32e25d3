import math
import time
import tracemalloc

import numpy as np
import pytest

from revdiff.measures import (
    GaussianLaw,
    GaussianOracle,
    PointCloudMeasure,
    PointCloudOracle,
    PointMassOracle,
    ProductOracle,
    forward_bridge,
    forward_sample,
    make_manifold_cloud,
    random_frame,
    spawn_rng,
)
from revdiff.metrics import (
    concentration_curve,
    discretization_error_meter,
    gaussian_kl,
    increment_quadrature,
    kl_experiment,
    marginal_law,
    martingale_checks,
    monotonicity_check,
    propagate_affine_reverse,
    score_error_budget,
)
from revdiff import metrics
from revdiff._pool import map_streams
from revdiff.harness import build_measure, resolve_schedule
from revdiff.sampler import ReverseRunConfig, ScorePerturbation, run_reverse, step_table
from revdiff.schedule import build_schedule, contraction, noise_var


def rank_law(D, d, var=0.25, mean=None, seed=0, floor=0.0):
    fac = random_frame(D, d, spawn_rng(seed, 77)) * math.sqrt(var)
    mean = np.zeros(D) if mean is None else np.asarray(mean, dtype=float)
    return GaussianLaw(mean=mean, factor=fac, diag_floor=floor)


# ---------------------------------------------------------------------------
# gaussian_kl
# ---------------------------------------------------------------------------


def test_kl_identical_laws_is_zero():
    law = rank_law(5, 2, floor=0.4)
    assert abs(gaussian_kl(law, law)) <= 1e-12


def test_kl_mean_shift_formula():
    m = np.array([0.3, -1.2, 0.5])
    p = GaussianLaw.isotropic(3)
    q = GaussianLaw.isotropic(3, mean=m)
    assert abs(gaussian_kl(p, q) - 0.5 * float(m @ m)) < 1e-12


def test_kl_variance_ratio_formula():
    p = GaussianLaw.isotropic(2, variance=2.0)
    q = GaussianLaw.isotropic(2, variance=1.0)
    assert abs(gaussian_kl(p, q) - (1.0 - math.log(2.0))) < 1e-12


def test_kl_nonnegative_randomized():
    rng = spawn_rng(1, 0)
    for i in range(20):
        p = rank_law(4, rng.integers(0, 3), var=float(rng.uniform(0.1, 2)), seed=i, floor=0.2)
        q = rank_law(4, rng.integers(0, 3), var=float(rng.uniform(0.1, 2)), seed=i + 100, floor=0.5)
        p = GaussianLaw(rng.standard_normal(4), p.factor, p.diag_floor)
        assert gaussian_kl(p, q) >= -1e-13


def test_kl_matches_dense_formula():
    p = rank_law(4, 2, var=0.5, seed=3, floor=0.3)
    q = rank_law(4, 1, var=1.5, seed=4, floor=0.8)
    p = GaussianLaw(np.array([0.1, 0.0, -0.2, 0.4]), p.factor, p.diag_floor)
    sp, sq = p.covariance(), q.covariance()
    dm = q.mean - p.mean
    dense = 0.5 * (
        np.trace(np.linalg.solve(sq, sp))
        + dm @ np.linalg.solve(sq, dm)
        - 4
        + np.linalg.slogdet(sq)[1]
        - np.linalg.slogdet(sp)[1]
    )
    assert abs(gaussian_kl(p, q) - dense) < 1e-11


def test_kl_rejects_singular_reference():
    p = GaussianLaw.isotropic(3)
    q = rank_law(3, 1, floor=0.0)
    with pytest.raises(ValueError, match="floor"):
        gaussian_kl(p, q)


def test_kl_singular_argument_is_infinite():
    p = rank_law(3, 1, floor=0.0)
    q = GaussianLaw.isotropic(3)
    assert gaussian_kl(p, q) == math.inf


def test_marginal_law_large_time_is_standard_normal():
    law = rank_law(3, 2, var=0.7, mean=np.array([1.0, 0.0, -1.0]))
    m = marginal_law(law, 20.0)
    assert abs(gaussian_kl(m, GaussianLaw.isotropic(3))) < 1e-12


# ---------------------------------------------------------------------------
# exact propagation
# ---------------------------------------------------------------------------


def test_a_zero_slope_keeps_the_channel_law_bit_identical():
    sched = build_schedule(0.2, 5, 15)
    law = rank_law(5, 2, var=0.5, mean=np.array([0.2, 0.0, -0.1, 0.3, 0.0]), floor=0.1)
    const = np.array([1.0, -0.5, 0.0, 0.2, 0.1])
    for eps, linear in ((0.05, np.zeros((5, 5))), (0.0, np.eye(5)), (0.0, -0.7 * np.eye(5))):
        for init in ("standard_normal", "data_pT"):
            # with slope 0.0, g + 0.0 == g, so the law without ``linear`` is matched bit for bit
            cfg = ReverseRunConfig(schedule=sched, score_source=ScorePerturbation(eps, constant=const), init=init)
            with_linear = ScorePerturbation(eps, constant=const, linear=linear)
            got = propagate_affine_reverse(law, ReverseRunConfig(schedule=sched, score_source=with_linear, init=init))
            ref = propagate_affine_reverse(law, cfg)
            for a, b in ((got.mean, ref.mean), (got.factor, ref.factor), (got.diag_floor, ref.diag_floor)):
                assert np.array_equal(a, b)


def _sequential_channels(data, config):
    """Step-by-step channel recursion: the reference for the unrolled form."""
    ch = metrics._channels(data)
    sched = config.schedule
    tab = step_table(sched, config.scheme)
    b_r, b_perp, slope = metrics._bias_vectors(config, ch)
    if config.init == "data_pT":
        cT, s2T = math.exp(-sched.horizon), -math.expm1(-2.0 * sched.horizon)
        var, mean = cT * cT * ch.var0 + s2T, cT * ch.mean0
        resid_var, resid_mean = cT * cT * ch.resid_var + s2T, cT * ch.resid_mean
    else:
        var, mean = np.ones_like(ch.var0), np.zeros_like(ch.mean0)
        resid_var, resid_mean = 1.0, np.zeros(ch.dim)
    for k in range(sched.n_steps):
        alpha, beta, eta2, c, s2 = (float(a[k]) for a in (tab.alpha, tab.beta, tab.eta2, tab.c, tab.s2))
        g = -1.0 / (c * c * ch.var0 + s2)
        f = alpha + beta * (g + slope)
        mean = f * mean - beta * g * c * ch.mean0 + beta * b_r
        var = f * f * var + eta2
        g_perp = -1.0 / (c * c * ch.resid_var + s2)
        f_perp = alpha + beta * (g_perp + slope)
        resid_mean = f_perp * resid_mean - beta * g_perp * c * ch.resid_mean + beta * b_perp
        resid_var = f_perp * f_perp * resid_var + eta2
    return var, mean, resid_var, resid_mean


def test_unrolled_channels_match_sequential_recursion():
    mean = np.array([0.4, -0.3, 0.0, 0.2, 0.1, -0.5])
    laws = (rank_law(6, 2, var=0.5, mean=mean), rank_law(6, 2, var=2.0, mean=mean, floor=0.2))
    const = ScorePerturbation(epsilon=0.05, constant=np.array([1.0, -0.5, 0.3, 0.0, 0.2, 0.1]))
    sloped = ScorePerturbation(epsilon=0.05, constant=const.constant, linear=-0.7 * np.eye(6))
    scheds = [resolve_schedule({"kappa": kappa, "horizon": 10.0, "delta": 1e-6}) for kappa in (0.2, 0.00625)]
    assert scheds[-1].n_steps == 3657
    for sched in scheds:
        for law in laws:
            for scheme in ("corrected", "exponential_integrator"):
                for init in ("standard_normal", "data_pT"):
                    for src in ("exact", const, sloped):
                        cfg = ReverseRunConfig(schedule=sched, scheme=scheme, init=init, score_source=src)
                        _, *got = metrics._propagate_channels(law, cfg)
                        for a, b in zip(got, _sequential_channels(law, cfg)):
                            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)


def _dense_inverse_form(data, config):
    """Dense propagation with a covariance inverse per step: the reference for the channel form."""
    sched, dim, src = config.schedule, data.dim, config.score_source
    tab = step_table(sched, config.scheme)
    cov0 = data.covariance()
    eps_lin, eps_const = src.epsilon * src.linear, src.epsilon * src.constant
    if config.init == "data_pT":
        cT, s2T = math.exp(-sched.horizon), -math.expm1(-2.0 * sched.horizon)
        cov, mean = cT * cT * cov0 + s2T * np.eye(dim), cT * data.mean
    else:
        cov, mean = np.eye(dim), np.zeros(dim)
    for k in range(sched.n_steps):
        c, s2 = float(tab.c[k]), float(tab.s2[k])
        g = -np.linalg.inv(c * c * cov0 + s2 * np.eye(dim))
        f = tab.alpha[k] * np.eye(dim) + tab.beta[k] * (g + eps_lin)
        mean = f @ mean + tab.beta[k] * (-(g @ (c * data.mean)) + eps_const)
        cov = f @ cov @ f.T + tab.eta2[k] * np.eye(dim)
    return mean, cov


@pytest.mark.parametrize("D", [16, 64, 200])
def test_channel_path_with_a_slope_matches_inverse_form(D):
    sched = build_schedule(0.2, 10, 40)
    rng = np.random.default_rng(D)
    law = rank_law(D, 3, var=0.5, mean=0.3 * rng.standard_normal(D), floor=0.05)
    constant = rng.standard_normal(D)
    for lam in (0.0, 1.0, -0.7):
        bias = ScorePerturbation(epsilon=0.05, constant=constant, linear=lam * np.eye(D))
        for scheme in ("corrected", "exponential_integrator"):
            for init in ("standard_normal", "data_pT"):
                cfg = ReverseRunConfig(schedule=sched, scheme=scheme, init=init, score_source=bias)
                terminal = propagate_affine_reverse(law, cfg)
                ref_mean, ref_cov = _dense_inverse_form(law, cfg)
                scale = np.abs(ref_cov).max()
                assert np.abs(terminal.mean - ref_mean).max() <= 1e-13 * max(1.0, np.abs(ref_mean).max())
                assert np.abs(terminal.covariance() - ref_cov).max() <= 1e-13 * scale


def test_kl_experiment_with_a_slope_matches_the_structured_law_route():
    # the structured route: terminal law as factor + floor, then gaussian_kl's SVD
    sched = build_schedule(0.2, 10, 40)
    delta = sched.early_stop
    for D, floor in ((8, 0.0), (32, 0.05)):
        rng = np.random.default_rng(D)
        law = rank_law(D, 3, var=0.5, mean=0.3 * rng.standard_normal(D), floor=floor)
        for lam in (1.0, -0.7, 3.0):
            bias = ScorePerturbation(epsilon=0.05, constant=rng.standard_normal(D), linear=lam * np.eye(D))
            for scheme in ("corrected", "exponential_integrator"):
                for init in ("standard_normal", "data_pT"):
                    cfg = ReverseRunConfig(schedule=sched, scheme=scheme, init=init, score_source=bias)
                    old = metrics.gaussian_kl(propagate_affine_reverse(law, cfg), metrics.marginal_law(law, delta))
                    new = kl_experiment(law, cfg).value
                    assert abs(new - old) <= 1e-10 * abs(old)


def test_kl_experiment_with_a_zero_identity_bias_is_the_exact_kl_bit_for_bit():
    sched = build_schedule(0.2, 10, 40)
    law = rank_law(256, 2, var=0.5, seed=3)
    exact = kl_experiment(law, ReverseRunConfig(schedule=sched)).value
    zero_bias = ScorePerturbation(0.0, linear=np.eye(256))
    for seed in (1, 2):
        assert kl_experiment(law, ReverseRunConfig(schedule=sched, seed=seed, score_source=zero_bias)).value == exact


@pytest.mark.parametrize("kind", ["general", "symmetric", "diagonal_with_a_zero"])
def test_exact_paths_reject_a_linear_bias_other_than_a_multiple_of_the_identity(kind):
    sched = build_schedule(0.2, 4, 12)
    law = rank_law(6, 2, seed=30)
    general = np.random.default_rng(0).standard_normal((6, 6)) / math.sqrt(6)
    linear = {"general": general, "symmetric": (general + general.T) / 2, "diagonal_with_a_zero": np.diag([1.0] * 5 + [0.0])}
    bias = ScorePerturbation(0.05, constant=np.ones(6), linear=linear[kind])
    cfg = ReverseRunConfig(schedule=sched, score_source=bias)
    for run in (kl_experiment, propagate_affine_reverse):
        with pytest.raises(ValueError, match=r"ScorePerturbation\.linear must be a multiple of the identity"):
            run(law, cfg)
    with pytest.raises(ValueError, match=r"ScorePerturbation\.linear must be a multiple of the identity"):
        score_error_budget(law, bias, sched)
    # the sampler still runs it, by Monte Carlo
    out = run_reverse(ReverseRunConfig(schedule=sched, score_source=bias, batch=8, seed=1), GaussianOracle(law))
    assert out.terminal.shape == (8, 6) and np.isfinite(out.terminal).all()


def test_point_mass_exactness_from_true_initialization():
    sched = build_schedule(0.2, 10, 40)
    y0 = np.array([0.6, -0.2, 0.1, 0.0])
    cfg = ReverseRunConfig(schedule=sched, init="data_pT")
    out = propagate_affine_reverse(GaussianLaw.point_mass(y0), cfg)
    delta = sched.early_stop
    c, s2 = math.exp(-delta), -math.expm1(-2 * delta)
    np.testing.assert_allclose(out.mean, c * y0, atol=1e-10)
    np.testing.assert_allclose(out.covariance(), s2 * np.eye(4), atol=1e-10)


def test_kl_experiment_ambient_dimension_insensitivity():
    # with T >= 10 the initialization contribution is ~1e-9, so KL at two
    # ambient dimensions agrees to well below 1e-6
    kls = []
    for D in (4, 64):
        sched = build_schedule(0.2, 45, 121)
        law = rank_law(D, 2, var=0.25, seed=5)
        kls.append(kl_experiment(law, ReverseRunConfig(schedule=sched)).value)
    assert abs(kls[0] - kls[1]) < 1e-6


def test_kl_tensorization_exact():
    sched = build_schedule(0.2, 10, 30)
    single = GaussianLaw(mean=np.array([0.3]), factor=np.array([[0.5]]))
    kl_one = kl_experiment(single, ReverseRunConfig(schedule=sched)).value
    for d in (2, 4, 7):
        prod = GaussianLaw(
            mean=np.full(d, 0.3), factor=0.5 * np.eye(d), diag_floor=0.0
        )
        kl_d = kl_experiment(prod, ReverseRunConfig(schedule=sched)).value
        assert abs(kl_d - d * kl_one) < 1e-10


def test_ei_terminal_kl_grows_with_ambient_dimension():
    sched = build_schedule(0.2, 45, 121)
    kls = []
    for D in (8, 64):
        law = rank_law(D, 2, var=0.25, seed=6)
        cfg = ReverseRunConfig(schedule=sched, scheme="exponential_integrator", init="data_pT")
        kls.append(kl_experiment(law, cfg).value)
    assert kls[1] > 2.0 * kls[0]


def test_propagation_mc_cross_check_rank2():
    sched = build_schedule(0.2, 10, 30)
    law = rank_law(8, 2, var=0.5, seed=7)
    cfg = ReverseRunConfig(schedule=sched, batch=50_000, seed=29)
    exact = propagate_affine_reverse(law, cfg)
    res = run_reverse(cfg, GaussianOracle(law))
    n = cfg.batch
    var_exact = np.diag(exact.covariance())
    np.testing.assert_allclose(
        res.terminal.mean(axis=0), exact.mean, atol=3.5 * math.sqrt(var_exact.max() / n)
    )
    np.testing.assert_allclose(
        res.terminal.var(axis=0, ddof=1), var_exact, rtol=3.5 * math.sqrt(2.0 / n)
    )


# ---------------------------------------------------------------------------
# discretization error meter
# ---------------------------------------------------------------------------


def test_meter_point_mass_is_zero():
    sched = build_schedule(0.2, 4, 12)
    oracle = PointMassOracle(np.array([0.5, 0.2]))
    rng = spawn_rng(9, 0)
    rep = discretization_error_meter(oracle, sched, 400, rng)
    assert rep.value == 0.0
    assert rep.stderr == 0.0


def test_meter_exact_matches_mc_for_gaussian():
    sched = build_schedule(0.25, 3, 10)
    law = rank_law(2, 1, var=0.25, seed=8)
    oracle = GaussianOracle(law)
    exact = discretization_error_meter(oracle, sched, 0, None, mode="exact")
    rng = spawn_rng(10, 0)
    mc = discretization_error_meter(oracle, sched, 4000, rng)
    assert abs(mc.value - exact.value) <= 3.5 * mc.stderr
    assert exact.stderr == 0.0 and exact.n_samples == 0


def test_meter_exact_tensorizes():
    sched = build_schedule(0.2, 5, 18)
    one = GaussianLaw(mean=np.zeros(1), factor=np.array([[0.5]]))
    base = discretization_error_meter(GaussianOracle(one), sched, 0, None, mode="exact").value
    for d in (2, 5):
        prod = GaussianLaw(mean=np.zeros(d), factor=0.5 * np.eye(d))
        val = discretization_error_meter(GaussianOracle(prod), sched, 0, None, mode="exact").value
        assert abs(val - d * base) < 1e-10


def test_meter_mc_matches_quadrature_for_two_point():
    sched = build_schedule(0.25, 2, 8)
    cloud = PointCloudMeasure.uniform(np.array([[-0.5], [0.5]]))
    oracle = PointCloudOracle(cloud)
    rng = spawn_rng(11, 0)
    mc = discretization_error_meter(oracle, sched, 20_000, rng)
    total = 0.0
    for k in range(sched.n_steps):
        tau_hi, tau_lo = float(sched.taus[k]), float(sched.taus[k + 1])
        w = float(sched.gammas[k]) * math.exp(-2 * tau_lo) / (-math.expm1(-2 * tau_lo)) ** 2
        total += w * increment_quadrature(oracle, tau_lo, tau_hi)
    assert abs(mc.value - total) <= 3.0 * mc.stderr


def test_meter_midpoint_mode_runs_and_is_comparable():
    sched = build_schedule(0.25, 3, 10)
    law = rank_law(2, 1, var=0.25, seed=12)
    oracle = GaussianOracle(law)
    right = discretization_error_meter(oracle, sched, 0, None, mode="exact").value
    mid = discretization_error_meter(oracle, sched, 0, None, mode="exact", quadrature="midpoint").value
    assert 0.0 < mid < right  # midpoint weight and increment are both smaller


def test_meter_reports_offending_step_on_floor_violation():
    # delta below the oracle floor: the last steps must be named in the error
    sched = build_schedule(0.2, 4, 120)
    assert sched.early_stop < 1e-8
    oracle = PointCloudOracle(PointCloudMeasure.uniform(np.array([[-0.5], [0.5]])))
    rng = spawn_rng(13, 0)
    with pytest.raises(ValueError, match="step k="):
        discretization_error_meter(oracle, sched, 200, rng)


def test_meter_requires_samples_and_rng():
    sched = build_schedule(0.2, 4, 12)
    oracle = PointMassOracle(np.zeros(1))
    with pytest.raises(ValueError):
        discretization_error_meter(oracle, sched, 50, spawn_rng(0, 0))
    with pytest.raises(ValueError):
        discretization_error_meter(oracle, sched, 500, None)
    with pytest.raises(ValueError):
        discretization_error_meter(oracle, sched, 0, None, mode="exact")


def _serial_meter(oracle, sched, n, rng, quadrature):
    """The mc meter as forward_sample, posterior_mean, forward_bridge, posterior_mean per step."""
    taus = np.asarray(sched.taus)
    tau_e = taus[1:] if quadrature == "right" else 0.5 * (taus[:-1] + taus[1:])
    w = sched.gammas * contraction(2.0 * tau_e) / noise_var(tau_e) ** 2
    components, total, var_sum = [], 0.0, 0.0
    for k in range(sched.n_steps):
        tau_hi, tau_lo, w_k = float(taus[k]), float(tau_e[k]), float(w[k])
        x = forward_sample(oracle, tau_lo, rng, n)[1]
        m = oracle.posterior_mean(tau_lo, x)
        m = m - oracle.posterior_mean(tau_hi, forward_bridge(x, tau_lo, tau_hi, rng))
        sq = (m * m).sum(axis=-1)
        val = w_k * float(sq.mean())
        err = w_k * float(sq.std(ddof=1)) / math.sqrt(n)
        total += val
        var_sum += err * err
        components.append((k, float(sched.times[k]), val, err))
    return total, math.sqrt(var_sum), tuple(components)


def _product_oracle():
    gauss = GaussianOracle(rank_law(3, 1, seed=5))
    return ProductOracle([(gauss, [0, 2, 4]), (PointMassOracle(np.array([0.5, -1.0])), [1, 3])])


@pytest.mark.parametrize(
    "make, n",
    [
        (lambda: build_measure("gaussian:D=4,rank=1"), 2500),
        (lambda: build_measure("point-mass:D=16"), 2000),
        (lambda: build_measure("circle:D=2,n=512"), 100),  # n * D below the draw-ahead range
        (_product_oracle, 1000),
        (lambda: build_measure("gaussian:D=256,rank=1"), 4096),  # above it
    ],
)
@pytest.mark.parametrize("quadrature", ["right", "midpoint"])
def test_meter_mc_is_the_serial_reference_byte_for_byte(make, n, quadrature):
    # Drawing the next step ahead on the pool moves no bit: the report, made
    # outside or inside pooled work, is the serial reference's, and rng ends
    # where the reference's does (no step past the last is drawn).
    oracle, sched = make(), build_schedule(0.25, 4, 12)
    rng, ref_rng = spawn_rng(3, 1), spawn_rng(3, 1)
    rep = discretization_error_meter(oracle, sched, n, rng, quadrature=quadrature)
    assert (rep.value, rep.stderr, rep.components) == _serial_meter(oracle, sched, n, ref_rng, quadrature)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    inside = map_streams(
        lambda _, __: discretization_error_meter(oracle, sched, n, spawn_rng(3, 1), quadrature=quadrature),
        [0, 1],
        seed=0,
        workers=2,
    )
    assert [repr(r) for r in inside] == [repr(rep)] * 2


class _FailingGaussian(GaussianOracle):
    """A Gaussian oracle whose ``fail_at``-th posterior_mean query raises."""

    def __init__(self, law, fail_at):
        super().__init__(law)
        self.calls, self.fail_at = 0, fail_at

    def posterior_mean(self, t, x):
        self.calls += 1
        if self.calls == self.fail_at:
            raise ValueError("planted")
        return super().posterior_mean(t, x)


@pytest.mark.parametrize("n, drawn", [(2500, 6), (200, 4)])
def test_meter_mc_leaves_rng_final_when_a_step_raises(n, drawn):
    # Step 3's first query raises.  With draws ahead (n * D = 10000, two steps
    # ahead) the draws of steps 4 and 5 were allowed and are finished before
    # the meter raises, however far the pool thread had got; drawing in the
    # caller (n * D = 800) stops at step 3's.  Either way rng does not move
    # once the meter has raised, and 20 runs end in the same state.
    law = rank_law(4, 1, seed=6)
    ref = spawn_rng(3, 2)
    for _ in range(drawn):
        ref.standard_normal((n, 1))  # X_0 of the rank-1 law
        ref.standard_normal((n, 4))
        ref.standard_normal((n, 4))
    sched = build_schedule(0.25, 4, 12)
    for _ in range(20):
        rng = spawn_rng(3, 2)
        with pytest.raises(ValueError, match="step k=3"):
            discretization_error_meter(_FailingGaussian(law, fail_at=7), sched, n, rng)
        state = rng.bit_generator.state
        assert state == ref.bit_generator.state
    time.sleep(0.05)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("spec", ["gaussian:D=64,rank=1", "circle:D=64,n=256"])
def test_meter_mc_peak_with_draws_ahead_is_at_most_nine_draws(spec):
    # n = 2048 rows of D = 64, the top of the draw-ahead range: one n x D
    # draw is 1 MiB.  Measured peak 7.1x (Gaussian) and 8.2x (circle): the
    # serial peak plus step k + 1's X_0 and two normal draws.
    oracle, sched = build_measure(spec), build_schedule(0.2, 2, 6)
    discretization_error_meter(oracle, sched, 2048, spawn_rng(0, 2))  # start the pool outside the traced run
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        discretization_error_meter(oracle, sched, 2048, spawn_rng(0, 2))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2048 * 64 * 8


@pytest.mark.parametrize("spec", ["gaussian:D=64,rank=1", "circle:D=64,n=256"])
def test_meter_mc_peak_two_steps_ahead_stays_under_the_one_step_bound(spec):
    # n = 1024 rows of D = 64, the top of the two-step range (n * D = 2**16):
    # the steps drawn ahead hold six n x D draws, as many values as one step
    # ahead at n * D = 2**17, so the bound of the 2**17 test holds.  Measured
    # peak 3.5x (Gaussian) and 6.2x (circle) of a 2**17-value draw; one step
    # ahead read 3.6x and 4.8x.
    oracle, sched = build_measure(spec), build_schedule(0.2, 2, 6)
    discretization_error_meter(oracle, sched, 1024, spawn_rng(0, 2))  # start the pool outside the traced run
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        discretization_error_meter(oracle, sched, 1024, spawn_rng(0, 2))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2048 * 64 * 8


@pytest.mark.parametrize("spec", ["gaussian:D=256,rank=1", "circle:D=256,n=256"])
def test_meter_mc_peak_is_at_most_six_draws(spec):
    # n = 4096 rows of D = 256: one n x D draw is 8 MiB.  Measured peak 4.0x
    # (Gaussian) and 4.4x (circle): a draw, its posterior mean and the
    # oracle's query operands.  Keeping X_0, both draws and both means alive
    # at once peaked at 8.0x and 8.4x.
    oracle, sched = build_measure(spec), build_schedule(0.2, 2, 6)
    discretization_error_meter(oracle, sched, 4096, spawn_rng(0, 2))  # start the pool outside the traced run
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        discretization_error_meter(oracle, sched, 4096, spawn_rng(0, 2))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 4096 * 256 * 8


# ---------------------------------------------------------------------------
# martingale and monotonicity checks
# ---------------------------------------------------------------------------


def test_martingale_degenerate_triple_residual_is_identically_zero():
    oracle = PointCloudOracle(PointCloudMeasure.uniform(np.array([[-0.5], [0.5]])))
    rng = spawn_rng(14, 0)
    rep = martingale_checks(oracle, 0.0, 0.4, 0.4, 2000, rng)
    assert rep.value == 0.0
    assert rep.stderr == 0.0


def test_martingale_residual_within_band_two_point():
    oracle = PointCloudOracle(PointCloudMeasure.uniform(np.array([[-0.5], [0.5]])))
    rng = spawn_rng(15, 0)
    rep = martingale_checks(oracle, 0.0, 0.25, 1.0, 100_000, rng)
    assert abs(rep.value) <= 3.0 * rep.stderr


def test_martingale_increments_match_gaussian_closed_form():
    law = rank_law(2, 1, var=0.25, seed=16)
    oracle = GaussianOracle(law)
    rng = spawn_rng(17, 0)
    t1, t2, t3 = 0.1, 0.4, 1.1
    rep = martingale_checks(oracle, t1, t2, t3, 120_000, rng)

    def postvar(t):
        ch_var = 0.25
        c2, s2 = math.exp(-2 * t), -math.expm1(-2 * t)
        return ch_var * s2 / (c2 * ch_var + s2)

    closed = {
        0: postvar(t3) - postvar(t1),
        1: postvar(t3) - postvar(t2),
        2: postvar(t2) - postvar(t1),
    }
    for (i, _, val, se) in rep.components:
        assert abs(val - closed[i]) <= 3.5 * se
    assert abs(rep.value) <= 3.0 * rep.stderr
    assert rep.extras["tower_residual"] < 0.05


def test_martingale_rejects_bad_ordering():
    oracle = PointMassOracle(np.zeros(1))
    rng = spawn_rng(18, 0)
    with pytest.raises(ValueError):
        martingale_checks(oracle, 0.5, 0.2, 1.0, 100, rng)


def test_monotonicity_point_mass_terms_vanish():
    oracle = PointMassOracle(np.array([0.3]))
    rng = spawn_rng(19, 0)
    rep = monotonicity_check(oracle, 0.1, 0.3, 0.8, 1000, rng)
    assert rep.value == 0.0
    for (_, _, val, _) in rep.components:
        assert val == 0.0


def test_monotonicity_two_point_difference_nonnegative():
    oracle = PointCloudOracle(PointCloudMeasure.uniform(np.array([[-0.5], [0.5]])))
    rng = spawn_rng(20, 0)
    rep = monotonicity_check(oracle, 0.1, 0.3, 0.8, 100_000, rng)
    assert rep.value >= -3.0 * rep.stderr


def test_weight_prefactor_is_decreasing():
    # d/dt of c^2 / sigma^4 is negative; spot check by central differences
    def pref(t):
        return math.exp(-2 * t) / (-math.expm1(-2 * t)) ** 2

    h = 1e-6
    for t in (0.1, 1.0, 3.0):
        assert (pref(t + h) - pref(t - h)) / (2 * h) < 0.0


# ---------------------------------------------------------------------------
# concentration
# ---------------------------------------------------------------------------


def test_concentration_point_mass_is_zero_everywhere():
    oracle = PointMassOracle(np.array([0.2, -0.2]))
    rng = spawn_rng(21, 0)
    rep = concentration_curve(oracle, [0.01, 0.1, 1.0], 500, rng)
    for (_, _, val, _) in rep.components:
        assert val == 0.0


def test_concentration_circle_bounded_and_normalized():
    rng = spawn_rng(22, 0)
    oracle = PointCloudOracle(make_manifold_cloud("circle", D=2, n=1024, rng=rng))
    rep = concentration_curve(oracle, [1e-3, 1e-2, 1e-1], 20_000, rng)
    for (_, _, val, se) in rep.components:
        assert val <= 1.0 + 3 * se
    assert rep.extras["min_increment_z"] > -3.0


# ---------------------------------------------------------------------------
# score-error budget
# ---------------------------------------------------------------------------


def test_budget_zero_bias():
    sched = build_schedule(0.2, 5, 15)
    law = rank_law(3, 1, var=0.25, seed=24)
    bias = ScorePerturbation(epsilon=0.0, constant=np.array([1.0, 0.0, 0.0]))
    rep = score_error_budget(law, bias, sched)
    assert rep.value == 0.0
    assert abs(rep.extras["kl_excess"]) < 1e-14


def test_budget_constant_bias_quadratic_homogeneity():
    sched = build_schedule(0.2, 5, 15)
    law = rank_law(3, 1, var=0.25, seed=25)
    a = np.array([0.6, -0.2, 0.1])
    rep1 = score_error_budget(law, ScorePerturbation(epsilon=0.01, constant=a), sched)
    rep2 = score_error_budget(law, ScorePerturbation(epsilon=0.02, constant=a), sched)
    assert abs(rep2.value - 4.0 * rep1.value) < 1e-12
    assert abs(rep1.value - 0.01**2 * float(a @ a) * float(sched.gammas.sum())) < 1e-12


def test_budget_kl_excess_slope_is_two():
    sched = build_schedule(0.2, 45, 121)
    law = rank_law(4, 1, var=0.25, seed=26)
    a = np.array([1.0, 0.0, 0.0, 0.0])
    eps = [0.01, 0.02, 0.04, 0.08]
    dkl = [
        score_error_budget(law, ScorePerturbation(epsilon=e, constant=a), sched).extras["kl_excess"]
        for e in eps
    ]
    slope = np.polyfit(np.log(eps), np.log(dkl), 1)[0]
    assert abs(slope - 2.0) <= 0.2


def test_budget_linear_bias_rides_the_channel_path():
    sched = build_schedule(0.2, 4, 12)
    law = rank_law(3, 1, var=0.25, seed=27)
    bias = ScorePerturbation(epsilon=0.05, linear=0.5 * np.eye(3))
    rep = score_error_budget(law, bias, sched)
    assert rep.value > 0.0
    assert rep.extras["kl_perturbed"] >= 0.0
    assert rep.extras["kl_perturbed"] == kl_experiment(law, ReverseRunConfig(schedule=sched, score_source=bias)).value


def test_budget_scalar_traces_match_explicit_trace():
    sched = build_schedule(0.2, 10, 40)
    D = 12
    rng = np.random.default_rng(5)
    law = rank_law(D, 3, var=0.5, mean=0.2 * rng.standard_normal(D), floor=0.1)
    bias = ScorePerturbation(epsilon=0.03, constant=rng.standard_normal(D), linear=-1.3 * np.eye(D))
    b, lin, cov0 = bias.epsilon * bias.constant, bias.epsilon * bias.linear, law.covariance()
    ref = 0.0
    for k in range(sched.n_steps):
        tau = float(sched.taus[k])
        c, s2 = math.exp(-tau), -math.expm1(-2.0 * tau)
        bm = lin @ (c * law.mean)
        trace = np.trace(lin.T @ lin @ (c * c * cov0 + s2 * np.eye(D)))
        ref += float(sched.gammas[k]) * float(b @ b + 2.0 * b @ bm + trace + bm @ bm)
    assert abs(score_error_budget(law, bias, sched).value - ref) <= 1e-12 * ref


_MIS_SIZED = [("constant", np.ones(1)), ("constant", np.ones((1, 4))), ("constant", np.ones(3)), ("linear", np.eye(3))]


@pytest.mark.parametrize("field, value", _MIS_SIZED)
def test_kl_experiment_rejects_a_mis_sized_perturbation_naming_the_field(field, value):
    cfg = ReverseRunConfig(schedule=build_schedule(0.2, 4, 12), score_source=ScorePerturbation(0.1, **{field: value}))
    for run in (kl_experiment, propagate_affine_reverse):
        with pytest.raises(ValueError, match=rf"ScorePerturbation\.{field} must have shape .* for D = 4, got"):
            run(rank_law(4, 1, seed=29), cfg)


@pytest.mark.parametrize("field, value", _MIS_SIZED)
def test_budget_rejects_a_mis_sized_perturbation_naming_the_field(field, value):
    with pytest.raises(ValueError, match=rf"ScorePerturbation\.{field} must have shape .* for D = 4, got"):
        score_error_budget(rank_law(4, 1, seed=29), ScorePerturbation(0.1, **{field: value}), build_schedule(0.2, 4, 12))


def test_budget_rejects_non_perturbation():
    sched = build_schedule(0.2, 4, 12)
    law = rank_law(2, 1, seed=28)
    with pytest.raises(ValueError):
        score_error_budget(law, "exact", sched)
