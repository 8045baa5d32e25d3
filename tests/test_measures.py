import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from revdiff import measures
from revdiff._pool import map_streams
from revdiff.harness import build_measure
from revdiff.sampler import ScorePerturbation
from revdiff.measures import (
    T_MIN,
    GaussianLaw,
    GaussianOracle,
    PointCloudMeasure,
    PointCloudOracle,
    PointMassOracle,
    ProductOracle,
    ScoreOracle,
    forward_bridge,
    forward_sample,
    log_marginal_gradient,
    make_manifold_cloud,
    random_frame,
    spawn_rng,
)

LN2 = math.log(2.0)


def two_point_cloud(sep=1.0, dim=1):
    pts = np.zeros((2, dim))
    pts[0, 0] = -sep / 2
    pts[1, 0] = sep / 2
    return PointCloudMeasure.uniform(pts)


# ---------------------------------------------------------------------------
# point mass
# ---------------------------------------------------------------------------


def test_point_mass_score_at_origin_data():
    oracle = PointMassOracle(np.zeros(3))
    x = np.array([0.4, -1.0, 2.0])
    np.testing.assert_allclose(oracle.score(0.3, x), -x / (-math.expm1(-0.6)))
    np.testing.assert_allclose(oracle.score(0.3, np.zeros(3)), 0.0)


def test_point_mass_score_basis_vector():
    # (c * y0 - x) / sigma2 at t = ln 2, x = 0: 0.5 / 0.75 = 2/3
    oracle = PointMassOracle(np.array([1.0, 0.0]))
    np.testing.assert_allclose(oracle.score(LN2, np.zeros(2)), [2.0 / 3.0, 0.0], atol=1e-15)


def test_point_mass_rejects_small_times():
    oracle = PointMassOracle(np.zeros(2))
    for t in (0.0, 1e-9, -1.0):
        with pytest.raises(ValueError):
            oracle.score(t, np.zeros(2))


def test_point_mass_rejects_nonfinite_points():
    with pytest.raises(ValueError):
        PointMassOracle(np.array([np.inf, 0.0]))
    oracle = PointMassOracle(np.zeros(2))
    with pytest.raises(ValueError):
        oracle.score(0.5, np.array([np.nan, 0.0]))


# ---------------------------------------------------------------------------
# point clouds
# ---------------------------------------------------------------------------


def test_cloud_weight_validation():
    pts = np.zeros((2, 1))
    with pytest.raises(ValueError):
        PointCloudMeasure(pts, np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        PointCloudMeasure(pts, np.array([1.5, -0.5]))
    # nan fails every comparison, so the sum check alone would let it through
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="weight"):
            PointCloudMeasure(pts, np.array([bad, 1.0]))


def test_symmetric_two_point_posterior_mean_is_zero():
    oracle = PointCloudOracle(two_point_cloud())
    for t in (0.05, 0.5, 2.0):
        np.testing.assert_allclose(oracle.posterior_mean(t, np.zeros(1)), 0.0, atol=1e-14)


def test_single_point_cloud_matches_point_mass():
    y0 = np.array([0.3, -0.7])
    cloud = PointCloudMeasure.uniform(y0[None, :])
    pc = PointCloudOracle(cloud)
    pm = PointMassOracle(y0)
    rng = np.random.default_rng(5)
    for t in (0.03, 0.4, 1.7):
        x = rng.standard_normal((4, 2))
        np.testing.assert_allclose(pc.posterior_mean(t, x), pm.posterior_mean(t, x), atol=1e-12)
        np.testing.assert_allclose(pc.score(t, x), pm.score(t, x), atol=1e-10)
        np.testing.assert_allclose(pc.log_marginal(t, x), pm.log_marginal(t, x), atol=1e-10)


def test_two_point_posterior_matches_bruteforce_softmax():
    # data {0, e1}, equal weights, queried off the symmetry point
    pts = np.array([[0.0], [1.0]])
    oracle = PointCloudOracle(PointCloudMeasure.uniform(pts))
    t, x = LN2, np.array([0.25])
    c, s2 = 0.5, 0.75
    logw = -((x - c * pts[:, 0]) ** 2) / (2 * s2)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    expected = w @ pts[:, 0]
    np.testing.assert_allclose(oracle.posterior_mean(t, x), [expected], atol=1e-14)
    # the brute-force weights at this point are equal, so the mean is 1/2
    np.testing.assert_allclose(expected, 0.5, atol=1e-14)


def test_cloud_log_weights_do_not_underflow_to_nan():
    # a faraway query must stay finite through the log-sum-exp path
    cloud = two_point_cloud()
    oracle = PointCloudOracle(cloud)
    x = np.array([300.0])
    t = 0.01
    assert np.isfinite(oracle.posterior_mean(t, x)).all()
    assert np.isfinite(oracle.log_marginal(t, x))
    np.testing.assert_allclose(oracle.posterior_mean(t, x), [0.5], atol=1e-12)


def _direct_form(cloud, t, x, dtype):
    """Posterior mean and log marginal from explicit differences x - c p_j.

    The oracle's kernel before the distance expansion, kept as the reference;
    evaluated in ``np.longdouble`` it stands in for the exact values.
    """
    pts = cloud.points.astype(dtype)
    x = x.astype(dtype)
    t = dtype(t)
    c, s2 = np.exp(-t), -np.expm1(-2 * t)
    with np.errstate(divide="ignore"):
        log_w = np.log(cloud.weights.astype(dtype))
    diff = x[:, None, :] - c * pts[None, :, :]
    lw = log_w - 0.5 * (diff * diff).sum(axis=-1) / s2
    m = lw.max(axis=1, keepdims=True)
    e = np.exp(lw - m)
    mean = (e @ pts) / e.sum(axis=1, keepdims=True)
    log_norm = 0.5 * cloud.dim * np.log(2 * dtype(np.pi) * s2)
    return mean, m[:, 0] + np.log(e.sum(axis=1)) - log_norm


def _tall(rows, oracle):
    """``rows`` repeated cyclically to one tile and 3 rows more, so a query spans two tiles."""
    return np.resize(rows, (oracle.chunk + 3, *rows.shape[1:]))


@given(
    dim=st.integers(1, 5),
    n=st.integers(2, 64),
    offset=st.floats(0.0, 1e3),
    log_t=st.floats(math.log(T_MIN), math.log(5.0)),
    noise=st.sampled_from([1.0, 30.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_cloud_kernel_precision_off_origin(dim, n, offset, log_t, noise, seed):
    # The expanded kernel cancels badly far from the origin at small t unless
    # it is centred.  Tolerances are 5-7x the worst errors seen in 32k
    # random cases; the float64 direct form stays within them as well.  The
    # 8 query rows are repeated past one tile, so the query spans two.
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    pts = offset * u / max(np.linalg.norm(u), 1e-12) + rng.standard_normal((n, dim))
    raw = rng.random(n) * (rng.random(n) > 0.25)
    raw[rng.integers(n)] += 0.5
    cloud = PointCloudMeasure(pts, raw / raw.sum())
    t = max(math.exp(log_t), T_MIN)
    c, s2 = math.exp(-t), -math.expm1(-2 * t)
    x = c * pts[rng.integers(n, size=8)] + noise * math.sqrt(s2) * rng.standard_normal((8, dim))
    oracle = PointCloudOracle(cloud)
    ref_mean, ref_lm = (_tall(r, oracle) for r in _direct_form(cloud, t, x, np.longdouble))
    x = _tall(x, oracle)
    err_mean = np.abs(oracle.posterior_mean(t, x) - ref_mean).max()
    assert err_mean <= 2e-12 * (1 + offset)
    err_lm = np.abs(oracle.log_marginal(t, x) - ref_lm) / np.maximum(1, np.abs(ref_lm))
    assert err_lm.max() <= 1e-8


@pytest.mark.parametrize("dim", [2, 4])
def test_cloud_kernel_bit_identical_threaded_and_inline(dim, monkeypatch):
    # From the main thread a query's tiles are shared out over the pool;
    # inside pooled work they run inline.  Neither the thread count nor the
    # thread a tile runs on may change a bit.  Three threads at once force
    # the sharing on any core count.
    kind = "circle" if dim == 2 else "torus"
    cloud = make_manifold_cloud(kind, dim, 2048, spawn_rng(11, 0), intrinsic_dim=dim // 2)
    oracle = PointCloudOracle(cloud)
    x = np.random.default_rng(12).standard_normal((5 * oracle.chunk + 7, dim))

    def queries(t):
        return oracle.posterior_mean(t, x), oracle.log_marginal(t, x)

    for t in (1e-3, 0.1, 3.0):
        monkeypatch.setattr(measures, "_pool_size", lambda: 3)
        threaded = queries(t)
        inline = map_streams(lambda _, rng: queries(t), [0, 1], 0, workers=2)
        monkeypatch.setattr(measures, "_pool_size", lambda: 1)
        single = queries(t)
        for got in (*inline, single):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(threaded, got))


def test_cloud_kernel_is_the_per_tile_passes_byte_for_byte(monkeypatch):
    # The reference makes each tile's passes in turn: logit GEMM, in-place
    # exp, GEMM against [q | 1], then a row-max redo of the tile's far rows
    # (normaliser below 2**-960) as one GEMM, and the divide.  The kernel
    # takes the far-row test, the redo and the divide out of the tiles; its
    # bits must not move, whatever the thread count.  At t = 1e-4 a row
    # about midway between two points 2 apart is far from the noised cloud,
    # and its mean depends on the bits of both logits.  The far rows sit in
    # tiles 1 and 3 of a 4-tile-and-5-row query, one in the first and two
    # in the second: a one-row product (BLAS gemv) rounds differently from
    # the same row inside a taller one, so the redo's grouping shows.
    t = 1e-4
    c, s2 = math.exp(-t), -math.expm1(-2 * t)
    rng = np.random.default_rng(19)
    pts = 1e3 * rng.standard_normal((64, 2))
    pts[1:6:2] = pts[0:6:2] + 2.0 * np.array([[0.6, 0.8], [1.0, 0.0], [0.0, -1.0]])
    cloud = PointCloudMeasure.uniform(pts)
    oracle = PointCloudOracle(cloud)
    chunk, dim = oracle.chunk, oracle.dim
    x = c * pts[rng.integers(64, size=4 * chunk + 5)] + math.sqrt(s2) * rng.standard_normal((4 * chunk + 5, 2))
    far_rows = [chunk + 7, 3 * chunk + 1, 4 * chunk - 1]
    x[far_rows] = c * (0.5 * (pts[0:6:2] + pts[1:6:2]) + 1e-4 * (pts[1:6:2] - pts[0:6:2]))

    y_op, q_op, _ = oracle._operands(t, x, measures._SHIFT_SCALE_CAP)
    q_one = np.hstack([oracle._q, np.ones((len(oracle._q), 1))])
    ref, redone = [], []
    for start in range(0, len(x), chunk):
        tile_op = y_op[start : start + chunk]
        lw = tile_op @ q_op
        sums = np.exp(lw, out=lw) @ q_one
        far = ~(sums[:, dim] >= 2.0**-960)
        if far.any():
            lw = tile_op[far, : dim + 1] @ q_op[: dim + 1]
            lw -= lw.max(axis=1, keepdims=True)
            sums[far] = np.exp(lw, out=lw) @ q_one
            redone.extend(start + np.flatnonzero(far))
        ref.append(sums[:, :dim] / sums[:, dim:] + oracle._mu)
    assert redone == far_rows
    ref = np.concatenate(ref)
    for pool in (1, 3):
        monkeypatch.setattr(measures, "_pool_size", lambda: pool)
        assert oracle.posterior_mean(t, x).tobytes() == ref.tobytes()


def test_cloud_far_queries_match_the_long_double_direct_form():
    # Far queries at tiny t put logits more than 745 nats below their row's
    # max, where exp underflows to zero; the answers must still match the
    # long-double direct form.
    cloud = make_manifold_cloud("circle", 2, 512, spawn_rng(13, 0))
    oracle = PointCloudOracle(cloud)
    x = 3.0 * np.random.default_rng(14).standard_normal((40, 2))
    tall = _tall(x, oracle)
    for t in (1e-4, 1e-3):
        c, s2 = math.exp(-t), -math.expm1(-2 * t)
        diff = x[:, None, :].astype(np.longdouble) - c * cloud.points[None, :, :]
        logits = np.log(cloud.weights) - 0.5 * (diff * diff).sum(axis=-1) / s2
        assert (logits - logits.max(axis=1, keepdims=True) <= -745).any()
        ref_mean, ref_lm = (_tall(r, oracle) for r in _direct_form(cloud, t, x, np.longdouble))
        assert np.abs(oracle.posterior_mean(t, tall) - ref_mean).max() <= 2e-12
        assert (np.abs(oracle.log_marginal(t, tall) - ref_lm) <= 1e-8 * np.maximum(1, np.abs(ref_lm))).all()


@given(
    dim=st.integers(1, 5),
    n=st.integers(2, 64),
    offset=st.floats(0.0, 1e3),
    log_t=st.floats(math.log(T_MIN), math.log(5.0)),
    noise=st.sampled_from([1.0, 30.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=1, n=3, offset=684.0, log_t=0.0, noise=30.0, seed=41320)  # the bound met exactly
@settings(max_examples=150, deadline=None)
def test_cloud_shift_is_never_below_a_row_max_logit(dim, n, offset, log_t, noise, seed):
    # posterior_mean shifts each row's logits by a bound b instead of by
    # their max.  Against the long-double logits
    # (c y.q_j - c^2 ||q_j||^2 / 2) / s2 + log w_j on the oracle's own
    # centred points, b may fall short only by its rounding, a few ulps of
    # its terms; in one dimension the bound is often met exactly.
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    pts = offset * u / max(np.linalg.norm(u), 1e-12) + rng.standard_normal((n, dim))
    raw = rng.random(n) * (rng.random(n) > 0.25)
    raw[rng.integers(n)] += 0.5
    cloud = PointCloudMeasure(pts, raw / raw.sum())
    t = max(math.exp(log_t), T_MIN)
    c, s2 = math.exp(-t), -math.expm1(-2 * t)
    x = c * pts[rng.integers(n, size=8)] + noise * math.sqrt(s2) * rng.standard_normal((8, dim))
    oracle = PointCloudOracle(cloud)
    y_op = oracle._operands(t, x, measures._SHIFT_SCALE_CAP)[0]
    y = x - c * oracle._mu
    b = -y_op[:, dim + 1]
    assert np.isfinite(b).all()  # these terms are far below the overflow guard
    ld = np.longdouble
    q, y = oracle._q.astype(ld), y.astype(ld)
    log_w = np.log(cloud.weights[cloud.weights > 0])
    logits = (ld(c) * (y @ q.T) - 0.5 * ld(c) ** 2 * (q * q).sum(axis=1)) / ld(s2) + log_w.astype(ld)
    y_norm = np.sqrt((y * y).sum(axis=1))
    q_max = np.sqrt((q * q).sum(axis=1).max())
    slack = 16 * np.finfo(float).eps * ((y_norm**2 / 2 + c * q_max * y_norm) / s2 + np.abs(log_w).max())
    assert (b >= logits.max(axis=1) - slack).all()


def test_cloud_tiles_mixing_near_and_far_rows_match_the_long_double_direct_form():
    # Every tile holds rows near the noised cloud, which the shifted kernel
    # answers, and rows with |x| about 3 at t = 1e-4.  On a cloud spread to
    # 1e6 those are far from every point: their bound overshoots the row max
    # by far more than 665 nats, the shifted normaliser underflows and the
    # row is recomputed with its max.  On a diameter-1 circle the bound
    # nearly meets them, since some point lies close to every direction.
    # The 48 rows are repeated past one tile, so the query spans two.
    t = 1e-4
    c, s2 = math.exp(-t), -math.expm1(-2 * t)
    rng = np.random.default_rng(16)
    circle = make_manifold_cloud("circle", 2, 512, spawn_rng(17, 0))
    spread = PointCloudMeasure.uniform(1e6 * rng.standard_normal((64, 2)))
    for cloud, scale in ((spread, 1e6), (circle, 1.0)):
        oracle = PointCloudOracle(cloud)
        near = c * cloud.points[rng.integers(len(cloud.points), size=24)] + math.sqrt(s2) * rng.standard_normal((24, 2))
        far = rng.standard_normal((24, 2))
        far *= 3.0 / np.linalg.norm(far, axis=1, keepdims=True)
        x = np.empty((48, 2))
        x[0::2], x[1::2] = near, far
        if cloud is spread:
            # the bound less each row's max kernel logit, which is the direct
            # form's plus ||y||^2 / (2 s2)
            y_op = oracle._operands(t, x, measures._SHIFT_SCALE_CAP)[0]
            y = (x - c * oracle._mu).astype(np.longdouble)
            diff = x[:, None, :].astype(np.longdouble) - c * cloud.points[None, :, :]
            top = (np.log(cloud.weights) - 0.5 * (diff * diff).sum(axis=-1) / s2).max(axis=1)
            overshoot = -y_op[:, -1] - top - 0.5 * (y * y).sum(axis=1) / s2
            assert (overshoot[0::2] < 50).all() and (overshoot[1::2] > 1e4).all()
        mean = oracle.posterior_mean(t, _tall(x, oracle))
        assert np.isfinite(mean).all()
        ref_mean = _tall(_direct_form(cloud, t, x, np.longdouble)[0], oracle)
        assert np.abs(mean - ref_mean).max() <= 2e-12 * (1 + scale)


def test_cloud_queries_too_large_for_the_shift_stay_finite_and_quiet():
    # Near queries on a cloud spread to 1e8 at small t give logit terms near
    # 1e23, whose rounding alone is millions of nats: shifted by b, some
    # would overflow exp.  Each such row goes straight to the row-max
    # fallback, with every operand of the tile pass finite.
    rng = np.random.default_rng(18)
    cloud = PointCloudMeasure.uniform(1e8 * rng.standard_normal((64, 2)))
    oracle = PointCloudOracle(cloud)
    for t in (T_MIN, 1e-4):
        c, s2 = math.exp(-t), -math.expm1(-2 * t)
        x = c * cloud.points[rng.integers(64, size=16)] + math.sqrt(s2) * rng.standard_normal((16, 2))
        y_op, q_op, over = oracle._operands(t, x, measures._SHIFT_SCALE_CAP)
        assert over.all() and np.isfinite(y_op).all() and np.isfinite(q_op).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean = oracle.posterior_mean(t, x)
        ref_mean, _ = _direct_form(cloud, t, x, np.longdouble)
        assert np.abs(mean - ref_mean).max() <= 2e-12 * (1 + 1e8)


def test_cloud_rows_whose_logits_overflow_leave_the_other_rows_alone():
    # On a cloud spread to 1e149 (inside the radius the oracle takes) at
    # t = 1e-8, queries spread to 1e151 make some rows' logits overflow to
    # inf and their normaliser NaN; each row must still get the answer it
    # gets alone, NaN for those rows and finite for the rest.
    rng = np.random.default_rng(1)
    oracle = PointCloudOracle(PointCloudMeasure.uniform(1e149 * rng.standard_normal((16, 2))))
    x = 1e151 * rng.standard_normal((5, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = oracle.posterior_mean(T_MIN, x)
        alone = np.array([oracle.posterior_mean(T_MIN, row) for row in x])
    assert np.isfinite(mean).all(axis=1).sum() == 3
    np.testing.assert_allclose(mean, alone, rtol=1e-12, equal_nan=True)


@pytest.mark.parametrize("t", [1e-3, 0.2, 3.0])
@pytest.mark.parametrize("sep", [1e8, 1e9, 1e20])
def test_cloud_rows_past_the_cap_keep_the_tile_pass_finite_and_quiet(sep, t):
    # A row past the term-scale cap once carried the bound +inf into the
    # tile GEMM, where BLAS's padded lanes multiplied it by 0 and numpy
    # warned "invalid value encountered in matmul".  Such a row now goes
    # straight to the row-max fallback with every operand finite.  Past
    # sep = 1e8 (or at t = 1e-3) some rows are past the cap.
    cloud = two_point_cloud(sep, dim=2)
    oracle = PointCloudOracle(cloud)
    c, s2 = math.exp(-t), -math.expm1(-2 * t)
    rng = np.random.default_rng(20)
    near = c * cloud.points[rng.integers(2, size=40)] + math.sqrt(s2) * rng.standard_normal((40, 2))
    x = np.concatenate([near, sep * rng.standard_normal((40, 2))])
    y_op, q_op, over = oracle._operands(t, x, measures._SHIFT_SCALE_CAP)
    assert over.any() == (sep > 1e8 or t == 1e-3)
    assert np.isfinite(y_op).all() and np.isfinite(q_op).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, lm = oracle.posterior_mean(t, x), oracle.log_marginal(t, x)
    assert np.isfinite(lm).all()
    ref_mean, _ = _direct_form(cloud, t, x, np.longdouble)
    assert np.abs(mean - ref_mean).max() <= 2e-12 * (1 + sep)


def test_cloud_too_large_for_the_kernel_is_refused():
    # A query within c r of the centroid of a cloud of radius r has logit
    # terms summing in magnitude to about 2 c^2 r^2 / s2 at most, finite at
    # t = T_MIN up to r = _RADIUS_MAX.  Two points sep apart sit sep / 2 from
    # their centroid.  Just inside, a query at the points stays finite and
    # quiet at T_MIN: rows past the cap stay out of the tile GEMM, and the
    # fallback's logits, down to -1.5 c^2 r^2 / s2, do not overflow.
    limit = 2 * measures._RADIUS_MAX
    assert 2.68e150 < limit < 2.69e150
    for sep in (2.5e150, limit * (1 - 1e-12)):
        inside = PointCloudOracle(two_point_cloud(sep, dim=2))
        for t in (T_MIN, 0.2):
            x = inside.cloud.points * math.exp(-t)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mean, lm = inside.posterior_mean(t, x), inside.log_marginal(t, x)
            assert np.isfinite(mean).all() and np.isfinite(lm).all()
    # just past the limit, and past a finite squared radius (sep = 2.7e154)
    for sep in (limit * (1 + 1e-12), 1e160):
        with pytest.raises(ValueError, match="about its centroid is past the kernel's limit"):
            PointCloudOracle(two_point_cloud(sep, dim=2))


@pytest.mark.parametrize("spec", ["two-point:D=2", "circle:D=2,n=512", "torus:D=4,d=2", "circle:D=64"])
def test_cloud_log_marginal_matches_the_direct_log_sum_exp(spec):
    # log_marginal against np.logaddexp.reduce over the components
    # log w_j - ||x - c p_j||^2 / (2 s2) - (D / 2) log(2 pi s2), in float64,
    # within 1e-13 of max(1, |ref|).  Queries at |x| in {0.3, 1, 30, 1e4}
    # in random directions and near the noised points: rows that keep their
    # bound and rows that take the row-max fallback, in the same tiles.
    oracle = build_measure(spec, seed=0)
    pts, log_w = oracle.cloud.points, np.log(oracle.cloud.weights)
    rng = np.random.default_rng(21)
    kept = redone = 0
    for t in (1e-3, 0.02, 0.3, 3.0):
        c, s2 = math.exp(-t), -math.expm1(-2 * t)
        for radius in (0.3, 1.0, 30.0, 1e4):
            u = rng.standard_normal((16, oracle.dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            near = c * pts[rng.integers(len(pts), size=16)] + radius * math.sqrt(s2) * u
            x = np.concatenate([radius * u, near])
            ref = np.array([np.logaddexp.reduce(log_w - 0.5 * ((row - c * pts) ** 2).sum(axis=1) / s2) for row in x])
            ref -= 0.5 * oracle.dim * math.log(2 * math.pi * s2)
            got = oracle.log_marginal(t, x)
            assert (np.abs(got - ref) <= 1e-13 * np.maximum(1, np.abs(ref))).all()
            far = oracle._shifted_sums(t, x, oracle._q_one[:, oracle.dim :], measures._LOG_MARGINAL_CAP)[1]
            kept, redone = kept + len(x) - len(far), redone + len(far)
    assert kept > 0 and redone > 0


def test_cloud_query_with_every_row_past_the_cap_makes_no_tile_gemm(monkeypatch):
    # At D = 64 every forward-sampled row is past log_marginal's 2**10 term
    # scale cap, so the query goes straight to the row-max pass, one GEMM per
    # tile of its rows; its tile pass has no rows.  posterior_mean's 2**61
    # cap keeps the same rows in the tiles.  Both match the direct forms.
    oracle = build_measure("circle:D=64,n=512", seed=0)
    t = 0.3
    c, s2 = math.exp(-t), -math.expm1(-2 * t)
    x = forward_sample(oracle, t, spawn_rng(22, 0), 3 * oracle.chunk + 5)[1]
    calls, map_pooled = [], measures._map_pooled

    def spy(call, items, workers):
        items = list(items)
        calls.append((call.__name__, len(items)))
        return map_pooled(call, items, workers)

    monkeypatch.setattr(measures, "_map_pooled", spy)
    got = oracle.log_marginal(t, x)
    assert calls == [("run", 0), ("redo", 4)]
    pts, log_w = oracle.cloud.points, np.log(oracle.cloud.weights)
    ref = np.array([np.logaddexp.reduce(log_w - 0.5 * ((row - c * pts) ** 2).sum(axis=1) / s2) for row in x])
    ref -= 0.5 * oracle.dim * math.log(2 * math.pi * s2)
    assert (np.abs(got - ref) <= 1e-13 * np.maximum(1, np.abs(ref))).all()
    calls.clear()
    mean = oracle.posterior_mean(t, x)
    assert calls == [("run", 4), ("redo", 0)]
    ref_mean, _ = _direct_form(oracle.cloud, t, x, np.longdouble)
    assert np.abs(mean - ref_mean).max() <= 2e-12


def _cloud_with_zero_weights(seed):
    """A 300-point cloud in R^3 where every third point has weight zero, and
    the same cloud without those points."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((300, 3))
    w = rng.random(300)
    w[::3] = 0.0
    w /= w.sum()
    kept = w > 0
    return PointCloudMeasure(pts, w), PointCloudMeasure(pts[kept], w[kept])


def test_cloud_zero_weight_points_change_nothing():
    full, pruned = _cloud_with_zero_weights(5)
    a, b = PointCloudOracle(full), PointCloudOracle(pruned)
    assert a.chunk == b.chunk == 2**16 // 200
    x = np.random.default_rng(6).standard_normal((2000, 3))
    for t in (1e-3, 0.1, 2.0):
        ma, mb = a.posterior_mean(t, x), b.posterior_mean(t, x)
        assert np.abs(ma - mb).max() <= 1e-15 * np.abs(mb).max()
        la, lb = a.log_marginal(t, x), b.log_marginal(t, x)
        assert np.abs(la - lb).max() <= 1e-15 * np.abs(lb).max()
    # sample0 draws over the full cloud and the same stream
    idx = np.random.default_rng(7).choice(300, size=500, p=full.weights)
    np.testing.assert_array_equal(a.sample0(np.random.default_rng(7), 500), full.points[idx])
    np.testing.assert_array_equal(a.sample0(np.random.default_rng(7), 500), b.sample0(np.random.default_rng(7), 500))


def test_cloud_default_tile_matches_single_rows():
    # A tall query runs in 32-row tiles and a one-row query is a one-row
    # tile.  Tile height changes only the BLAS summation order of the logit
    # GEMM, so the bound is 1e-15 in units of the logit scale
    # 1 + c |y| |q| / sigma2 (plus |log p| for the log marginal); the
    # diameter is 1.
    cloud = make_manifold_cloud("torus", 4, 2048, spawn_rng(8, 0), intrinsic_dim=2)
    oracle = PointCloudOracle(cloud)
    assert oracle.chunk == 32
    centroid = cloud.weights @ cloud.points
    q_max = np.linalg.norm(cloud.points - centroid, axis=1).max()
    x = np.random.default_rng(9).standard_normal((300, 4))
    for t in (1e-3, 0.05, 1.0):
        c, s2 = math.exp(-t), -math.expm1(-2 * t)
        scale = 1.0 + c * np.linalg.norm(x - c * centroid, axis=1) * q_max / s2
        m_tiled, m_rows = oracle.posterior_mean(t, x), np.array([oracle.posterior_mean(t, row) for row in x])
        assert (np.abs(m_tiled - m_rows).max(axis=1) <= 1e-15 * scale).all()
        l_tiled, l_rows = oracle.log_marginal(t, x), np.array([oracle.log_marginal(t, row) for row in x])
        assert (np.abs(l_tiled - l_rows) <= 1e-15 * (scale + np.abs(l_rows))).all()


def test_boundedness_for_diameter_one_cloud():
    rng = spawn_rng(2, 0)
    pts = rng.standard_normal((40, 3))
    raw = PointCloudMeasure.uniform(pts)
    cloud = raw.normalized(raw.diameter())
    oracle = PointCloudOracle(cloud)
    for t in (0.02, 0.3, 1.5):
        x0, xt = forward_sample(oracle, t, rng, 500)
        dist = np.linalg.norm(x0 - oracle.posterior_mean(t, xt), axis=1)
        assert (dist <= 1.0 + 1e-12).all()


def test_martingale_mean_property():
    rng = spawn_rng(3, 0)
    oracle = PointCloudOracle(two_point_cloud(sep=0.8, dim=2))
    n = 100_000
    x0, xt = forward_sample(oracle, 0.7, rng, n)
    m = oracle.posterior_mean(0.7, xt)
    se = m.std(axis=0, ddof=1) / math.sqrt(n)
    assert (np.abs(m.mean(axis=0) - x0.mean(axis=0)) <= 3 * se + 3 * 0.4 / math.sqrt(n)).all()


# ---------------------------------------------------------------------------
# gaussian laws
# ---------------------------------------------------------------------------


def test_standard_gaussian_score_is_negative_identity():
    oracle = GaussianOracle(GaussianLaw.isotropic(3))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3))
    for t in (0.01, 0.5, 4.0):
        np.testing.assert_allclose(oracle.score(t, x), -x, atol=1e-12)


def test_degenerate_gaussian_matches_point_mass():
    y0 = np.array([0.2, -0.4, 1.0])
    oracle = GaussianOracle(GaussianLaw.point_mass(y0))
    pm = PointMassOracle(y0)
    x = np.array([0.5, 0.5, -0.2])
    for t in (0.05, 0.9):
        np.testing.assert_allclose(oracle.score(t, x), pm.score(t, x), atol=1e-12)
        np.testing.assert_allclose(
            oracle.posterior_mean(t, x), pm.posterior_mean(t, x), atol=1e-12
        )
        np.testing.assert_allclose(oracle.log_marginal(t, x), pm.log_marginal(t, x), atol=1e-12)


def test_rank_one_gaussian_matches_dense_inverse():
    law = GaussianLaw(mean=np.zeros(2), factor=np.array([[1.0], [0.0]]))
    oracle = GaussianOracle(law)
    cov_t = 0.25 * np.outer([1, 0], [1, 0]) + 0.75 * np.eye(2)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((16, 2))
    np.testing.assert_allclose(
        oracle.score(LN2, x), -np.linalg.solve(cov_t, x.T).T, atol=1e-13
    )


def test_gaussian_posterior_mean_tweedie_inversion():
    rng = np.random.default_rng(2)
    law = GaussianLaw(mean=rng.standard_normal(4), factor=rng.standard_normal((4, 2)), diag_floor=0.3)
    oracle = GaussianOracle(law)
    t = 0.6
    x = rng.standard_normal((5, 4))
    c, s2 = math.exp(-t), -math.expm1(-2 * t)
    np.testing.assert_allclose(
        oracle.posterior_mean(t, x), (x + s2 * oracle.score(t, x)) / c, atol=1e-13
    )


def _exact_gaussian_queries(law, t, x):
    """Score, posterior mean and log marginal of the noised law in exact
    rational arithmetic on the float64 inputs (c and sigma2 as the oracle
    rounds them), from the dense covariance: the reference for the oracle."""
    dim = law.dim
    c, s2 = Fraction(math.exp(-t)), Fraction(-math.expm1(-2.0 * t))
    fac = [[Fraction(v) for v in row] for row in law.factor]
    cov0 = [
        [sum((a * b for a, b in zip(fac[i], fac[j])), Fraction(law.diag_floor) if i == j else Fraction(0))
         for j in range(dim)]
        for i in range(dim)
    ]
    mean = [Fraction(v) for v in law.mean]
    vs = [[Fraction(xi) - c * mi for xi, mi in zip(row, mean)] for row in x]
    # Gauss-Jordan on [Cov_t | v_1 ... v_n]; the pivots multiply to det Cov_t
    aug = [[c * c * cov0[i][j] + (s2 if i == j else 0) for j in range(dim)] + [v[i] for v in vs] for i in range(dim)]
    det = Fraction(1)
    for p in range(dim):
        det *= aug[p][p]
        aug[p] = [v / aug[p][p] for v in aug[p]]
        for i in range(dim):
            if i != p:
                aug[i] = [a - aug[i][p] * b for a, b in zip(aug[i], aug[p])]
    sols = [[aug[i][dim + k] for i in range(dim)] for k in range(len(vs))]
    score = [[-float(y) for y in sol] for sol in sols]
    pm = [[float(mean[i] + c * sum(cov0[i][j] * sol[j] for j in range(dim))) for i in range(dim)] for sol in sols]
    logdet = math.log(det.numerator) - math.log(det.denominator)
    lm = [
        -0.5 * float(sum(a * b for a, b in zip(v, sol))) - 0.5 * (logdet + dim * math.log(2.0 * math.pi))
        for v, sol in zip(vs, sols)
    ]
    return np.array(score), np.array(pm), np.array(lm)


@given(
    dim=st.integers(1, 6),
    rank_frac=st.floats(0.0, 1.0),
    zero_column=st.booleans(),
    log_floor=st.one_of(st.none(), st.floats(-6.0, 1.0)),
    offset=st.floats(0.0, 1e3),
    log_t=st.floats(math.log(T_MIN), math.log(20.0)),
    noise=st.sampled_from([1.0, 30.0]),
    seed=st.integers(0, 2**32 - 1),
)
# t = 20, where a posterior mean recovered as (x + sigma2 score) / c loses 1e-7
@example(dim=3, rank_frac=0.34, zero_column=False, log_floor=None, offset=0.0, log_t=math.log(20.0), noise=1.0, seed=1)
@settings(max_examples=120, deadline=None)
def test_gaussian_queries_match_exact_dense_reference(dim, rank_frac, zero_column, log_floor, offset, log_t, noise, seed):
    # Normwise bounds: K eps times the condition of each query, where the
    # input x - c mean is known to eps (|x| + c |mean|).  K is over twice the
    # worst error seen in 5k random cases (28 eps-units).
    K = 64 * np.finfo(float).eps
    rng = np.random.default_rng(seed)
    rank = round(rank_frac * dim)
    factor = rng.standard_normal((dim, rank)) * math.exp(rng.uniform(-3.0, 2.0))
    if zero_column and rank:
        factor[:, rng.integers(rank)] = 0.0
    floor = 0.0 if log_floor is None else math.exp(log_floor)
    u = rng.standard_normal(dim)
    law = GaussianLaw(offset * u / max(np.linalg.norm(u), 1e-12), factor, floor)
    oracle = GaussianOracle(law)
    t = min(max(math.exp(log_t), T_MIN), 20.0)
    c, s2 = math.exp(-t), -math.expm1(-2.0 * t)
    x = c * oracle.sample0(rng, 3) + noise * math.sqrt(s2) * rng.standard_normal((3, dim))
    ref_score, ref_pm, ref_lm = _exact_gaussian_queries(law, t, x)

    cov0 = law.covariance()
    eig_t = np.linalg.eigvalsh(c * c * cov0 + s2 * np.eye(dim))
    eig0 = np.clip(np.linalg.eigvalsh(cov0), 0.0, None)
    size = np.linalg.norm(x, axis=1) + c * np.linalg.norm(law.mean)
    gain = float(np.max(c * eig0 / (c * c * eig0 + s2)))  # |c Cov Cov_t^-1|
    err = np.linalg.norm(oracle.score(t, x) - ref_score, axis=1)
    assert (err <= K * size / eig_t.min()).all()
    err = np.linalg.norm(oracle.posterior_mean(t, x) - ref_pm, axis=1)
    assert (err <= K * (np.linalg.norm(law.mean) + gain * size)).all()
    quad = -2.0 * ref_lm - np.log(eig_t).sum() - dim * math.log(2.0 * math.pi)
    scale = np.linalg.norm(ref_score, axis=1) * size + np.abs(quad) + np.abs(np.log(eig_t)).sum() + 2 * dim
    assert (np.abs(oracle.log_marginal(t, x) - ref_lm) <= K * scale).all()


def test_gaussian_sampling_moments():
    rng = spawn_rng(4, 0)
    law = GaussianLaw(mean=np.array([1.0, -2.0]), factor=np.array([[0.5], [0.25]]), diag_floor=0.1)
    oracle = GaussianOracle(law)
    n = 200_000
    x = oracle.sample0(rng, n)
    np.testing.assert_allclose(x.mean(axis=0), law.mean, atol=4 * 0.8 / math.sqrt(n))
    np.testing.assert_allclose(np.cov(x.T), law.covariance(), atol=0.01)


class _DotAsMatmul:
    """numpy with ``dot`` taken by ``@``: the reference for the oracle's thin products."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def dot(a, b):
        return a @ b


@pytest.mark.parametrize(
    "spec", ["gaussian:D=4,rank=1", "gaussian:D=64,rank=4", "gaussian:D=8,rank=8", "gaussian:D=8,rank=8,floor=0.1"]
)
def test_gaussian_thin_products_match_matmul_byte_for_byte(spec, monkeypatch):
    # np.dot makes the same product as @, without @'s slow path for an inner
    # dimension of 1; the bits of every draw and query must not move.
    oracle = build_measure(spec, 3)
    x = spawn_rng(4, 0).standard_normal((5000, oracle.dim))

    def outputs():
        got = [oracle.sample0(spawn_rng(4, 1), 3000)]
        for t in (1e-4, 0.05, 1.0, 8.0):
            got += [oracle.posterior_mean(t, x), oracle.score(t, x), oracle.posterior_mean(t, x[0])]
            got += [oracle.log_marginal(t, x), oracle.log_marginal(t, x[0])]
        return got

    dot = outputs()
    monkeypatch.setattr(measures, "np", _DotAsMatmul())
    for a, b in zip(dot, outputs(), strict=True):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_product_block_validation():
    pm = PointMassOracle(np.zeros(1))
    with pytest.raises(ValueError):
        ProductOracle([(pm, [0]), (pm, [0])])  # overlap
    with pytest.raises(ValueError):
        ProductOracle([(pm, [0]), (pm, [2])])  # gap
    with pytest.raises(ValueError):
        ProductOracle([(pm, [0, 1])])  # block size mismatch


def test_product_of_deltas_is_delta():
    factors = [(PointMassOracle(np.zeros(1)), [i]) for i in range(3)]
    prod = ProductOracle(factors)
    ref = PointMassOracle(np.zeros(3))
    x = np.array([0.1, -0.2, 0.3])
    np.testing.assert_allclose(prod.score(0.4, x), ref.score(0.4, x), atol=1e-14)


def test_product_with_delta_block_has_pure_noise_score():
    # second coordinate is a point mass at zero: score there is -x2 / sigma2
    two = PointCloudOracle(two_point_cloud())
    prod = ProductOracle([(two, [0]), (PointMassOracle(np.zeros(1)), [1])])
    t = 0.8
    x = np.array([0.3, -0.9])
    s = prod.score(t, x)
    np.testing.assert_allclose(s[1], -x[1] / (-math.expm1(-2 * t)), atol=1e-14)
    np.testing.assert_allclose(s[0], two.score(t, x[:1])[0], atol=1e-14)


def test_product_of_point_clouds_equals_product_cloud():
    a = PointCloudMeasure(np.array([[0.0], [1.0]]), np.array([0.3, 0.7]))
    b = PointCloudMeasure(np.array([[-0.5], [0.5]]), np.array([0.6, 0.4]))
    prod = ProductOracle([(PointCloudOracle(a), [0]), (PointCloudOracle(b), [1])])
    # brute-force 2-D product cloud
    pts = np.array([[pa, pb] for pa in a.points[:, 0] for pb in b.points[:, 0]])
    wts = np.array([wa * wb for wa in a.weights for wb in b.weights])
    joint = PointCloudOracle(PointCloudMeasure(pts, wts))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 2))
    for t in (0.05, 0.7):
        np.testing.assert_allclose(prod.posterior_mean(t, x), joint.posterior_mean(t, x), atol=1e-12)
        np.testing.assert_allclose(prod.score(t, x), joint.score(t, x), atol=1e-11)
        np.testing.assert_allclose(prod.log_marginal(t, x), joint.log_marginal(t, x), atol=1e-12)


def test_product_checks_each_coordinate_once(monkeypatch):
    # the product checks only the query's size; each factor checks its block
    calls = []
    check = ScoreOracle._check_point
    monkeypatch.setattr(ScoreOracle, "_check_point", lambda self, x: calls.append(1) or check(self, x))
    two = PointCloudOracle(two_point_cloud())
    prod = ProductOracle([(two, [0]), (PointMassOracle(np.zeros(1)), [1])])
    x = np.array([[0.3, -0.9], [0.1, 0.2]])
    for method in ("score", "posterior_mean", "log_marginal"):
        calls.clear()
        getattr(prod, method)(0.5, x)
        assert len(calls) == 2, method
    for bad in ([np.nan, 0.0], [0.0, np.inf]):
        for method in ("score", "posterior_mean", "log_marginal"):
            with pytest.raises(ValueError, match="non-finite point"):
                getattr(prod, method)(0.5, np.array(bad))
    with pytest.raises(ValueError, match="R\\^2"):
        prod.score(0.5, np.zeros(3))


# ---------------------------------------------------------------------------
# query results are new arrays
# ---------------------------------------------------------------------------


def _state_arrays(obj):
    """Every array an oracle or perturbation holds, through its laws, clouds and factors."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _state_arrays(item)]
    if hasattr(obj, "__dict__"):
        return [a for value in vars(obj).values() for a in _state_arrays(value)]
    return []


@pytest.mark.parametrize(
    "oracle",
    [
        PointMassOracle(np.array([0.6, -0.1, 0.0])),
        GaussianOracle(GaussianLaw(mean=np.array([0.3, -0.2, 0.1]), factor=np.array([[0.5], [0.1], [-0.4]]), diag_floor=0.05)),
        GaussianOracle(GaussianLaw(mean=np.zeros(3), factor=np.diag([1.0, 0.5, 0.25]))),
        PointCloudOracle(PointCloudMeasure.uniform(np.arange(21.0).reshape(7, 3) / 10.0)),
        ProductOracle([(PointMassOracle(np.array([0.2])), [1]), (build_measure("gaussian:D=2,rank=1", 4), [0, 2])]),
    ],
    ids=["point-mass", "gaussian", "gaussian-full-rank", "cloud", "product"],
)
def test_queries_return_arrays_that_share_no_memory_with_the_query_or_the_state(oracle):
    # Callers may overwrite a score or posterior mean: the sampler draws the
    # next step's noise into the spent score array.
    bias = ScorePerturbation(epsilon=0.2, constant=np.array([1.0, 0.0, -1.0]), linear=0.5 * np.eye(3))
    state = _state_arrays(oracle) + _state_arrays(bias)
    assert state
    for x in (np.array([0.3, -0.4, 0.5]), spawn_rng(5, 0).standard_normal((6, 3))):
        queries = [oracle.score, oracle.posterior_mean, bias.perturb(oracle.score), ScorePerturbation(0.1).perturb(oracle.score)]
        for query in queries:
            out = query(0.5, x)
            assert out.shape == x.shape and out.flags.writeable
            assert not any(np.shares_memory(out, a) for a in [x, *state])


# ---------------------------------------------------------------------------
# tweedie consistency via finite differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "maker",
    [
        lambda rng: PointCloudOracle(
            PointCloudMeasure.uniform(0.4 * rng.standard_normal((5, 3)))
        ),
        lambda rng: GaussianOracle(
            GaussianLaw(mean=0.2 * rng.standard_normal(3), factor=0.5 * rng.standard_normal((3, 2)))
        ),
        lambda rng: PointMassOracle(np.array([0.6, -0.1, 0.0])),
    ],
)
def test_score_is_gradient_of_log_marginal(maker):
    rng = spawn_rng(11, 0)
    oracle = maker(rng)
    for _ in range(25):
        t = float(np.exp(rng.uniform(math.log(0.02), math.log(3.0))))
        _, x = forward_sample(oracle, t, rng, 1)
        x = x[0]
        grad = log_marginal_gradient(oracle, t, x, h=1e-5)
        s = oracle.score(t, x)
        assert np.linalg.norm(grad - s) <= 1e-4 * np.linalg.norm(s)


# ---------------------------------------------------------------------------
# forward process
# ---------------------------------------------------------------------------


def test_forward_sample_zero_time_identity():
    rng = spawn_rng(6, 0)
    oracle = PointCloudOracle(two_point_cloud())
    x0, xt = forward_sample(oracle, 0.0, rng, 32)
    np.testing.assert_array_equal(x0, xt)


def test_forward_sample_point_mass_moments():
    rng = spawn_rng(7, 0)
    y0 = np.array([0.5, -0.25])
    oracle = PointMassOracle(y0)
    t, n = 0.9, 100_000
    _, xt = forward_sample(oracle, t, rng, n)
    c, s2 = math.exp(-t), -math.expm1(-2 * t)
    resid = xt - c * y0
    np.testing.assert_allclose(resid.mean(axis=0), 0.0, atol=3 * math.sqrt(s2 / n))
    cov = np.cov(resid.T)
    np.testing.assert_allclose(np.diag(cov), s2, atol=3 * s2 * math.sqrt(2.0 / n))
    assert abs(cov[0, 1]) <= 3 * s2 / math.sqrt(n)


def test_forward_bridge_semigroup_contraction():
    # c(t2 - t) * c(t) == c(t2) holds exactly for the exponential
    t, t2 = 0.3, 1.1
    assert math.isclose(
        math.exp(-(t2 - t)) * math.exp(-t), math.exp(-t2), rel_tol=1e-15
    )


def test_forward_bridge_matches_direct_marginal():
    rng = spawn_rng(8, 0)
    y0 = np.array([1.0])
    oracle = PointMassOracle(y0)
    t, t2, n = 0.4, 1.3, 120_000
    _, xt = forward_sample(oracle, t, rng, n)
    xt2 = forward_bridge(xt, t, t2, rng)
    c2, s2 = math.exp(-t2), -math.expm1(-2 * t2)
    assert abs(xt2.mean() - c2 * y0[0]) <= 3 * math.sqrt(s2 / n)
    assert abs(xt2.var(ddof=1) - s2) <= 3 * s2 * math.sqrt(2.0 / n)


def test_forward_bridge_rejects_backward_times():
    with pytest.raises(ValueError):
        forward_bridge(np.zeros((2, 1)), 0.5, 0.5, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# manifolds
# ---------------------------------------------------------------------------


def test_circle_cloud_geometry():
    rng = spawn_rng(9, 0)
    cloud = make_manifold_cloud("circle", D=2, n=400, rng=rng)
    # after diameter normalization the circle has radius 1/2 around its center
    center = (cloud.points.max(axis=0) + cloud.points.min(axis=0)) / 2
    radii = np.linalg.norm(cloud.points - center, axis=1)
    np.testing.assert_allclose(radii, 0.5, atol=1e-3)
    assert cloud.diameter() <= 1.0 + 1e-9


def test_torus_cloud_spec():
    rng = spawn_rng(10, 0)
    cloud = make_manifold_cloud("torus", D=4, n=500, rng=rng, intrinsic_dim=2)
    assert cloud.dim == 4
    assert cloud.diameter() <= 1.0 + 1e-9
    assert np.linalg.norm(cloud.points[0]) == 0.0


def test_torus_reach_by_nearest_point_uniqueness():
    # product of two circles with distinct radii: the reach is the smaller one
    r_small, r_big = 0.6, 1.0
    grid = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
    torus = np.stack(
        [
            r_small * np.cos(grid),
            r_small * np.sin(grid),
            np.full_like(grid, r_big),
            np.zeros_like(grid),
        ],
        axis=1,
    )
    foot = np.array([r_small, 0.0, r_big, 0.0])

    def nearest_angle(q):
        d = np.linalg.norm(torus - q, axis=1)
        return grid[np.argmin(d)], d

    # inward offset below the reach: projection stays at the foot point
    q_in = foot.copy()
    q_in[0] -= 0.9 * r_small
    ang, _ = nearest_angle(q_in)
    assert min(ang, 2 * math.pi - ang) < grid[1]
    # at the factor-circle center the projection degenerates: all angles tie
    q_center = foot.copy()
    q_center[0] -= r_small
    _, d = nearest_angle(q_center)
    assert d.std() < 1e-12


def test_manifold_dimension_checks():
    rng = spawn_rng(12, 0)
    with pytest.raises(ValueError):
        make_manifold_cloud("circle", D=1, n=10, rng=rng)
    with pytest.raises(ValueError):
        make_manifold_cloud("torus", D=3, n=10, rng=rng, intrinsic_dim=2)
    with pytest.raises(ValueError):
        make_manifold_cloud("nope", D=2, n=10, rng=rng)


def test_rotation_is_isometric():
    rng = spawn_rng(13, 0)
    cloud = make_manifold_cloud("circle", D=5, n=64, rng=rng)
    center = cloud.points.mean(axis=0)
    radii = np.linalg.norm(cloud.points - center, axis=1)
    # all points still lie on a circle of radius ~1/2 in the rotated plane
    assert radii.std() < 0.05


def _full_rotation(dim, rng):
    """Sign-fixed full QR of one dim x dim draw: the random rotation a square frame must equal."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def test_random_frame_is_the_sign_fixed_qr_of_one_dim_by_k_draw():
    for dim, k in ((1, 1), (5, 0), (64, 3), (300, 2), (1000, 4)):
        rng, ref_rng, flat_rng = spawn_rng(1, dim), spawn_rng(1, dim), spawn_rng(1, dim)
        q, r = np.linalg.qr(ref_rng.standard_normal((dim, k)))
        assert random_frame(dim, k, rng).tobytes() == (q * np.sign(np.diag(r))).tobytes()
        flat_rng.standard_normal(dim * k)
        # the generator ends where a draw of exactly dim * k normals leaves it
        assert rng.bit_generator.state == flat_rng.bit_generator.state


@pytest.mark.parametrize("dim", [1, 2, 4, 5, 64])
def test_square_random_frame_is_the_full_rotation(dim):
    rng, ref_rng = spawn_rng(2, dim), spawn_rng(2, dim)
    assert random_frame(dim, dim, rng).tobytes() == _full_rotation(dim, ref_rng).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("dim, k", [(1, 1), (5, 0), (7, 2), (4096, 2), (16384, 4)])
def test_random_frame_is_orthonormal_with_positive_r_diagonal(dim, k):
    frame = random_frame(dim, k, spawn_rng(3, dim))
    assert frame.shape == (dim, k)
    assert np.abs(frame.T @ frame - np.eye(k)).max(initial=0.0) <= 1e-14
    # frame.T @ draw is the R of the draw's sign-fixed QR
    r = frame.T @ spawn_rng(3, dim).standard_normal((dim, k))
    assert np.all(np.diag(r) > 0)


def traced_peak(fn):
    """Peak bytes numpy and Python allocate while ``fn()`` runs, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_random_frame_memory_is_one_block_not_the_full_draw():
    # The 4096 x 2 draw, its Q and the sign-fixed frame are 64 KiB each;
    # measured peak 3.04 of them.  The 256 KiB bound is half of one 16-row
    # block of a 4096 x 4096 draw.
    dim, k = 4096, 2
    assert traced_peak(lambda: random_frame(dim, k, spawn_rng(0, 0))) <= 4 * dim * k * 8


def test_cloud_oracle_keeps_one_centred_copy():
    # n * D = 2**20 and every weight positive.  Measured peaks, in n x (D+1)
    # float64 arrays: 1.40 (D=4) and 1.13 (D=16) for [q | 1] plus row-block
    # temporaries; a copy of the points, a separate centred copy and a full
    # n x D square besides [q | 1] peaked at 3.43 and 3.13.
    for n, D in ((2**18, 4), (2**16, 16)):
        cloud = PointCloudMeasure.uniform(spawn_rng(D, 0).standard_normal((n, D)))
        assert traced_peak(lambda: PointCloudOracle(cloud)) <= 2 * n * (D + 1) * 8


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"mean": [math.nan, 0.0], "factor": [[1.0], [0.0]]}, "mean"),
        ({"mean": [0.0, 0.0], "factor": [[math.inf], [0.0]]}, "factor"),
        ({"mean": [0.0, 0.0], "factor": [[1.0], [math.nan]]}, "factor"),
        ({"mean": [0.0, 0.0], "factor": [[1.0], [0.0]], "diag_floor": math.nan}, "diag_floor"),
        ({"mean": [0.0, 0.0], "factor": [[1.0], [0.0]], "diag_floor": math.inf}, "diag_floor"),
        ({"mean": [0.0, 0.0], "factor": [[1.0], [0.0]], "diag_floor": -1.0}, "diag_floor"),
    ],
)
def test_gaussian_law_rejects_a_bad_field_naming_it(fields, named):
    # spectrum() drops an inf factor column, which left the zero-factor law,
    # and a NaN diag_floor gave a NaN KL
    with pytest.raises(ValueError, match=rf"GaussianLaw\.{named} must be"):
        GaussianLaw(**fields)


def test_manifold_spec_build_holds_two_n_by_D_arrays():
    # n * D = 2**21: the points and the oracle's [q | 1] are two n x D
    # arrays; measured peak 2.17 of them.  A second oracle, or a third n x D
    # array in ``normalized``, took it past 3.
    n, D = 2048, 1024
    assert traced_peak(lambda: build_measure(f"circle:D={D},n={n}", seed=0)) <= 2.25 * n * D * 8
