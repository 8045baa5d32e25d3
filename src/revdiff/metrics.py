"""Exact KL for affine-Gaussian runs and Monte Carlo error functionals.

When the data law is Gaussian and the score source is exact or affinely
biased, every reverse step is an affine-Gaussian map, so the terminal law is
Gaussian and everything about it is computable without sampling.  The key
device is a channel decomposition: the data covariance's eigenbasis is
preserved by every step map, so a D-dimensional run splits into independent
scalar channels (one per covariance eigendirection, plus one isotropic group
for the orthogonal complement).  Exact sweeps over D cost O(D * rank + rank * K).

Monte Carlo estimators cover measures without closed forms; every MC report
carries a plug-in standard error, and acceptance bands downstream use three
standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _record
from .measures import (
    GaussianLaw,
    GaussianOracle,
    PointCloudOracle,
    ScoreOracle,
    _DRAW_AHEAD_MIN,
    _forward_kernel,
    _map_ahead,
    _map_pooled,
    _pool_size,
    forward_bridge,
)
from .sampler import ReverseRunConfig, ScorePerturbation, step_table
from .schedule import TimeSchedule, contraction, noise_scales, noise_var

__all__ = [
    "MetricReport",
    "gaussian_kl",
    "marginal_law",
    "propagate_affine_reverse",
    "kl_experiment",
    "discretization_error_meter",
    "martingale_checks",
    "monotonicity_check",
    "concentration_curve",
    "score_error_budget",
    "increment_quadrature",
]

# Covariances with an eigenvalue at or below this are treated as singular
# when they appear on the reference side of a KL.
EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class MetricReport:
    """One named estimate with provenance.

    Exact computations carry stderr 0 and n_samples 0.  ``components`` holds
    per-step or per-time rows (k, t, value, stderr); ``extras`` carries
    secondary named scalars.
    """

    name: str
    value: float
    stderr: float = 0.0
    n_samples: int = 0
    seed: Optional[int] = None
    components: Optional[tuple] = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")

    def to_keyvalues(self) -> str:
        head = [("name", self.name), ("value", self.value), ("stderr", self.stderr)]
        head += [("n_samples", self.n_samples), ("seed", self.seed)]
        return _record.header(head + sorted(self.extras.items()))

    def components_csv(self) -> str:
        rows = [("k", "t", "value", "stderr"), *(self.components or ())]
        return "".join(",".join(map(_record.value, row)) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# Gaussian channel machinery
# ---------------------------------------------------------------------------


def _kl_scalar(v_p: float, v_q: float, dm: float = 0.0) -> float:
    r = v_p / v_q
    return 0.5 * (r - 1.0 - math.log(r) + dm * dm / v_q)


@dataclass(frozen=True)
class _Channels:
    """Eigen-decomposed Gaussian law: scalar channels plus isotropic rest."""

    basis: np.ndarray  # (D, r) orthonormal
    var0: np.ndarray  # (r,) data variances along basis columns
    mean0: np.ndarray  # (r,) data mean components
    resid_mean: np.ndarray  # (D,) mean component orthogonal to basis
    resid_var: float  # isotropic data variance off the basis
    dim: int


def _channels(law: GaussianLaw) -> _Channels:
    basis, fvar = law.spectrum()
    mean0 = basis.T @ law.mean
    return _Channels(
        basis=basis,
        var0=law.diag_floor + fvar,
        mean0=mean0,
        resid_mean=law.mean - basis @ mean0,
        resid_var=law.diag_floor,
        dim=law.dim,
    )


def marginal_law(law: GaussianLaw, t: float) -> GaussianLaw:
    """Exact law of X_t for Gaussian data: N(c mean, c^2 Cov + sigma2 I)."""
    c, s2 = noise_scales(t)
    return GaussianLaw(
        mean=c * law.mean,
        factor=c * law.factor,
        diag_floor=c * c * law.diag_floor + s2,
    )


def gaussian_kl(p: GaussianLaw, q: GaussianLaw) -> float:
    """Closed-form KL(p || q) for two structured Gaussians.

    Uses the joint low-rank basis of both factors, so the cost is
    O(D (d_p + d_q)^2) rather than O(D^3).  Returns +inf when p is supported
    on a proper subspace while q is not.

    Raises:
        ValueError: if q's covariance has an eigenvalue at or below the
            1e-12 floor, with the offending value in the message.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    dim = p.dim
    stack = np.concatenate([p.factor, q.factor], axis=1)
    if stack.shape[1]:
        basis, svals, _ = np.linalg.svd(stack, full_matrices=False)
        keep = svals > (svals[0] * 1e-13 if svals.size and svals[0] > 0 else 0.0)
        basis = basis[:, keep]
    else:
        basis = np.zeros((dim, 0))
    r = basis.shape[1]

    def reduced(law):
        h = basis.T @ law.factor
        return law.diag_floor * np.eye(r) + h @ h.T

    mq = reduced(q)
    eig_q = np.linalg.eigvalsh(mq) if r else np.zeros(0)
    min_q = min(eig_q.min() if r else math.inf, q.diag_floor if dim > r else math.inf)
    if min_q <= EIGENVALUE_FLOOR:
        raise ValueError(
            f"reference covariance is numerically singular: min eigenvalue "
            f"{min_q:.6g} <= floor {EIGENVALUE_FLOOR:g}"
        )
    mp = reduced(p)
    eig_p = np.linalg.eigvalsh(mp) if r else np.zeros(0)
    min_p = min(eig_p.min() if r else math.inf, p.diag_floor if dim > r else math.inf)
    if min_p <= 0.0:
        return math.inf

    dm = p.mean - q.mean
    dm_r = basis.T @ dm
    dm_perp2 = float(dm @ dm - dm_r @ dm_r)

    if r:
        trace = float(np.trace(np.linalg.solve(mq, mp)))
        quad = float(dm_r @ np.linalg.solve(mq, dm_r))
        logdet_q = float(np.linalg.slogdet(mq)[1])
        logdet_p = float(np.linalg.slogdet(mp)[1])
    else:
        trace = quad = logdet_q = logdet_p = 0.0
    if dim > r:
        trace += (dim - r) * p.diag_floor / q.diag_floor
        quad += dm_perp2 / q.diag_floor
        logdet_q += (dim - r) * math.log(q.diag_floor)
        logdet_p += (dim - r) * math.log(p.diag_floor)
    return 0.5 * (trace + quad - dim + logdet_q - logdet_p)


def _bias_vectors(config: ReverseRunConfig, ch: _Channels):
    """Channel components of a constant score bias; rejects linear biases."""
    src = config.score_source
    if src == "exact":
        return np.zeros(len(ch.var0)), np.zeros(ch.dim)
    if not isinstance(src, ScorePerturbation):
        raise ValueError("score source must be 'exact' or a ScorePerturbation")
    if src.linear is not None:
        raise ValueError("linear score bias breaks the channel split; use the dense path")
    b = src.epsilon * (src.constant if src.constant is not None else np.zeros(ch.dim))
    b_r = ch.basis.T @ b
    return b_r, b - ch.basis @ b_r


def _propagate_channels(data: GaussianLaw, config: ReverseRunConfig):
    """Run the reverse recursion on each scalar channel exactly.

    Each step is a scalar affine map per channel, mean <- f_k mean + ... and
    var <- f_k^2 var + eta2_k; unrolled, the terminal values are sums over k
    weighted by suffix products of f, so all K steps run at once, O(K * rank).

    Returns (channels, var (r,), mean (r,), resid_var, resid_mean) describing
    the terminal Gaussian in the data eigenbasis.
    """
    ch = _channels(data)
    sched = config.schedule
    tab = step_table(sched, config.scheme)
    b_r, b_perp = _bias_vectors(config, ch)

    # rows: the r channels, then the isotropic complement; columns: steps k
    v0 = np.append(ch.var0, ch.resid_var)[:, None]
    c, s2 = tab.c[:-1], tab.s2[:-1]
    g = -1.0 / (c * c * v0 + s2)
    f = tab.alpha + tab.beta * g
    # after[:, k] = f_{k+1} ... f_{K-1}, the factor that carries step k's output to the end
    tail = np.cumprod(f[:, ::-1], axis=1)[:, ::-1]
    after = np.concatenate([tail[:, 1:], np.ones((len(v0), 1))], axis=1)
    through = tail[:, 0]
    start_var, start_mean = 1.0, 0.0
    if config.init == "data_pT":
        cT = float(tab.c[0])
        start_var, start_mean = cT * cT * v0[:, 0] + float(tab.s2[0]), cT
    var = through * through * start_var + (after * after) @ tab.eta2
    gain0 = through * start_mean - (after * g) @ (tab.beta * c)
    bias_gain = after @ tab.beta
    mean = gain0[:-1] * ch.mean0 + bias_gain[:-1] * b_r
    resid_mean = gain0[-1] * ch.resid_mean + bias_gain[-1] * b_perp
    return ch, var[:-1], mean, float(var[-1]), resid_mean


def _propagate_dense(data: GaussianLaw, config: ReverseRunConfig):
    """Dense-covariance path for a linear score bias B, in the data eigenbasis U.

    U is the thin spectrum's basis completed by one complete QR, so the
    eigenvalues are exact (variance + floor on the factor's span, the floor
    off it) and a law with no factor gets the identity.  In that basis the
    exact score's slope is diagonal, so step k's map is
    f = diag(alpha + beta g_k) + beta U^T B U and needs no inverse.

    A symmetric B on a law of rank r <= D / 8 takes ``_dense_steps_eigen``:
    O(D^2 r) per step on the calling thread, after one O(D^3) eigh.  Any
    other B takes ``_dense_steps_pooled``: O(D^3) per step over the thread
    pool.  At D = 256 and K = 40 the eigenbasis loop's lead shrinks from
    2.4x at r = 2 to 1.4x at r = 32, hence the D / 8 rule.  Either
    way the result does not depend on the thread or worker count, and cov is
    exactly symmetric.  Returns (U, mean, cov) in U.
    """
    tab = step_table(config.schedule, config.scheme)
    dim = data.dim
    thin, fvar = data.spectrum()
    basis = np.linalg.qr(thin, mode="complete")[0]
    basis[:, : len(fvar)] = thin
    lam = np.full(dim, data.diag_floor)
    lam[: len(fvar)] += fvar
    src = config.score_source
    lin = basis.T @ (src.epsilon * src.linear) @ basis
    const = np.zeros(dim) if src.constant is None else basis.T @ (src.epsilon * src.constant)
    mean0 = basis.T @ data.mean
    var, mean = np.ones(dim), np.zeros(dim)  # the initial cov is diag(var)
    if config.init == "data_pT":
        cT = float(tab.c[0])
        var, mean = cT * cT * lam + float(tab.s2[0]), cT * mean0
    if 8 * len(fvar) <= dim and np.array_equal(src.linear, src.linear.T):
        mean, cov = _dense_steps_eigen(tab, lam, len(fvar), lin, const, mean0, mean, var)
    else:
        mean, cov = _dense_steps_pooled(tab, lam, lin, const, mean0, mean, np.diag(var))
    return basis, mean, cov


def _dense_steps_eigen(tab, lam, rank, lin, const, mean0, mean, var):
    """The dense steps in the eigenbasis V of a symmetric ``lin``, O(D^2 rank) each.

    ``lam`` and ``var`` are constant past index ``rank`` < D, and so is the
    exact score's slope g_k = -1 / (c_k^2 lam + s2_k).  Step k's map in V is
    therefore diag(dg) + W delta W^T, a diagonal plus rank ``rank``, with
    dg = alpha + beta (g_k[-1] + eigenvalues of lin),
    delta = beta diag(g_k[:rank] - g_k[-1]) and W = V[:rank]^T.  So f cov f^T
    is cov scaled by dg dg^T plus one (D x 2 rank) (2 rank x 2 rank)
    (2 rank x D) product built from cov W.  The steps run on the calling
    thread; V cov V^T is formed once at the end and symmetrised as
    (X + X^T) / 2.  Returns (mean, cov) in the input basis.
    """
    dim = len(lam)
    diag = np.arange(dim) * (dim + 1)
    lin_eig, eigv = np.linalg.eigh(lin)
    w = np.ascontiguousarray(eigv[:rank].T)
    # x @ eigv is x in V; the data drift -c g mean0 is -c g[-1] mean0 plus a part on W
    mean, const, mean0_v, mean0 = mean @ eigv, const @ eigv, mean0 @ eigv, mean0[:rank]
    cov = (w * (var[:rank] - var[-1])) @ w.T
    cov.flat[diag] += var[-1]
    buf = np.empty((dim, dim))
    pair = np.empty((dim, 2 * rank))
    pair[:, rank:] = w
    for alpha, beta, eta2, c, s2 in zip(
        tab.alpha.tolist(), tab.beta.tolist(), tab.eta2.tolist(), tab.c.tolist(), tab.s2.tolist()
    ):
        g = -1.0 / (c * c * lam + s2)
        dg = alpha + beta * (g[-1] + lin_eig)
        delta = np.diag(beta * (g[:rank] - g[-1]))
        drift = const - c * (g[-1] * mean0_v + w @ ((g[:rank] - g[-1]) * mean0))
        mean = dg * mean + w @ (delta @ (w.T @ mean)) + beta * drift
        # pair = [diag(dg) cov W, W]: f cov f^T = diag(dg) cov diag(dg) + pair inner pair^T
        cov_w = cov @ w
        np.multiply(dg[:, None], cov_w, out=pair[:, :rank])
        inner = np.zeros((2 * rank, 2 * rank))
        inner[:rank, rank:] = inner[rank:, :rank] = delta
        inner[rank:, rank:] = delta @ (w.T @ cov_w) @ delta
        cov *= dg[:, None]
        cov *= dg
        np.matmul(pair @ inner, pair.T, out=buf)
        cov += buf
        cov.flat[diag] += eta2
    np.matmul(eigv, cov, out=buf)
    np.matmul(buf, eigv.T, out=cov)
    np.add(cov, cov.T, out=buf)
    buf *= 0.5
    return eigv @ mean, buf


def _dense_steps_pooled(tab, lam, lin, const, mean0, mean, cov):
    """The dense steps with f formed in full, O(D^3) each, over the thread pool.

    Each step's f cov f^T is formed on its upper block triangle only, in row
    blocks of fixed height max(1, 2**15 // D), and the strict lower triangle
    is mirrored from it, so every cov is exactly symmetric.  Outside pooled
    work the blocks are dealt over the shared thread pool, inside it they run
    inline; either way each block makes the same products, so the result
    does not depend on the thread or worker count.  Returns (mean, cov).
    """
    dim = len(lam)
    diag = np.arange(dim) * (dim + 1)
    height = max(1, 2**15 // dim)
    blocks = [slice(i, min(i + height, dim)) for i in range(0, dim, height)]
    lower = {n: np.tri(n, n, -1, dtype=bool) for n in {b.stop - b.start for b in blocks}}
    f, f_cov, out = np.empty((dim, dim)), np.empty((dim, dim)), np.empty((dim, dim))

    def run(rows):
        # out[rows, i:] = f[rows] cov f[i:]^T, then its transpose fills the
        # rows' columns below the block and the block's own lower triangle
        i, j = rows.start, rows.stop
        np.matmul(f[rows], cov, out=f_cov[rows])
        np.matmul(f_cov[rows], f[i:].T, out=out[rows, i:])
        out[j:, rows] = out[rows, j:].T
        square = out[rows, rows]
        np.copyto(square, square.T, where=lower[j - i])

    for alpha, beta, eta2, c, s2 in zip(
        tab.alpha.tolist(), tab.beta.tolist(), tab.eta2.tolist(), tab.c.tolist(), tab.s2.tolist()
    ):
        g = -1.0 / (c * c * lam + s2)
        np.multiply(lin, beta, out=f)
        f.flat[diag] += alpha + beta * g
        mean = f @ mean + beta * (const - c * g * mean0)
        _map_pooled(run, blocks, _pool_size())
        out.flat[diag] += eta2
        cov, out = out, cov
    return mean, cov


def _dense_kl(data: GaussianLaw, config: ReverseRunConfig, c: float, s2: float) -> float:
    """KL of the dense-path terminal law against N(c mean, c^2 Cov + s2 I).

    In the data eigenbasis of ``_propagate_dense`` the reference covariance is
    diagonal, so the KL takes one Cholesky of the propagated covariance and
    no SVD; +inf when that covariance is singular.
    """
    basis, mean, cov = _propagate_dense(data, config)
    tgt_var = c * c * (np.square(basis.T @ data.factor).sum(axis=1) + data.diag_floor) + s2
    if tgt_var.min() <= EIGENVALUE_FLOOR:
        raise ValueError(
            f"reference covariance is numerically singular: min eigenvalue "
            f"{tgt_var.min():.6g} <= floor {EIGENVALUE_FLOOR:g}"
        )
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return math.inf
    with np.errstate(divide="ignore"):
        logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    dm = mean - c * (basis.T @ data.mean)
    trace_quad = float((np.diag(cov) + dm * dm) @ (1.0 / tgt_var))
    return 0.5 * (trace_quad - data.dim + float(np.log(tgt_var).sum()) - logdet)


def _law_from_dense(basis: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> GaussianLaw:
    """Law whose mean and covariance are given in the orthonormal ``basis``."""
    w, v = np.linalg.eigh(cov)
    floor = max(float(w.min()), 0.0)
    fac = basis @ (v * np.sqrt(np.clip(w - floor, 0.0, None)))
    return GaussianLaw(mean=basis @ mean, factor=fac, diag_floor=floor)


def propagate_affine_reverse(data: GaussianLaw, config: ReverseRunConfig) -> GaussianLaw:
    """Exact terminal law of the configured reverse run on Gaussian data.

    Composes the K affine step maps acting on the initialization law.  With
    an exact or constant-bias score the channel split applies and the cost is
    O(D * rank + K * rank); a linear score bias falls back to dense
    covariance propagation in the data eigenbasis (``_propagate_dense``):
    O(D^2 * rank) per step for a symmetric bias on a law of rank <= D / 8,
    O(D^3) per step over the thread pool otherwise, with a result that is
    exactly symmetric and the same for every thread or worker count.
    """
    src = config.score_source
    if isinstance(src, ScorePerturbation):
        src.check_dim(data.dim)
        if src.linear is not None:
            return _law_from_dense(*_propagate_dense(data, config))
    ch, var, mean, resid_var, resid_mean = _propagate_channels(data, config)
    spread = var - resid_var
    tol = 1e-9 * max(float(var.max(initial=1.0)), resid_var)
    if (spread < -tol).any():
        raise ValueError(
            "terminal covariance is not representable as factor + isotropic floor; "
            "a channel variance fell below the complement variance"
        )
    fac = ch.basis * np.sqrt(np.clip(spread, 0.0, None))
    return GaussianLaw(
        mean=ch.basis @ mean + resid_mean,
        factor=fac,
        diag_floor=resid_var,
    )


def kl_experiment(data: GaussianLaw, config: ReverseRunConfig) -> MetricReport:
    """Exact KL between the propagated terminal law and the true noised law.

    The reference is the marginal of X at the early-stopping time.  The KL
    is assembled channel by channel, so products of independent blocks add
    exactly.  Reported stderr is 0 (nothing is estimated).
    """
    src = config.score_source
    c, s2 = noise_scales(config.schedule.early_stop)
    if isinstance(src, ScorePerturbation):
        src.check_dim(data.dim)
        if src.linear is not None:
            return MetricReport(name="kl_experiment", value=_dense_kl(data, config, c, s2), seed=config.seed)
    ch, var, mean, resid_var, resid_mean = _propagate_channels(data, config)
    tgt_var = c * c * ch.var0 + s2
    value = sum(map(_kl_scalar, var.tolist(), tgt_var.tolist(), (mean - c * ch.mean0).tolist()))
    rest = ch.dim - len(ch.var0)
    tgt_resid_var = c * c * ch.resid_var + s2
    if rest > 0:
        value += rest * _kl_scalar(resid_var, tgt_resid_var)
    dm = resid_mean - c * ch.resid_mean
    value += float(dm @ dm) / (2.0 * tgt_resid_var)
    return MetricReport(name="kl_experiment", value=value, seed=config.seed)


# ---------------------------------------------------------------------------
# Discretization-error functional
# ---------------------------------------------------------------------------


def _posterior_var_drop(ch: _Channels, tab, tau_e, gap) -> np.ndarray:
    """E||X_0 - m_tau(X_tau)||^2 at tau_k minus its value at tau_e = tau_k - gap.

    Per channel of variance v, v s2 / (c^2 v + s2) drops by v^2 c_e^2 sigma2(gap)
    / (den_k den_e): no difference of nearby values, so nothing cancels.
    """
    v = np.append(ch.var0, ch.resid_var)[:, None]
    mult = np.append(np.ones(len(ch.var0)), ch.dim - len(ch.var0))[:, None]
    c_k, s2_k = tab.c[:-1], tab.s2[:-1]
    c_e2 = contraction(2.0 * tau_e)
    den_k = c_k * c_k * v + s2_k
    den_e = c_e2 * v + noise_var(tau_e)
    return (mult * v * v / (den_k * den_e)).sum(axis=0) * c_e2 * noise_var(gap)


def discretization_error_meter(
    oracle: ScoreOracle,
    schedule: TimeSchedule,
    n: int,
    rng: Optional[np.random.Generator],
    *,
    mode: str = "mc",
    quadrature: str = "right",
) -> MetricReport:
    """Step-weighted posterior-mean increment sum along the schedule.

    For each step k the quantity
    ``gamma_k * (c^2 / sigma^4)(tau_e) * E||m_{tau_e}(X_{tau_e}) - m_{tau_k}(X_{tau_k})||^2``
    is accumulated, where tau_k is the physical time at the step start and
    tau_e is the right endpoint (default) or the interval midpoint.  This is
    the exactly-computable discretization part of the reverse-run KL bound;
    it is the quantity with the O(1/K) budget, and for product data it adds
    across factors.

    mode "mc" samples jointly correlated pairs via the forward kernel and
    reports per-step standard errors; mode "exact" requires a Gaussian
    oracle and evaluates the channel closed form (n and rng are ignored).

    Each mc step draws X_0, then the forward and the bridge normals.  When
    they hold ``_DRAW_AHEAD_MIN`` (2**12) to 2**17 values each (n * D), one
    pool thread draws the steps ahead while this thread computes step k:
    through step k + 2 when n * D <= 2**16, through step k + 1 above.  The
    draws never overlap, so ``rng`` is consumed in step order and the report
    is byte-identical at any thread count.  ``rng`` is never advanced after
    the meter returns or raises; if step k raises, it has drawn exactly the
    steps through k + 2 (or k + 1) whatever the timing.
    """
    if quadrature not in ("right", "midpoint"):
        raise ValueError(f"unknown quadrature {quadrature!r}")
    times = schedule.times
    gammas = schedule.gammas
    taus = np.asarray(schedule.taus)
    right = quadrature == "right"
    tau_e = taus[1:] if right else 0.5 * (taus[:-1] + taus[1:])
    w = gammas * contraction(2.0 * tau_e) / noise_var(tau_e) ** 2
    components = []
    if mode == "exact":
        if not isinstance(oracle, GaussianOracle):
            raise ValueError("exact mode requires a GaussianOracle")
        gaps = gammas if right else 0.5 * gammas
        vals = w * _posterior_var_drop(_channels(oracle.law), step_table(schedule), tau_e, gaps)
        return MetricReport(
            name="discretization_error_meter",
            value=float(vals.sum()),
            components=tuple(zip(range(len(vals)), times.tolist(), vals.tolist(), [0.0] * len(vals))),
            extras={"quadrature": float(quadrature == "midpoint")},
        )
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if n < 100:
        raise ValueError("mc mode needs n >= 100 samples per step")
    if rng is None:
        raise ValueError("mc mode needs an rng")

    def draw(_):
        x0 = oracle.sample0(rng, n)
        return x0, rng.standard_normal(x0.shape), rng.standard_normal(x0.shape)

    # the steps drawn ahead hold at most 3 * 2**17 values: above 2**17 they
    # would lift the peak past six n x D draws, and two steps ahead need n * D <= 2**16
    ahead = _DRAW_AHEAD_MIN <= n * oracle.dim <= 2**17
    steps = range(len(w))
    draws = _map_ahead(draw, steps, min(2, 2**17 // (n * oracle.dim))) if ahead else (draw(k) for k in steps)
    total = 0.0
    var_sum = 0.0
    try:
        for k, (tau_hi, tau_lo, w_k) in enumerate(zip(taus.tolist(), tau_e.tolist(), w.tolist())):
            # each array dropped once used, the difference squared in place
            x0, x, z = next(draws)  # not through zip, whose cached tuple would keep them alive
            try:
                x = _forward_kernel(x0, tau_lo, x)
                del x0
                m = oracle.posterior_mean(tau_lo, x)
                x = _forward_kernel(x, tau_hi - tau_lo, z)
                m -= oracle.posterior_mean(tau_hi, x)
            except ValueError as exc:
                raise ValueError(f"oracle rejected step k={k} (tau={tau_lo!r}): {exc}") from exc
            sq = np.square(m, out=m).sum(axis=-1)
            del x, m
            val = w_k * float(sq.mean())
            err = w_k * float(sq.std(ddof=1)) / math.sqrt(n)
            total += val
            var_sum += err * err
            components.append((k, float(times[k]), val, err))
    finally:
        draws.close()  # finishes the draws already allowed, so rng is not advanced after a raise
    return MetricReport(
        name="discretization_error_meter",
        value=total,
        stderr=math.sqrt(var_sum),
        n_samples=n,
        components=tuple(components),
        extras={"quadrature": float(quadrature == "midpoint")},
    )


def increment_quadrature(oracle: PointCloudOracle, t: float, t2: float, order: int = 64) -> float:
    """Deterministic E||m_t(X_t) - m_t2(X_t2)||^2 for 1-D cloud oracles.

    Integrates over (X_0, noise at t, bridge noise to t2) with tensorized
    Gauss-Hermite quadrature; serves as an integration-method-independent
    cross-check of the Monte Carlo meter.
    """
    if oracle.dim != 1:
        raise ValueError("quadrature oracle is implemented for 1-D clouds only")
    if not t < t2:
        raise ValueError("need t < t2")
    nodes, wts = np.polynomial.hermite.hermgauss(order)
    z = math.sqrt(2.0) * nodes
    wz = wts / math.sqrt(math.pi)
    c_t, s2_t = noise_scales(t)
    c_b, s2_b = noise_scales(t2 - t)
    s_t, s_b = math.sqrt(s2_t), math.sqrt(s2_b)
    total = 0.0
    for x0, p in zip(oracle.cloud.points[:, 0], oracle.cloud.weights):
        xt = c_t * x0 + s_t * z  # (order,)
        m_t = oracle.posterior_mean(t, xt[:, None])[:, 0]
        xt2 = c_b * xt[:, None] + s_b * z[None, :]  # (order, order)
        m_t2 = oracle.posterior_mean(t2, xt2.reshape(-1, 1))[:, 0].reshape(order, order)
        sq = (m_t[:, None] - m_t2) ** 2
        total += p * float(wz @ sq @ wz)
    return total


# ---------------------------------------------------------------------------
# Martingale-structure checks
# ---------------------------------------------------------------------------


def _mean_stderr(v) -> tuple[float, float]:
    """The sample mean of ``v`` and its standard error."""
    return float(v.mean()), float(v.std(ddof=1)) / math.sqrt(len(v))


def _joint_forward(oracle, ts, rng, n):
    """Sample X_0 and X_t at each requested time along one forward path."""
    x0 = oracle.sample0(rng, n)
    out = []
    prev_t = 0.0
    prev_x = x0
    for t in ts:
        if t == prev_t:
            x = prev_x.copy()
        else:
            x = forward_bridge(prev_x, prev_t, t, rng)
        out.append(x)
        prev_t, prev_x = t, x
    return x0, out


def martingale_checks(oracle, t1, t2, t3, n, rng) -> MetricReport:
    """Orthogonality residual of posterior-mean increments on joint paths.

    Estimates E||M3 - M1||^2 - E||M3 - M2||^2 - E||M2 - M1||^2 where
    M_i = E[X_0 | X_{t_i}]; for the conditional-mean process this residual
    is exactly zero, so the estimate should sit within a few standard errors
    of 0.  t1 = 0 uses X_0 itself; t2 == t3 is allowed as a degenerate
    diagnostic (the residual is then identically zero sample by sample).

    The extras carry a tower-property diagnostic: samples are binned by a
    projection of X_{t3}, and bin averages of M2 and M3 are compared (they
    estimate the same conditional expectation).
    """
    t1, t2, t3 = float(t1), float(t2), float(t3)
    if not (0.0 <= t1 < t2 <= t3):
        raise ValueError(f"need 0 <= t1 < t2 <= t3, got {(t1, t2, t3)}")
    x0, (x1, x2, x3) = _joint_forward(oracle, (t1, t2, t3), rng, n)
    m1 = x0 if t1 == 0.0 else oracle.posterior_mean(t1, x1)
    m2 = oracle.posterior_mean(t2, x2)
    m3 = oracle.posterior_mean(t3, x3)
    inc31 = ((m3 - m1) ** 2).sum(axis=-1)
    inc32 = ((m3 - m2) ** 2).sum(axis=-1)
    inc21 = ((m2 - m1) ** 2).sum(axis=-1)
    resid = inc31 - inc32 - inc21
    components = tuple((i, t, *_mean_stderr(v)) for i, (t, v) in enumerate(((t3, inc31), (t3, inc32), (t2, inc21))))
    proj = x3 @ (np.ones(oracle.dim) / math.sqrt(oracle.dim))
    order = np.argsort(proj)
    bins = np.array_split(order, 8)
    tower = 0.0
    for idx in bins:
        if len(idx) == 0:
            continue
        gap = m2[idx].mean(axis=0) - m3[idx].mean(axis=0)
        tower = max(tower, float(np.linalg.norm(gap)))
    value, stderr = _mean_stderr(resid)
    return MetricReport(
        name="martingale_orthogonality",
        value=value,
        stderr=stderr,
        n_samples=n,
        components=components,
        extras={"tower_residual": tower},
    )


def monotonicity_check(oracle, t1, t2, t3, n, rng) -> MetricReport:
    """Paired estimate of the corrected-score error drop as times approach.

    Both terms are (c^2/sigma^4)(t_i) * ||m_{t_i}(X_{t_i}) - m_{t3}(X_{t3})||^2
    on the same forward path; their expectation difference (earlier minus
    later) is nonnegative, so the report value should exceed minus a few
    standard errors.
    """
    t1, t2, t3 = float(t1), float(t2), float(t3)
    if not (0.0 < t1 < t2 < t3):
        raise ValueError(f"need 0 < t1 < t2 < t3, got {(t1, t2, t3)}")
    x0, (x1, x2, x3) = _joint_forward(oracle, (t1, t2, t3), rng, n)
    m3 = oracle.posterior_mean(t3, x3)

    def term(t, x):
        m = oracle.posterior_mean(t, x)
        pref = noise_scales(2.0 * t)[0] / noise_scales(t)[1] ** 2
        return pref * ((m - m3) ** 2).sum(axis=-1)

    e1 = term(t1, x1)
    e2 = term(t2, x2)
    diff = e1 - e2
    components = tuple((i, t, *_mean_stderr(v)) for i, (t, v) in enumerate(((t1, e1), (t2, e2))))
    value, stderr = _mean_stderr(diff)
    return MetricReport(
        name="error_monotonicity",
        value=value,
        stderr=stderr,
        n_samples=n,
        components=components,
    )


def concentration_curve(oracle, times, n, rng) -> MetricReport:
    """E||X_0 - m_t(X_t)||^2 along a list of times on shared forward paths.

    Sharing paths makes consecutive differences low variance, so the
    monotone growth of the curve can be checked against per-increment
    standard errors; extras carry the smallest increment z-score.
    """
    times = sorted(float(t) for t in times)
    if not times:
        raise ValueError("need at least one time")
    x0, xs = _joint_forward(oracle, times, rng, n)
    vals = []
    for t, x in zip(times, xs):
        m = oracle.posterior_mean(t, x)
        vals.append(((x0 - m) ** 2).sum(axis=-1))
    components = tuple((i, t, *_mean_stderr(v)) for i, (t, v) in enumerate(zip(times, vals)))
    min_inc_z = math.inf
    for j in range(len(times) - 1):
        mean, se = _mean_stderr(vals[j + 1] - vals[j])
        z = mean / se if se > 0 else math.inf
        min_inc_z = min(min_inc_z, z)
    return MetricReport(
        name="concentration_curve",
        value=max(c[2] for c in components),
        stderr=max(c[3] for c in components),
        n_samples=n,
        components=components,
        extras={"min_increment_z": min_inc_z},
    )


# ---------------------------------------------------------------------------
# Score-error budget
# ---------------------------------------------------------------------------


def score_error_budget(
    data: GaussianLaw,
    bias: ScorePerturbation,
    schedule: TimeSchedule,
) -> MetricReport:
    """Step-weighted mean-squared score bias, with its exact KL price.

    The budget sum_k gamma_k E||bias(tau_k, X_{tau_k})||^2 is evaluated in
    closed form under the exact marginals; the extras report the exact KL of
    the biased and unbiased runs and the ratio of the KL excess to the
    budget.  Only affine biases are accepted (anything else breaks the exact
    propagation; use Monte Carlo for that).
    """
    if not isinstance(bias, ScorePerturbation):
        raise ValueError("bias must be an affine ScorePerturbation")
    bias.check_dim(data.dim)
    b_const = bias.epsilon * (bias.constant if bias.constant is not None else np.zeros(data.dim))
    sq = float(b_const @ b_const)
    if bias.linear is not None:
        # E||b + B X_tau||^2 = |b|^2 + 2c b.Bm + c^2 (tr(B^T B Cov) + |Bm|^2) + s2 tr(B^T B)
        # for X_tau ~ N(c m, c^2 Cov + s2 I); tr(B^T B Cov) = |B F|_F^2 + floor |B|_F^2.
        b_lin = bias.epsilon * bias.linear
        tab = step_table(schedule)
        c, s2 = tab.c[:-1], tab.s2[:-1]
        bm = b_lin @ data.mean
        tr_m = float((b_lin * b_lin).sum())
        tr_m_cov = float(np.square(b_lin @ data.factor).sum()) + data.diag_floor * tr_m
        sq = sq + 2.0 * c * float(b_const @ bm) + c * c * (tr_m_cov + float(bm @ bm)) + s2 * tr_m
    budget = float(np.sum(schedule.gammas * sq))
    kl_base = kl_experiment(data, ReverseRunConfig(schedule=schedule)).value
    kl_pert = kl_experiment(data, ReverseRunConfig(schedule=schedule, score_source=bias)).value
    delta = kl_pert - kl_base
    return MetricReport(
        name="score_error_budget",
        value=budget,
        extras={
            "kl_unperturbed": kl_base,
            "kl_perturbed": kl_pert,
            "kl_excess": delta,
            "kl_excess_per_budget": delta / budget if budget > 0 else 0.0,
        },
    )
