"""Data distributions with exact posterior means, scores and forward sampling.

Every oracle describes one data law mu on R^D and answers three queries about
the noised variable X_t = c(t) X_0 + sigma(t) Z:

* ``posterior_mean(t, x)``: E[X_0 | X_t = x],
* ``score(t, x)``: gradient of log density of X_t at x,
* ``log_marginal(t, x)``: log density of X_t (optional capability).

Score and posterior mean are tied together by the identity
``score = (c * posterior_mean - x) / sigma2``, which concrete oracles use in
whichever direction is numerically natural for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._pool import _map_pooled, _pool_size, spawn_rng  # spawn_rng is public here too
from .schedule import noise_scales

__all__ = [
    "ScoreOracle",
    "PointCloudMeasure",
    "GaussianLaw",
    "PointMassOracle",
    "PointCloudOracle",
    "GaussianOracle",
    "ProductOracle",
    "forward_sample",
    "forward_bridge",
    "log_marginal_gradient",
    "make_manifold_cloud",
    "spawn_rng",
    "random_frame",
]

# Queries below this time are rejected: sigma2 -> 0 makes the posterior-mean /
# score conversion ill conditioned.  Early-stopped schedules never get here.
T_MIN = 1e-8


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t < T_MIN:
        raise ValueError(f"oracle queries require t >= {T_MIN}, got {t!r}")
    return t


class ScoreOracle:
    """Contract for one data distribution; concrete laws subclass this.

    All point arguments accept shape (D,) or a batch (..., D) and return
    new arrays of matching shape, which callers may overwrite.  Oracles are
    immutable after construction and safe for concurrent read-only use; all
    sampling goes through an explicit rng.
    """

    dim: int

    def sample0(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n data points, shape (n, dim)."""
        raise NotImplementedError

    def posterior_mean(self, t: float, x: np.ndarray) -> np.ndarray:
        """E[X_0 | X_t = x]."""
        raise NotImplementedError

    def score(self, t: float, x: np.ndarray) -> np.ndarray:
        t = _check_time(t)
        x = np.asarray(x, dtype=float)
        c, s2 = noise_scales(t)
        return (c * self.posterior_mean(t, x) - x) / s2  # posterior_mean checks x

    def log_marginal(self, t: float, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} does not expose log_marginal")

    def _check_shape(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected points in R^{self.dim}, got shape {x.shape}")
        return x

    def _check_point(self, x) -> np.ndarray:
        x = self._check_shape(x)
        if not np.isfinite(x).all():
            raise ValueError("non-finite point passed to oracle")
        return x


# ---------------------------------------------------------------------------
# Data-law containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointCloudMeasure:
    """Finitely supported measure: points (n, D) with probability weights (n,)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or len(w) != len(pts):
            raise ValueError("points must be (n, D) with one weight per point")
        if not np.isfinite(pts).all():
            raise ValueError("non-finite cloud point")
        if not np.isfinite(w).all():
            raise ValueError("non-finite cloud weight")
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        pts.setflags(write=False)
        w.setflags(write=False)

    @classmethod
    def uniform(cls, points) -> "PointCloudMeasure":
        points = np.asarray(points, dtype=float)
        n = len(points)
        return cls(points, np.full(n, 1.0 / n))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def diameter(self) -> float:
        """Largest pairwise distance, O(n^2) but chunked."""
        pts = self.points
        best = 0.0
        for i in range(0, len(pts), 1024):
            blk = pts[i : i + 1024]
            d2 = ((blk[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
            best = max(best, float(d2.max()))
        return math.sqrt(best)

    def normalized(self, scale: float) -> "PointCloudMeasure":
        """Divide by ``scale`` (no-op for 0) and translate the first point to the origin.

        ``make_manifold_cloud`` passes the analytic manifold diameter, so the
        continuum geometry, not the sampled cloud, has diameter 1.
        """
        scaled = self.points / scale if scale > 0.0 else self.points.copy()
        scaled -= scaled[0].copy()  # in place: no third n x D array
        return PointCloudMeasure(scaled, self.weights.copy())


@dataclass(frozen=True)
class GaussianLaw:
    """Gaussian with covariance factor @ factor.T + diag_floor * I.

    ``factor`` has shape (D, d) with d <= D; ``diag_floor`` >= 0 may be zero,
    in which case the law is supported on an affine subspace of dimension
    rank(factor).
    """

    mean: np.ndarray
    factor: np.ndarray
    diag_floor: float = 0.0

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        fac = np.asarray(self.factor, dtype=float)
        if fac.ndim == 1:
            fac = fac[:, None]
        if fac.shape[0] != mean.shape[0]:
            raise ValueError(f"GaussianLaw.factor rows {fac.shape[0]} != dim {mean.shape[0]}")
        if fac.shape[1] > fac.shape[0]:
            raise ValueError("GaussianLaw.factor must have at most D columns")
        # spectrum() would drop an inf column and keep the law's other columns
        for name, value in (("mean", mean), ("factor", fac)):
            if not np.isfinite(value).all():
                raise ValueError(f"GaussianLaw.{name} must be finite")
        if not (math.isfinite(self.diag_floor) and self.diag_floor >= 0):
            raise ValueError(f"GaussianLaw.diag_floor must be finite and nonnegative, got {self.diag_floor!r}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "factor", fac)
        mean.setflags(write=False)
        fac.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def covariance(self) -> np.ndarray:
        """Dense D x D covariance, O(D^2 d): a reference; the exact paths work from ``spectrum``."""
        return self.factor @ self.factor.T + self.diag_floor * np.eye(self.dim)

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Thin SVD of the factor: orthonormal basis (D, r) and variances (r,).

        The covariance is ``basis @ diag(variances) @ basis.T + diag_floor * I``;
        singular values at or below 1e-13 of the largest (and exact zeros) are
        dropped, so r <= d.  O(D d^2).
        """
        fac = self.factor
        if fac.shape[1] == 0:
            return np.zeros((self.dim, 0)), np.zeros(0)
        basis, svals, _ = np.linalg.svd(fac, full_matrices=False)
        keep = svals > svals[0] * 1e-13 if svals[0] > 0 else svals > 0
        return basis[:, keep], svals[keep] ** 2

    @classmethod
    def isotropic(cls, dim: int, variance: float = 1.0, mean=None) -> "GaussianLaw":
        mean = np.zeros(dim) if mean is None else np.asarray(mean, dtype=float)
        return cls(mean=mean, factor=np.zeros((dim, 0)), diag_floor=float(variance))

    @classmethod
    def point_mass(cls, point) -> "GaussianLaw":
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(mean=point, factor=np.zeros((point.shape[0], 0)), diag_floor=0.0)


# ---------------------------------------------------------------------------
# Concrete oracles
# ---------------------------------------------------------------------------


class PointMassOracle(ScoreOracle):
    """Dirac data at a single point: constant posterior mean, Gaussian marginal."""

    def __init__(self, point):
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if not np.isfinite(point).all():
            raise ValueError("point must be finite")
        self.point = point
        self.point.setflags(write=False)
        self.dim = point.shape[0]

    def sample0(self, rng, n):
        return np.broadcast_to(self.point, (n, self.dim)).copy()

    def posterior_mean(self, t, x):
        _check_time(t)
        x = self._check_point(x)
        return np.broadcast_to(self.point, x.shape).copy()

    def log_marginal(self, t, x):
        t = _check_time(t)
        x = self._check_point(x)
        c, s2 = noise_scales(t)
        d2 = ((x - c * self.point) ** 2).sum(axis=-1)
        return -0.5 * d2 / s2 - 0.5 * self.dim * math.log(2.0 * math.pi * s2)


# A row's shifted normaliser below this means its bound overshot the row max
# by more than about 665 nats; such a row is recomputed with the row max.
_FAR_NORM = 2.0**-960
# A row keeps its bound only when (D + 6) times its largest term magnitude
# stays below a cap, so its logits round by at most cap * 2**-52 nats: 2**9,
# so exp cannot overflow (about 709), or 2**-42 in ``log_marginal``'s log p.
_SHIFT_SCALE_CAP = 2.0**61
_LOG_MARGINAL_CAP = 2.0**10
# The largest radius r about its centroid a cloud may have: a query within
# c r of the centroid has logit terms summing in magnitude to about
# 2 c^2 r^2 / s2 at most, which stays finite down to t = T_MIN.
_RADIUS_MAX = math.sqrt(0.5 * np.finfo(float).max * noise_scales(T_MIN)[1]) / noise_scales(T_MIN)[0]


class PointCloudOracle(ScoreOracle):
    """Finitely supported data; the noised marginal is a Gaussian mixture.

    Log-weights use the distance expansion of ``||x - c p_j||^2`` (as in
    scikit-learn's ``euclidean_distances``) on points centred at their
    weighted centroid, so that the expansion does not cancel for clouds far
    from the origin.  Zero-weight points are left out of the kernel arrays
    (``sample0`` still draws over the full cloud).  A cloud whose radius
    about its centroid is past ``_RADIUS_MAX`` (about 1.34e150) is refused.

    Both queries make three calls per tile that release the GIL: the logit
    GEMM, an in-place ``exp`` and one GEMM against [q | 1] (for
    ``log_marginal`` the ones column) that writes the weighted sums and
    normalisers into one array per query.  The far-row test runs once per query.
    Each row's logits are shifted not by their max but by a bound b on
    them that costs O(D) per row.  With y = x - c mu, the kernel's logit
    (c y.q_j - c^2 ||q_j||^2 / 2) / s2 + log w_j is at most
    (2 c ||y|| r - c^2 r^2) / (2 s2) + max_j log w_j with r = ||q_j||, and
    over r in [0, max_j ||q_j||] that peaks at
    b = u (2 ||y|| - u) / (2 s2) + max_j log w_j, u = min(||y||, c max_j ||q_j||),
    which is at most ||y||^2 / (2 s2) + max_j log w_j.  (The looser bound
    overshoots a noisy query's max by about D / 2 nats, so past D = 1300 or
    so every row would need the fallback below.)  The GEMM takes -b as one
    more column of the query operand against a row of ones, so no pass
    finds or subtracts a max, and every weight is at most 1 up to rounding.
    A row whose normaliser comes out below 2**-960 (b overshot its max by
    more than about 665 nats: a query far from every point of the noised
    cloud) is redone with its row max, one GEMM per tile over its far rows;
    so is a row whose terms pass 2**61 / (D + 6) (2**10 / (D + 6) in
    ``log_marginal``), which skips the tiles.  ``log_marginal``
    adds the shift less ||y||^2 / (2 s2): max_j log w_j - (||y|| - u)^2 / (2 s2),
    or for a far row the log density of its leading component, from its distance.

    A tile has 2**16 // n_points rows, so its logit buffer is 512 KiB
    whatever the cloud size (32 rows for 2048 points): with the tile's
    operands it stays inside a 2 MiB per-core L2 cache through the passes
    the kernel makes over it.  Doubling it (64 rows for 2048 points) was no
    faster and added about 2.5 MB of peak RSS.

    A query of two or more tiles made outside pooled work hands its tiles,
    whole, to the caller and the threads of the shared pool (``_pool.py``,
    up to ``os.cpu_count()`` at once), each taking the next tile as it
    finishes one; inside pooled work (sampler blocks, lemma-suite cases) the
    tiles run inline.  Tiles are cut from the query's rows under the cap by
    the tile height alone, and no tile's arithmetic depends on its thread,
    so results are bit-identical whatever the thread or worker count.
    """

    def __init__(self, cloud: PointCloudMeasure):
        self.cloud = cloud
        self.dim = cloud.dim
        kept = cloud.weights > 0
        w, pts = cloud.weights, cloud.points
        if not kept.all():
            w, pts = w[kept], pts[kept]
        self.chunk = max(1, 2**16 // len(w))
        self._mu = w @ pts
        # the one centred copy of the points: [q | 1], with q a view of it
        self._q_one = np.empty((len(w), self.dim + 1))
        self._q = self._q_one[:, : self.dim]
        np.subtract(pts, self._mu, out=self._q)
        self._q_one[:, self.dim] = 1.0
        self._half_q2 = np.empty(len(w))
        rows = max(1, 2**16 // (self.dim + 1))  # in row blocks, so q * q is never a second n x D array
        with np.errstate(over="ignore"):  # an infinite radius is refused below
            for i in range(0, len(w), rows):
                self._half_q2[i : i + rows] = (self._q[i : i + rows] ** 2).sum(axis=1)
        self._half_q2 *= 0.5
        self._q_max = math.sqrt(2.0 * self._half_q2.max())
        if not self._q_max <= _RADIUS_MAX:
            radius = f"cloud radius {self._q_max:.4g} about its centroid"
            raise ValueError(f"{radius} is past the kernel's limit {_RADIUS_MAX:.4g}")
        self._log_w = np.log(w)
        self._log_w_range = (float(self._log_w.min()), float(self._log_w.max()))

    def sample0(self, rng, n):
        idx = rng.choice(len(self.cloud.points), size=n, p=self.cloud.weights)
        return self.cloud.points[idx]

    def _operands(self, t, x, cap):
        """``(y_op, q_op, over)`` for the logit GEMM of query ``x``; ``over``
        marks the rows past the term-scale ``cap``.

        With y = x - c mu per row, ``y_op[:, : D + 1] @ q_op[: D + 1]`` gives
        the logits [y c/s2 | 1] @ [q | bias]^T, which omit -||y||^2 / (2 s2),
        constant in a row; the last column of ``y_op``, -b, meets the row of
        ones in ``q_op``, so ``y_op @ q_op`` gives those logits less b.  Every
        row-wise step is taken once for the whole query, so a tile makes only
        its passes over the logits.
        """
        c, s2 = noise_scales(t)
        dim = self.dim
        q_op = np.empty((dim + 2, len(self._q)))
        q_op[:dim] = self._q.T
        np.multiply(self._half_q2, -(c * c / s2), out=q_op[dim])
        q_op[dim] += self._log_w
        q_op[dim + 1] = 1.0
        y = x.reshape(-1, dim) - c * self._mu
        y2 = np.einsum("ij,ij->i", y, y)  # inf, without a warning, past |y| = 1e154
        low, high = self._log_w_range
        # over: where the row's term scale
        # 0.5 / s2 (||y||^2 + (c max ||q||)^2) - low reaches the cap; ||y||^2
        # clipped at the limit keeps those rows' bound finite
        limit = max(0.0, 2.0 * s2 * (cap / (dim + 6) + low) - (c * self._q_max) ** 2)
        y_norm = np.sqrt(np.minimum(y2, limit))
        y_op = np.empty((len(y), dim + 2))
        np.multiply(y, c / s2, out=y_op[:, :dim])
        y_op[:, dim] = 1.0
        u = np.minimum(y_norm, c * self._q_max)
        np.multiply(u * (u - 2.0 * y_norm), 0.5 / s2, out=y_op[:, dim + 1])
        y_op[:, dim + 1] -= high
        return y_op, q_op, ~(y2 < limit)

    def _shifted_sums(self, t, x, rhs, cap):
        """``(sums, far, top)``: per row of query ``x``, exp(logits - shift) @ ``rhs``,
        the shift being b or, for a ``far`` row, the logit of its point ``top``.
        ``rhs`` ends with the ones column, whose sums the far-row test reads.

        A tile's logits are freed before the next tile allocates its own: with
        two 512 KiB buffers live per thread, glibc malloc gave heap back to the
        OS and faulted it in again on every tile (about 90x the page faults).
        """
        y_op, q_op, over = self._operands(t, x, cap)
        near = y_op if not over.any() else y_op[~over]  # the rows under the cap, which alone take the tiles
        part = np.empty((len(near), rhs.shape[1]))
        chunk = self.chunk

        def run(rows):
            lw = near[rows] @ q_op
            # np.dot, not @: numpy's @ keeps the GIL for a product this narrow
            np.dot(np.exp(lw, out=lw), rhs, out=part[rows])

        def redo(rows):
            lw = y_op[rows, :-1] @ q_op[:-1]
            top = lw.argmax(axis=1)
            lw -= lw[np.arange(len(rows)), top, None]
            sums[rows] = np.dot(np.exp(lw, out=lw), rhs)
            return top

        _map_pooled(run, [slice(i, i + chunk) for i in range(0, len(near), chunk)], _pool_size())
        if near is y_op:
            sums = part
        else:  # a row past the cap has a zero normaliser, so the far-row test takes it
            sums = np.zeros((len(y_op), rhs.shape[1]))
            sums[~over] = part
        far = np.flatnonzero(~(sums[:, -1] >= _FAR_NORM))  # not <: overflowing logits give a NaN normaliser
        tiles = np.split(far, np.flatnonzero(np.diff(far // chunk)) + 1) if len(far) else []  # one GEMM per tile
        top = np.concatenate([far[:0], *_map_pooled(redo, tiles, _pool_size())])
        del y_op, q_op, near, part  # now: a pool helper cancelled before it started stays queued, holding run and redo
        return sums, far, top

    def posterior_mean(self, t, x):
        t = _check_time(t)
        x = self._check_point(x)
        dim = self.dim
        sums = self._shifted_sums(t, x, self._q_one, _SHIFT_SCALE_CAP)[0]  # the operands are freed here
        out = sums[:, :dim] / sums[:, dim:]
        out += self._mu
        return out.reshape(x.shape)

    def log_marginal(self, t, x):
        t = _check_time(t)
        x = self._check_point(x)
        c, s2 = noise_scales(t)
        sums, far, top = self._shifted_sums(t, x, self._q_one[:, self.dim :], _LOG_MARGINAL_CAP)
        y = x.reshape(-1, self.dim) - c * self._mu
        # the shift less ||y||^2 / (2 s2), as the class docstring gives it
        lead = self._log_w_range[1] - 0.5 / s2 * np.maximum(np.linalg.norm(y, axis=1) - c * self._q_max, 0.0) ** 2
        d = y[far] - c * self._q[top]
        lead[far] = self._log_w[top] - 0.5 * np.einsum("ij,ij->i", d, d) / s2
        out = np.log(sums[:, 0]) + lead - 0.5 * self.dim * math.log(2.0 * math.pi * s2)
        return out.reshape(x.shape[:-1])


class GaussianOracle(ScoreOracle):
    """Gaussian data; every query is diagonal in the factor's spectral frame.

    ``law.spectrum()`` is taken once at construction: an orthonormal basis U
    (D x r) with variances v_i, so Cov = U diag(v) U^T + lam I.  X_t then has
    variance den_i = c^2 (v_i + lam) + sigma2 along U and nu = c^2 lam + sigma2
    off it.  A query splits x - c mean into z = (x - c mean) U and the rest
    and scales each part, so there is no Woodbury solve, Gram matrix or
    determinant: per row two thin GEMMs, O(D r), plus O(D) elementwise work.
    The thin products use ``np.dot``: ``@`` gives the same bits but takes a
    slow path for an inner dimension of 1 and keeps the GIL for narrow
    products.  The posterior mean is the closed-form Tweedie mean
    ``mean + c Cov Cov_t^{-1} (x - c mean)``; it never divides by c, so it keeps
    its digits at large t.
    """

    def __init__(self, law: GaussianLaw):
        self.law = law
        self.dim = law.dim
        self._basis, self._var = law.spectrum()
        self._basis_t = np.ascontiguousarray(self._basis.T)
        # None for a zero mean (every gaussian: spec law), whose add or subtract each query skips
        self._mean = law.mean if law.mean.any() else None

    def sample0(self, rng, n):
        law = self.law
        x = np.dot(rng.standard_normal((n, law.factor.shape[1])), law.factor.T)
        if self._mean is not None:
            x += self._mean
        if law.diag_floor > 0:
            x += math.sqrt(law.diag_floor) * rng.standard_normal((n, self.dim))
        return x

    def _split(self, t, x):
        """(c, sigma2, nu, den, v, z) for a query: v = x - c mean as rows (a view of x for a zero mean), z = v U."""
        c, s2 = noise_scales(_check_time(t))
        nu = c * c * self.law.diag_floor + s2
        den = (c * c) * self._var + nu
        v = x.reshape(-1, self.dim)
        if self._mean is not None:
            v = v - c * self._mean
        return c, s2, nu, den, v, np.dot(v, self._basis)

    def score(self, t, x):
        x = self._check_point(x)
        c, _, nu, den, v, z = self._split(t, x)
        # -Cov_t^{-1} v = (z (gap / den) U^T - v) / low, with low the smallest
        # variance of X_t and gap = den - low: the subtraction cancels by at
        # most the condition number of Cov_t.  low = nu off U, or the smallest
        # den when U spans R^D.
        if len(den) < self.dim:
            low, gap = nu, (c * c) * self._var
        else:
            k = int(self._var.argmin())
            low, gap = den[k], (c * c) * (self._var - self._var[k])
        out = np.dot(z * (gap / den), self._basis_t)
        out -= v
        out /= low
        return out.reshape(x.shape)

    def posterior_mean(self, t, x):
        # c Cov Cov_t^{-1} v = (c lam / nu) v + z (c sigma2 v_i / (nu den)) U^T: no term cancels
        x = self._check_point(x)
        c, s2, nu, den, v, z = self._split(t, x)
        out = np.dot(z * (c * s2 * self._var / (nu * den)), self._basis_t)
        if self._mean is not None:
            out += self._mean
        if self.law.diag_floor > 0:
            out += (c * self.law.diag_floor / nu) * v
        return out.reshape(x.shape)

    def log_marginal(self, t, x):
        x = self._check_point(x)
        _, _, nu, den, v, z = self._split(t, x)
        perp = v - np.dot(z, self._basis_t)
        quad = np.dot(z * z, 1.0 / den) + (perp * perp).sum(axis=1) / nu
        logdet = float(np.log(den).sum()) + (self.dim - len(den)) * math.log(nu)
        out = -0.5 * (quad + logdet + self.dim * math.log(2.0 * math.pi))
        return out.reshape(x.shape[:-1])


class ProductOracle(ScoreOracle):
    """Independent product across coordinate blocks.

    Each factor owns one block of coordinates; scores and posterior means are
    assembled blockwise, so cross-block structure is exactly zero.  A query's
    size is checked here and its values by each factor on its own block: the
    blocks partition the coordinates, so every one is checked once.
    """

    def __init__(self, factors):
        blocks = []
        oracles = []
        for oracle, idx in factors:
            idx = np.asarray(idx, dtype=int)
            if idx.ndim != 1 or len(idx) != oracle.dim:
                raise ValueError(
                    f"block of size {len(idx)} does not match factor dim {oracle.dim}"
                )
            oracles.append(oracle)
            blocks.append(idx)
        if not blocks:
            raise ValueError("need at least one factor")
        allidx = np.concatenate(blocks)
        dim = allidx.size
        cover = np.sort(allidx)
        if not np.array_equal(cover, np.arange(dim)):
            raise ValueError("blocks must partition the coordinate range without overlap")
        self.oracles = tuple(oracles)
        self.blocks = tuple(blocks)
        self.dim = dim

    def sample0(self, rng, n):
        out = np.empty((n, self.dim))
        for oracle, idx in zip(self.oracles, self.blocks):
            out[:, idx] = oracle.sample0(rng, n)
        return out

    def _apply(self, method, t, x):
        x = self._check_shape(x)
        out = np.empty_like(x)
        for oracle, idx in zip(self.oracles, self.blocks):
            out[..., idx] = getattr(oracle, method)(t, x[..., idx])
        return out

    def posterior_mean(self, t, x):
        return self._apply("posterior_mean", t, x)

    def score(self, t, x):
        return self._apply("score", t, x)

    def log_marginal(self, t, x):
        x = self._check_shape(x)
        out = 0.0
        for oracle, idx in zip(self.oracles, self.blocks):
            out = out + oracle.log_marginal(t, x[..., idx])
        return out


def log_marginal_gradient(oracle: ScoreOracle, t: float, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``oracle.log_marginal(t, .)`` at one point x, shape (D,).

    Steps of h along each coordinate, all 2D points x +- h e_j in one query;
    the gap to ``oracle.score(t, x)`` is O(h^2) plus log_marginal's rounding
    over h, which makes it the check of the score / log-density identity.
    """
    x = np.asarray(x, dtype=float)
    steps = h * np.eye(len(x))
    values = oracle.log_marginal(t, np.concatenate([x + steps, x - steps]))
    return (values[: len(x)] - values[len(x) :]) / (2 * h)


# ---------------------------------------------------------------------------
# Forward process
# ---------------------------------------------------------------------------


def _forward_kernel(x: np.ndarray, t: float, z: np.ndarray) -> np.ndarray:
    """c(t) x + sigma(t) z, in place in the normals z: the one formula of the forward kernel."""
    c, s2 = noise_scales(t)
    z *= math.sqrt(s2)
    z += c * x
    return z


def forward_sample(oracle: ScoreOracle, t: float, rng: np.random.Generator, n: int = 1):
    """Sample (X_0, X_t) jointly: X_t = c(t) X_0 + sigma(t) Z."""
    s2 = noise_scales(t)[1]
    x0 = oracle.sample0(rng, n)
    if s2 == 0.0:
        return x0, x0.copy()
    return x0, _forward_kernel(x0, t, rng.standard_normal(x0.shape))


def forward_bridge(xt: np.ndarray, t: float, t2: float, rng: np.random.Generator):
    """Advance forward samples from time t to t2 > t via the Markov kernel.

    Composing forward_sample to t with this bridge gives the same law as
    forward_sample straight to t2, because c(t2 - t) * c(t) = c(t2).
    """
    t, t2 = float(t), float(t2)
    if t2 <= t:
        raise ValueError(f"bridge requires t2 > t, got t={t!r}, t2={t2!r}")
    xt = np.asarray(xt, dtype=float)
    return _forward_kernel(xt, t2 - t, rng.standard_normal(xt.shape))


# ---------------------------------------------------------------------------
# Synthetic manifolds
# ---------------------------------------------------------------------------


def random_frame(dim: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthonormal (dim, k) frame from one dim x k normal draw.

    The sign-fixed thin QR of an i.i.d. standard normal matrix is Haar on
    the Stiefel manifold (Mezzadri 2007, Notices AMS 54): O(dim * k) draws
    and memory, O(dim * k^2) time.  At k == dim it is the full random
    rotation of one dim x dim draw.
    """
    if not 0 <= k <= dim:
        raise ValueError(f"need 0 <= k <= dim, got k={k}, dim={dim}")
    q, r = np.linalg.qr(rng.standard_normal((dim, k)))
    return q * np.sign(np.diag(r))


def _hilbert_vertices(order: int) -> np.ndarray:
    """Vertices of the order-n Hilbert polyline over the unit square."""
    n = 1 << order
    idx = np.arange(n * n)
    x = np.zeros_like(idx)
    y = np.zeros_like(idx)
    t = idx.copy()
    s = 1
    while s < n:
        rx = (t // 2) & 1
        ry = (t ^ rx) & 1
        # rotate quadrant contents
        flip = ry == 0
        swap_mask = flip & (rx == 1)
        x_f = np.where(swap_mask, s - 1 - x, x)
        y_f = np.where(swap_mask, s - 1 - y, y)
        x, y = np.where(flip, y_f, x_f), np.where(flip, x_f, y_f)
        x = x + s * rx
        y = y + s * ry
        t //= 4
        s *= 2
    return (np.stack([x, y], axis=1) + 0.5) / n


def _sample_polyline(vertices: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    segs = np.diff(vertices, axis=0)
    lens = np.linalg.norm(segs, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    s = rng.uniform(0.0, cum[-1], size=n)
    j = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(segs) - 1)
    frac = (s - cum[j]) / lens[j]
    return vertices[j] + frac[:, None] * segs[j]


def make_manifold_cloud(
    kind: str,
    D: int,
    n: int,
    rng: np.random.Generator,
    *,
    intrinsic_dim: int = 1,
    order: int = 2,
) -> PointCloudMeasure:
    """Sample n points uniformly from a synthetic manifold embedded in R^D.

    Kinds, each sampled in k coordinates:
        circle: radius-1 circle (intrinsic dim 1), k = 2.
        torus: product of ``intrinsic_dim`` unit circles, k = 2 * intrinsic_dim.
        hilbert: order-n plane-filling polyline (intrinsic dim 1), a stress
            case whose strands come within 2**-order of each other; k = 2.

    The k-coordinate points are placed in R^D (D >= k) by a seeded random
    orthonormal frame, ``random_frame(D, k, rng)``, then rescaled so the
    analytic diameter is 1 and translated so the first sampled point sits at
    the origin.
    """
    if n < 1:
        raise ValueError("need n >= 1 points")
    if kind == "circle":
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        raw = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        diam = 2.0
    elif kind == "torus":
        d = int(intrinsic_dim)
        if d < 1:
            raise ValueError("torus needs intrinsic_dim >= 1")
        theta = rng.uniform(0.0, 2.0 * math.pi, size=(n, d))
        raw = np.empty((n, 2 * d))
        for i in range(d):
            raw[:, 2 * i] = np.cos(theta[:, i])
            raw[:, 2 * i + 1] = np.sin(theta[:, i])
        diam = 2.0 * math.sqrt(d)
    elif kind == "hilbert":
        order = int(order)
        if not (1 <= order <= 8):
            raise ValueError("hilbert order must be in [1, 8]")
        verts = _hilbert_vertices(order)
        raw = _sample_polyline(verts, n, rng)
        diam = float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))
    else:
        raise ValueError(f"unknown manifold kind {kind!r}")

    k = raw.shape[1]
    if D < k:
        raise ValueError(f"{kind} needs D >= {k}, got D = {D}")
    raw = raw @ random_frame(D, k, rng).T
    return PointCloudMeasure.uniform(raw).normalized(scale=diam)
