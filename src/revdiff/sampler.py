"""Reverse-run discretizations and the continuous-dynamics oracle.

Two one-step schemes share the update shape
``y' = alpha * y + beta * score(T - t_k, y) + eta * z``; ``step_table`` holds
their coefficients at every step:

* ``corrected``: alpha = e^g, beta = e^g - e^-g and
  eta = sigma(g) * sigma(T - t_{k+1}) / sigma(T - t_k).  Its conditional mean
  equals the exact reverse-bridge posterior mean for any data law, so the
  only per-step error is in the injected noise shape; for point-mass data the
  step is the exact bridge kernel.
* ``exponential_integrator``: the classic exponential integrator, obtained by
  freezing the score over the step and integrating the linear reverse SDE.

``fine_integrate_step`` integrates the interval dynamics driven by the
first-order corrected score with Euler-Maruyama substeps; its one-step law
converges to the corrected step's, which is what makes the scheme a
discretization of those dynamics rather than an ad-hoc update.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from . import _record
from ._pool import _DRAW_AHEAD_MIN, _map_ahead, _map_pooled, spawn_rng
from .measures import ScoreOracle, forward_sample
from .schedule import TimeSchedule, contraction, noise_scales, noise_var, validate_schedule

__all__ = [
    "ScorePerturbation",
    "ReverseRunConfig",
    "ReverseRunResult",
    "step_table",
    "corrected_score",
    "fine_integrate_step",
    "fine_step_conditional_law",
    "run_reverse",
    "save_batch",
]

SCHEMES = ("corrected", "exponential_integrator")


def _check_step_index(schedule: TimeSchedule, k: int) -> int:
    k = int(k)
    if not 0 <= k < schedule.n_steps:
        raise IndexError(f"step index {k} outside [0, {schedule.n_steps})")
    return k


@dataclass(frozen=True)
class StepTable:
    """Per-step (K,) arrays alpha, beta, eta2 of one scheme, plus the forward
    scales c and s2 at all K + 1 remaining times ``schedule.taus``."""

    alpha: np.ndarray
    beta: np.ndarray
    eta2: np.ndarray
    c: np.ndarray
    s2: np.ndarray


def step_table(schedule: TimeSchedule, scheme: str = "corrected") -> StepTable:
    """Closed-form coefficients of every step of ``scheme``, O(K).

    beta is 2 sinh(g) (corrected) or 2 expm1(g) (exponential integrator):
    the equivalent e^g - e^-g and 2 (e^g - 1) cancel for the tiny gaps at
    the end of the geometric phase.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    g = np.asarray(schedule.gammas, dtype=float)
    s2 = noise_var(schedule.taus)
    if scheme == "corrected":
        beta = 2.0 * np.sinh(g)
        eta2 = noise_var(g) * s2[1:] / s2[:-1]
    else:
        beta = 2.0 * np.expm1(g)
        eta2 = np.expm1(2.0 * g)
    return StepTable(alpha=np.exp(g), beta=beta, eta2=eta2, c=contraction(schedule.taus), s2=s2)


def _affine_step(y, s, alpha, beta, eta, draw) -> np.ndarray:
    """alpha y + beta s + eta z in y, bit-identical to that expression; ``draw(s)`` returns z once s is added, in s or another array."""
    y *= alpha
    s *= beta
    y += s
    z = draw(s)
    z *= eta
    y += z
    return y


def corrected_score(t, x, t2, x2, base_score_fn) -> np.ndarray:
    """First-order score extrapolation from an anchor at a later time.

    Given the score at (t2, x2) with t2 >= t, returns
    ``e^(t2-t) * (sigma2(t2)/sigma2(t)) * s(t2, x2) - (x - e^(t2-t) * x2) / sigma2(t)``.
    At t2 == t, x2 == x this reduces to the base score exactly.  The gap to
    the true score at (t, x) is proportional to the posterior-mean increment
    between the two space-time points, which is what the corrected scheme's
    error analysis runs on.
    """
    t, t2 = float(t), float(t2)
    if t2 < t:
        raise ValueError(f"anchor time must satisfy t2 >= t, got t={t!r}, t2={t2!r}")
    if t <= 0:
        raise ValueError(f"query time must be positive, got {t!r}")
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    cinv = math.exp(t2 - t)
    s2_t = noise_scales(t)[1]
    s2_t2 = noise_scales(t2)[1]
    return cinv * (s2_t2 / s2_t) * base_score_fn(t2, x2) - (x - cinv * x2) / s2_t


def fine_integrate_step(y, k, schedule, base_score_fn, substeps, rng) -> np.ndarray:
    """Euler-Maruyama integration of the interval dynamics for one step.

    The anchor (T - t_k, y at step start) is frozen; each substep drifts by
    ``y + 2 * corrected_score(T - t, y | anchor)`` and diffuses with
    coefficient sqrt(2).  As substeps grows the one-step law converges (first
    order) to the corrected step's conditional law.
    """
    substeps = int(substeps)
    if substeps < 1:
        raise ValueError("need at least one substep")
    k = _check_step_index(schedule, k)
    y = np.asarray(y, dtype=float).copy()
    anchor_x = y.copy()
    anchor_t = float(schedule.taus[k])
    base_val = base_score_fn(anchor_t, anchor_x)
    frozen = lambda t2, x2: base_val  # anchor is queried once per step
    h = float(schedule.gammas[k]) / substeps
    for j in range(substeps):
        tau = anchor_t - j * h
        drift = y + 2.0 * corrected_score(tau, y, anchor_t, anchor_x, frozen)
        y = y + h * drift + math.sqrt(2.0 * h) * rng.standard_normal(y.shape)
    return y


def fine_step_conditional_law(y, k, schedule, base_score_fn, substeps):
    """Exact conditional (mean, variance) of fine_integrate_step given y.

    The substep drift is affine in the state, so the Euler-Maruyama chain is
    Gaussian conditionally on the start point; its mean and isotropic
    variance propagate in closed form.  Useful as the deterministic side of
    scheme-equivalence checks: compare against
    (alpha * y + beta * s(T - t_k, y), eta**2).
    """
    substeps = int(substeps)
    if substeps < 1:
        raise ValueError("need at least one substep")
    k = _check_step_index(schedule, k)
    anchor_x = np.asarray(y, dtype=float)
    anchor_t = float(schedule.taus[k])
    base_val = base_score_fn(anchor_t, anchor_x)
    s2_anchor = noise_scales(anchor_t)[1]
    h = float(schedule.gammas[k]) / substeps
    mean = anchor_x.copy()
    var = 0.0
    for j in range(substeps):
        tau = anchor_t - j * h
        s2 = noise_scales(tau)[1]
        cinv = math.exp(anchor_t - tau)
        coef = 1.0 + h * (1.0 - 2.0 / s2)
        offset = 2.0 * h * cinv * ((s2_anchor / s2) * base_val + anchor_x / s2)
        mean = coef * mean + offset
        var = coef * coef * var + 2.0 * h
    return mean, var


@dataclass(frozen=True)
class ScorePerturbation:
    """Additive affine bias field eps * (constant + linear @ x) on the score.

    ``run_reverse`` samples any square ``linear``.  The exact Gaussian paths
    (``metrics.propagate_affine_reverse``, ``kl_experiment`` and
    ``score_error_budget``) take a ``linear`` that is a multiple lam I of the
    identity, which adds eps * lam to every channel's slope, and reject any
    other.  ``epsilon`` maps directly onto the step-weighted score-error
    budget.
    """

    epsilon: float
    constant: np.ndarray | None = None
    linear: np.ndarray | None = None

    def __post_init__(self):
        if not math.isfinite(self.epsilon):
            raise ValueError(f"ScorePerturbation.epsilon must be finite, got {self.epsilon!r}")
        for name in ("constant", "linear"):
            if getattr(self, name) is not None:
                value = np.asarray(getattr(self, name), dtype=float)
                if not np.isfinite(value).all():
                    raise ValueError(f"ScorePerturbation.{name} must be finite")
                object.__setattr__(self, name, value)
        if self.linear is not None and (self.linear.ndim != 2 or self.linear.shape[0] != self.linear.shape[1]):
            raise ValueError("ScorePerturbation.linear must be a square matrix")

    def check_dim(self, dim: int) -> None:
        """Raise ValueError unless ``constant`` has shape (D,) and ``linear`` shape (D, D), for D = ``dim``."""
        for name, shape in (("constant", (dim,)), ("linear", (dim, dim))):
            value = getattr(self, name)
            if value is not None and value.shape != shape:
                raise ValueError(f"ScorePerturbation.{name} must have shape {shape} for D = {dim}, got {value.shape}")

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        if self.constant is not None:
            out = out + self.constant
        if self.linear is not None:
            out = out + x @ self.linear.T
        return self.epsilon * out

    def perturb(self, score_fn):
        return lambda t, x: score_fn(t, x) + self(t, x)


@dataclass(frozen=True)
class ReverseRunConfig:
    """Everything needed to reproduce one reverse run.

    ``score_source`` is "exact" or a ScorePerturbation applied on top of the
    exact score.  ``init`` selects the start law: "standard_normal" for the
    N(0, I) initialization, or "data_pT" to start from the true noised data
    law at the horizon (useful to isolate discretization error).  Runs are
    bit-reproducible for fixed (config, seed): chunk i, samples
    [i chunk_size, (i + 1) chunk_size), draws its init and noise from the
    derived stream (seed, i), and each max(1, 2**15 // (chunk_size D))
    consecutive chunks step together as one block.  A block's size is fixed
    by ``chunk_size`` and D alone, so the worker count changes wall time only.
    ``n_workers`` bounds how many blocks step at once on the shared pool
    (``_pool.py``); a block stepped in the caller still has its noise drawn
    one step ahead on one pool thread (``_map_ahead`` at depth 1).
    """

    schedule: TimeSchedule
    scheme: str = "corrected"
    score_source: object = "exact"
    batch: int = 1
    seed: int = 0
    init: str = "standard_normal"
    n_workers: int = 1
    chunk_size: int = 1024

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        # numpy would reject a seed, batch or chunk size of 1.5 or "3" only later, without naming the field
        for name, low in (("seed", 0), ("batch", 1), ("chunk_size", 1), ("n_workers", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"ReverseRunConfig.{name} must be an integer >= {low}, got {value!r}")
        if self.init not in ("standard_normal", "data_pT"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.score_source != "exact" and not isinstance(self.score_source, ScorePerturbation):
            raise ValueError("score_source must be 'exact' or a ScorePerturbation")
        report = validate_schedule(self.schedule)
        if not report.passed:
            raise ValueError(f"schedule fails validation: {report.failures[0]}")


@dataclass(frozen=True)
class ReverseRunResult:
    """Terminal batch of a reverse run."""

    terminal: np.ndarray
    config: ReverseRunConfig


def _run_block(config, oracle, score_fn, steps, chunks, terminal):
    """Step the chunks of the range ``chunks`` as one array, in place in their rows of ``terminal``.

    Each chunk draws its init and then each step's noise from its own stream,
    through ``_map_ahead`` (``_pool.py``): when a step draws at least
    ``_DRAW_AHEAD_MIN`` values, one pool thread makes every chunk's draws of
    step k + 1 while this thread finishes step k and queries step k + 1.  The
    hand-off comes a whole step early because a pool thread idle for some
    milliseconds takes about 0.15 ms to wake.  A step's noise goes into the
    spent score array of the step before, or for step 0 into one more array,
    so the block holds one array more than it would drawing each step's noise
    over its own spent score, as it does below that size and inside pooled
    work.  Either way a stream's draws come in step order, one thread at a
    time, so the bits agree; and a block that raises at step k has drawn
    its init and the noise of steps k and k + 1, whatever the timing.
    """
    size = config.chunk_size
    y = terminal[chunks.start * size : chunks.stop * size]  # the batch's last chunk may be short
    rows = [slice(j * size, (j + 1) * size) for j in range(len(chunks))]
    rngs = [spawn_rng(config.seed, i) for i in chunks]
    # score arrays whose values y has taken, oldest first: step k + 1's noise
    # goes into step k's, and only the drawing thread takes from it
    spent = collections.deque()

    def draw(k):
        """Each chunk's init (k = -1), or its noise for step k, into its rows."""
        if k < 0:
            for r, rng in zip(rows, rngs):
                if config.init == "data_pT":
                    y[r] = forward_sample(oracle, config.schedule.horizon, rng, len(y[r]))[1]
                else:
                    rng.standard_normal(out=y[r])
            return None
        z = spent.popleft() if spent else np.empty_like(y)
        for r, rng in zip(rows, rngs):
            rng.standard_normal(out=z[r])
        return z

    def noise(s):
        spent.append(s)
        return next(draws)

    draws = _map_ahead(draw, range(-1, len(steps)), 1 if y.size >= _DRAW_AHEAD_MIN else 0)
    try:
        next(draws)
        for k, (tau, alpha, beta, eta) in enumerate(steps):
            _affine_step(y, score_fn(tau, y), alpha, beta, eta, noise)
            if not np.isfinite(y).all():
                raise FloatingPointError(
                    f"non-finite state after step k={k} (t={float(config.schedule.times[k + 1])!r}) in batch row "
                    f"{chunks.start * size + int(np.isfinite(y).all(axis=1).argmin())}; check the schedule and score source"
                )
    finally:
        draws.close()  # finishes the draws already allowed, so none outlives the block


def run_reverse(config: ReverseRunConfig, oracle: ScoreOracle) -> ReverseRunResult:
    """Run the configured reverse scheme for a batch of samples.

    Samples start at the configured initialization and take n_steps scheme
    steps; the returned terminal batch approximates the data law noised to
    the early-stopping time.  Each block steps in place in its rows of the
    (batch, D) terminal, one score query a step, so the batch is never held
    twice.  With ``n_workers > 1`` blocks share the pool; a batch of one block
    runs in the caller, so a point-cloud oracle shares its tiles over the pool.
    ``n_workers`` bounds how many blocks step at once, not the threads: a
    block stepped in the caller has one pool thread draw its next step's
    noise while it queries (``_map_ahead`` at depth 1, see ``_run_block``).
    A mis-sized ScorePerturbation is rejected before any block starts.
    """
    if not isinstance(oracle, ScoreOracle):
        raise TypeError(f"run_reverse needs a ScoreOracle, got {type(oracle).__name__}")
    if config.score_source == "exact":
        score_fn = oracle.score
    else:
        config.score_source.check_dim(oracle.dim)
        score_fn = config.score_source.perturb(oracle.score)
    tab = step_table(config.schedule, config.scheme)
    # (tau, alpha, beta, eta) of each step, as Python floats
    steps = list(
        zip(config.schedule.taus[:-1].tolist(), tab.alpha.tolist(), tab.beta.tolist(), np.sqrt(tab.eta2).tolist())
    )
    terminal = np.empty((config.batch, oracle.dim))
    # chunks per block: at most 2**15 values, since larger blocks stepped slower; the
    # bound depends on chunk_size and D alone, so no output depends on the worker count
    per = max(1, 2**15 // (config.chunk_size * oracle.dim))
    chunks = range(-(-config.batch // config.chunk_size))
    blocks = [chunks[i : i + per] for i in range(0, len(chunks), per)]
    _map_pooled(lambda block: _run_block(config, oracle, score_fn, steps, block, terminal), blocks, config.n_workers)
    return ReverseRunResult(terminal=terminal, config=config)


def save_batch(path, result: ReverseRunResult, extra_meta: dict) -> None:
    """Write the terminal batch, one sample per row, under a ``# key = value`` header."""
    cfg = result.config
    sched = cfg.schedule
    meta = [("scheme", cfg.scheme), ("batch", cfg.batch), ("seed", cfg.seed), ("init", cfg.init)]
    meta += [("kappa", sched.kappa), ("L", sched.n_uniform), ("K", sched.n_steps), *extra_meta.items()]
    with open(path, "w") as fh:
        fh.write(_record.header(meta, table=True))
        fh.writelines(_record.value(row) + "\n" for row in np.atleast_2d(result.terminal))
