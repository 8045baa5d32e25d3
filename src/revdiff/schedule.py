"""Noise scales of the forward OU process and the reverse-time step grid.

The forward process contracts data by ``c(t) = exp(-t)`` while injecting
Gaussian noise of variance ``sigma2(t) = 1 - exp(-2t)``.  The reverse run
discretizes ``[0, T - delta]`` on a grid that is uniform with gap ``kappa``
up to ``T - 1`` and geometric afterwards, so that every gap satisfies
``gamma_k <= kappa * min(1, T - t_k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _record

__all__ = [
    "TimeSchedule",
    "ScheduleValidation",
    "noise_scales",
    "contraction",
    "noise_var",
    "build_schedule",
    "validate_schedule",
    "schedule_to_text",
    "schedule_from_text",
]

# Relative slack used when checking closed-form identities on float grids.
_VAL_RTOL = 1e-12
# Most steps a grid may have; its times, gaps and remaining times then take
# 384 MiB.  A K-sweep of ten doublings from kappa = 0.1, T = 10, delta = 1e-6
# stops near 2.3e5 steps.
MAX_STEPS = 2**24


def contraction(t):
    """Contraction factor exp(-t) of the forward process; accepts arrays."""
    return np.exp(-np.asarray(t, dtype=float))


def noise_var(t):
    """Noise variance 1 - exp(-2t), evaluated stably near t = 0.

    Uses expm1 so that the result is ~2t for t << 1 instead of losing all
    significant digits to cancellation.  Accepts arrays.
    """
    return -np.expm1(-2.0 * np.asarray(t, dtype=float))


def noise_scales(t: float) -> tuple[float, float]:
    """Scalar (c, sigma2) = (exp(-t), 1 - exp(-2t)) at time ``t >= 0``.

    The one scalar source of the forward scales; ``contraction`` and
    ``noise_var`` are its array forms.
    """
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and nonnegative, got {t!r}")
    return math.exp(-t), -math.expm1(-2.0 * t)


@dataclass(frozen=True)
class TimeSchedule:
    """Reverse-run grid 0 = t_0 < ... < t_K = T - delta with its parameters.

    Attributes:
        kappa: step-ratio parameter, in (0, 1/4).
        n_uniform: number of uniform steps (the grid is kappa*k for k below
            this count), written as ``L`` in serialized records.
        n_steps: total number of steps ``K``; the grid has K + 1 points.
        horizon: total forward time T = kappa * n_uniform + 1.
        early_stop: terminal offset delta = (1 + kappa) ** (n_uniform - n_steps).
        times: grid points, shape (K + 1,), read-only.
        gammas: consecutive gaps, shape (K,), read-only.
        taus: remaining forward times T - t_k, shape (K + 1,), read-only.
            Kept separately because subtracting grid points from the horizon
            loses relative precision exactly where the gaps get small.
    """

    kappa: float
    n_uniform: int
    n_steps: int
    horizon: float
    early_stop: float
    times: np.ndarray = field(repr=False)
    gammas: np.ndarray = field(repr=False)
    taus: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.times, self.gammas, self.taus):
            arr.setflags(write=False)


def build_schedule(kappa: float, n_uniform: int, n_steps: int) -> TimeSchedule:
    """Construct the uniform-then-geometric grid from (kappa, L, K).

    The first ``n_uniform`` gaps are exactly ``kappa``; afterwards the
    remaining time to the horizon shrinks by (1 + kappa) per step.  Times
    are evaluated from closed forms, never by accumulating gaps, so grids
    of identical parameters are bit-identical and drift-free.

    The convergence theory assumes kappa < 1/4; the boundary value 1/4
    still yields a well-formed grid and is accepted.

    Raises:
        ValueError: if kappa is outside (0, 1/4], or if the step counts do
            not satisfy 1 <= n_uniform < n_steps <= MAX_STEPS.
    """
    kappa = float(kappa)
    if not (0.0 < kappa <= 0.25):
        raise ValueError(f"kappa must lie in (0, 0.25], got {kappa!r}")
    n_uniform = int(n_uniform)
    n_steps = int(n_steps)
    if n_uniform < 1:
        raise ValueError(f"need at least one uniform step, got {n_uniform}")
    if n_steps <= n_uniform:
        raise ValueError(
            f"total steps must exceed uniform steps, got K={n_steps} <= L={n_uniform}"
        )
    if n_steps > MAX_STEPS:
        raise ValueError(f"K must be at most {MAX_STEPS}, got {n_steps}")
    horizon = kappa * n_uniform + 1.0
    early_stop = (1.0 + kappa) ** (n_uniform - n_steps)
    uniform = kappa * np.arange(n_uniform, dtype=float)
    geometric = horizon - (1.0 + kappa) ** (-np.arange(n_steps - n_uniform + 1, dtype=float))
    times = np.concatenate([uniform, geometric])
    # Gaps and remaining times also come from closed forms: differencing
    # values near the horizon would lose relative precision to cancellation
    # exactly where the gaps get small.
    gammas = np.concatenate(
        [
            np.full(n_uniform, kappa),
            kappa * (1.0 + kappa) ** (-np.arange(1, n_steps - n_uniform + 1, dtype=float)),
        ]
    )
    taus = np.concatenate(
        [
            kappa * np.arange(n_uniform, 0, -1, dtype=float) + 1.0,
            (1.0 + kappa) ** (-np.arange(n_steps - n_uniform + 1, dtype=float)),
        ]
    )
    return TimeSchedule(
        kappa=kappa,
        n_uniform=n_uniform,
        n_steps=n_steps,
        horizon=horizon,
        early_stop=early_stop,
        times=times,
        gammas=gammas,
        taus=taus,
    )


@dataclass(frozen=True)
class ScheduleValidation:
    """Outcome of validate_schedule: per-invariant pass/fail records.

    ``checks`` holds (name, passed, detail) triples; ``failures`` the failed
    subset.  ``detail`` names the first violating index where applicable.
    """

    passed: bool
    checks: tuple
    failures: tuple


def validate_schedule(sched: TimeSchedule) -> ScheduleValidation:
    """Check every grid invariant, reporting rather than raising.

    Intended gate for externally supplied grids before they reach the
    sampler.  Closed-form identities are checked with relative slack
    1e-12 to absorb float rounding in externally recomputed grids.
    """
    checks = []
    t = np.asarray(sched.times, dtype=float)
    g = np.asarray(sched.gammas, dtype=float)
    kappa, L, K = sched.kappa, sched.n_uniform, sched.n_steps

    def record(name, ok, detail=""):
        checks.append((name, bool(ok), "" if ok else detail))

    record(
        "kappa_range",
        0.0 < kappa <= 0.25,
        f"kappa={kappa} outside (0, 0.25]" if not (0.0 < kappa <= 0.25) else "",
    )
    record(
        "step_counts",
        1 <= L < K,
        f"L={L}, K={K}" if not (1 <= L < K) else "",
    )
    record(
        "grid_length",
        len(t) == K + 1 and len(g) == K,
        f"len(times)={len(t)}, len(gammas)={len(g)}",
    )
    # later checks index by L and K, and raise 1 + kappa to the power L - K
    if not (0.0 < kappa <= 0.25 and 1 <= L < K) or len(t) != K + 1 or len(g) != K:
        return ScheduleValidation(False, tuple(checks), tuple(c for c in checks if not c[1]))

    record("starts_at_zero", t[0] == 0.0, f"t_0={t[0]}")

    mono = np.diff(t) > 0.0
    idx = int(np.argmin(mono)) if not mono.all() else -1
    record("strictly_increasing", mono.all(), f"first violation at k={idx}" if idx >= 0 else "")

    record(
        "horizon_consistent",
        abs(sched.horizon - (kappa * L + 1.0)) <= _VAL_RTOL * sched.horizon,
        f"T={sched.horizon} vs kappa*L+1={kappa * L + 1.0}",
    )
    delta_ref = (1.0 + kappa) ** (L - K)
    record(
        "early_stop_consistent",
        abs(sched.early_stop - delta_ref) <= _VAL_RTOL * delta_ref,
        f"delta={sched.early_stop} vs (1+kappa)^(L-K)={delta_ref}",
    )
    record(
        "terminal_time",
        abs(t[-1] - (sched.horizon - sched.early_stop)) <= 1e-12,
        f"t_K={t[-1]} vs T-delta={sched.horizon - sched.early_stop}",
    )
    # Absolute slack for quantities obtained by differencing values of size T:
    # cancellation leaves rounding of this order in externally computed grids.
    atol_t = 64.0 * np.finfo(float).eps * max(1.0, sched.horizon)
    record(
        "gaps_match_times",
        np.allclose(g, np.diff(t), rtol=_VAL_RTOL, atol=atol_t),
        "gammas disagree with the diffs of times",
    )
    record(
        "taus_match_times",
        np.allclose(np.asarray(sched.taus), sched.horizon - t, rtol=_VAL_RTOL, atol=atol_t),
        "taus disagree with horizon - times",
    )

    bound = kappa * np.minimum(1.0, sched.horizon - t[:-1])
    ok = g <= bound * (1.0 + _VAL_RTOL) + kappa * atol_t
    idx = int(np.argmin(ok)) if not ok.all() else -1
    record(
        "step_bound",
        ok.all(),
        f"gamma_{idx}={g[idx]} > kappa*min(1, T-t_{idx})={bound[idx]}" if idx >= 0 else "",
    )

    uni = np.abs(g[:L] - kappa) <= _VAL_RTOL * kappa + atol_t
    idx = int(np.argmin(uni)) if not uni.all() else -1
    record(
        "uniform_phase_gaps",
        uni.all(),
        f"gamma_{idx}={g[idx]} != kappa" if idx >= 0 else "",
    )
    record(
        "uniform_phase_end",
        abs(t[L] - (sched.horizon - 1.0)) <= 1e-12 * max(1.0, sched.horizon),
        f"t_L={t[L]} vs T-1={sched.horizon - 1.0}",
    )

    # Geometric phase: each gap is kappa times the remaining time after it.
    rem = sched.horizon - t[L + 1 :]
    geo = np.abs(g[L:] - kappa * rem) <= _VAL_RTOL * np.maximum(kappa * rem, 0.0) + kappa * atol_t
    idx = int(np.argmin(geo)) if not geo.all() else -1
    record(
        "geometric_phase_gaps",
        geo.all(),
        f"gamma_{L + idx}={g[L + idx]} != kappa*(T-t_{L + idx + 1})" if idx >= 0 else "",
    )

    failures = tuple(c for c in checks if not c[1])
    return ScheduleValidation(len(failures) == 0, tuple(checks), failures)


# Fields of a schedule record, in order, with the type of each entry.
_RECORD_FIELDS = {"kappa": float, "L": int, "K": int, "T": float, "delta": float, "times": float}


def schedule_to_text(sched: TimeSchedule) -> str:
    """Serialize to the plain-text record used for exact experiment replay.

    Times are written with 17 significant digits, enough to round-trip
    IEEE doubles bit-exactly.
    """
    values = (sched.kappa, sched.n_uniform, sched.n_steps, sched.horizon, sched.early_stop, sched.times)
    return _record.header(zip(_RECORD_FIELDS, values))


def schedule_from_text(text: str) -> TimeSchedule:
    """Parse a record produced by schedule_to_text.

    A line that is not ``key = value``, a repeated or unknown key, a missing
    field or a value that does not convert raises a ValueError naming the
    line or field.  The grid is taken verbatim from the file; run it through
    validate_schedule before use.
    """
    fields = _record.parse(text, _RECORD_FIELDS, "schedule record")
    missing = [key for key in _RECORD_FIELDS if key not in fields]
    if missing:
        raise ValueError(f"schedule record is missing field {missing[0]!r}")

    def convert(key, token):
        kind = _RECORD_FIELDS[key]
        try:
            return kind(token)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"schedule record field {key} must be {noun}, got {token!r}") from None

    kappa, n_uniform, n_steps, horizon, early_stop = (convert(k, fields[k]) for k in ("kappa", "L", "K", "T", "delta"))
    times = np.array([convert("times", token) for token in fields["times"].split()], dtype=float)
    return TimeSchedule(
        kappa=kappa,
        n_uniform=n_uniform,
        n_steps=n_steps,
        horizon=horizon,
        early_stop=early_stop,
        times=times,
        gammas=np.diff(times),
        taus=horizon - times,
    )
