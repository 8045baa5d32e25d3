import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revdiff.schedule import (
    MAX_STEPS,
    build_schedule,
    noise_scales,
    schedule_from_text,
    schedule_to_text,
    validate_schedule,
    TimeSchedule,
)


def test_noise_scales_at_zero():
    c, sigma2 = noise_scales(0.0)
    assert c == 1.0
    assert sigma2 == 0.0


def test_noise_scales_at_ln2():
    c, sigma2 = noise_scales(math.log(2.0))
    assert abs(c - 0.5) < 1e-15
    assert abs(sigma2 - 0.75) < 1e-15


def test_noise_scales_tiny_time_no_cancellation():
    # 1 - exp(-2t) = 2t + O(t^2); naive evaluation would return 0 here
    _, sigma2 = noise_scales(1e-12)
    assert 1.999e-12 <= sigma2 <= 2.001e-12


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
def test_noise_scales_rejects_bad_times(bad):
    with pytest.raises(ValueError):
        noise_scales(bad)


@given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
@settings(max_examples=300)
def test_noise_scales_pythagorean_identity(t):
    c, sigma2 = noise_scales(t)
    assert abs(c**2 + sigma2 - 1.0) <= 1e-15
    assert 0.0 < c <= 1.0
    # sigma2 saturates to the correctly rounded 1.0 once exp(-2t) < eps/2
    assert 0.0 <= sigma2 <= 1.0
    if t <= 18.0:
        assert sigma2 < 1.0


def test_build_schedule_quarter_kappa_grid():
    sched = build_schedule(0.25, 4, 8)
    expected = [0.0, 0.25, 0.5, 0.75, 1.0, 1.2, 1.36, 1.488, 1.5904]
    assert sched.horizon == 2.0
    assert abs(sched.early_stop - 0.4096) < 1e-15
    np.testing.assert_allclose(sched.times, expected, rtol=0.0, atol=1e-12)


def test_build_schedule_minimal_grid():
    sched = build_schedule(0.2, 1, 2)
    assert abs(sched.horizon - 1.2) < 1e-15
    assert abs(sched.early_stop - 1.0 / 1.2) < 1e-15
    np.testing.assert_allclose(sched.times, [0.0, 0.2, 1.2 - 1.0 / 1.2], atol=1e-15)


@pytest.mark.parametrize(
    "kappa,L,K",
    [(0.0, 1, 2), (0.26, 1, 2), (-0.1, 1, 2), (0.1, 0, 2), (0.1, 3, 3), (0.1, 3, 2)],
)
def test_build_schedule_rejects_bad_parameters(kappa, L, K):
    with pytest.raises(ValueError):
        build_schedule(kappa, L, K)


@pytest.mark.parametrize("K", [MAX_STEPS + 1, 10**14])
def test_build_schedule_caps_the_step_count_before_allocating(K):
    with pytest.raises(ValueError, match=f"K must be at most {MAX_STEPS}"):
        build_schedule(0.1, 10, K)


def test_boundary_kappa_accepted():
    # the theory is stated for kappa < 1/4 but the boundary grid is well formed
    assert validate_schedule(build_schedule(0.25, 2, 5)).passed


@given(
    kappa=st.floats(min_value=0.01, max_value=0.25),
    L=st.integers(min_value=1, max_value=60),
    extra=st.integers(min_value=1, max_value=120),
)
@settings(max_examples=120, deadline=None)
def test_schedule_invariants_hold_for_all_parameters(kappa, L, extra):
    sched = build_schedule(kappa, L, L + extra)
    assert validate_schedule(sched).passed
    # terminal point sits exactly at horizon - early_stop
    assert abs(sched.times[-1] - (sched.horizon - sched.early_stop)) <= 1e-12
    # step bound gamma_k <= kappa * min(1, T - t_k), on closed-form quantities
    bound = kappa * np.minimum(1.0, sched.taus[:-1])
    assert (sched.gammas <= bound * (1.0 + 1e-12)).all()
    # geometric-phase gaps are kappa times the remaining time after the step
    m = np.arange(1, sched.n_steps - L + 1)
    target = kappa * (1.0 + kappa) ** (-m.astype(float))
    np.testing.assert_allclose(sched.gammas[L:], target, rtol=1e-12, atol=0.0)


def test_build_schedule_deterministic_bit_identical():
    a = build_schedule(0.17, 23, 71)
    b = build_schedule(0.17, 23, 71)
    assert a.times.tobytes() == b.times.tobytes()
    assert a.gammas.tobytes() == b.gammas.tobytes()
    assert a.taus.tobytes() == b.taus.tobytes()


def test_validate_flags_step_bound_violation():
    # hand-built grid with a 0.5 gap against kappa = 0.25
    times = np.array([0.0, 0.5, 0.6])
    sched = TimeSchedule(
        kappa=0.25,
        n_uniform=1,
        n_steps=2,
        horizon=1.1,
        early_stop=0.5,
        times=times,
        gammas=np.diff(times),
        taus=1.1 - times,
    )
    report = validate_schedule(sched)
    assert not report.passed
    failed = {name: detail for name, ok, detail in report.checks if not ok}
    assert "step_bound" in failed
    assert "gamma_0" in failed["step_bound"]


def test_validate_flags_non_monotone_times():
    times = np.array([0.0, 0.3, 0.2, 0.5])
    sched = TimeSchedule(
        kappa=0.2,
        n_uniform=1,
        n_steps=3,
        horizon=1.2,
        early_stop=0.7,
        times=times,
        gammas=np.diff(times),
        taus=1.2 - times,
    )
    report = validate_schedule(sched)
    assert not report.passed
    assert any(name == "strictly_increasing" and not ok for name, ok, _ in report.checks)


def test_schedule_text_roundtrip_is_exact():
    sched = build_schedule(0.13, 17, 103)
    text = schedule_to_text(sched)
    back = schedule_from_text(text)
    assert back.kappa == sched.kappa
    assert back.n_uniform == sched.n_uniform
    assert back.n_steps == sched.n_steps
    assert back.times.tobytes() == sched.times.tobytes()
    assert validate_schedule(back).passed


def test_validate_reports_plain_floats_and_bad_step_counts():
    # a record with L > K but K + 1 times must be reported, not index past the grid
    base = build_schedule(0.25, 4, 8)
    sched = schedule_from_text(schedule_to_text(base).replace("L = 4", "L = 10"))
    failed = {name for name, ok, _ in validate_schedule(sched).checks if not ok}
    assert "step_counts" in failed
    times = base.times.copy()
    times[2] += 0.01
    bad = TimeSchedule(0.25, 4, 8, base.horizon, base.early_stop, times, np.diff(times), base.horizon - times)
    details = {name: detail for name, ok, detail in validate_schedule(bad).checks if not ok}
    assert details["uniform_phase_gaps"] == f"gamma_1={float(times[2] - times[1])} != kappa"
    assert not any("np." in detail for detail in details.values())


def test_schedule_text_missing_field():
    with pytest.raises(ValueError, match="missing field"):
        schedule_from_text("kappa = 0.2\nL = 1\n")
