import importlib
import inspect
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import typing
from decimal import Decimal, localcontext

import numpy as np
import pytest

import revdiff
from revdiff import sampler
from revdiff.harness import build_measure
from revdiff.measures import (
    GaussianLaw,
    GaussianOracle,
    PointCloudMeasure,
    PointCloudOracle,
    PointMassOracle,
    ProductOracle,
    forward_sample,
    spawn_rng,
)
from revdiff.metrics import propagate_affine_reverse
from revdiff.sampler import (
    _affine_step,
    ReverseRunConfig,
    ScorePerturbation,
    corrected_score,
    fine_integrate_step,
    fine_step_conditional_law,
    run_reverse,
    save_batch,
    step_table,
)
from revdiff.schedule import TimeSchedule, build_schedule

LN2 = math.log(2.0)


def schedule_with_gap(gamma, tau0):
    """Tiny handmade two-point grid whose first gap and start time are given."""
    horizon = tau0
    times = np.array([0.0, gamma])
    return TimeSchedule(
        kappa=0.25,
        n_uniform=1,
        n_steps=1,
        horizon=horizon,
        early_stop=horizon - gamma,
        times=times,
        gammas=np.diff(times),
        taus=horizon - times,
    )


def coefficients(sched, k, scheme="corrected"):
    """(alpha, beta, eta) of step k, read from the step table."""
    tab = step_table(sched, scheme)
    return float(tab.alpha[k]), float(tab.beta[k]), math.sqrt(tab.eta2[k])


def test_corrected_coefficients_at_ln2_gap():
    sched = schedule_with_gap(LN2, 2.0)
    alpha, beta, eta = coefficients(sched, 0)
    assert abs(alpha - 2.0) < 1e-14
    assert abs(beta - 1.5) < 1e-14
    s2 = lambda t: -math.expm1(-2.0 * t)
    eta_expected = math.sqrt(s2(LN2) * s2(2.0 - LN2) / s2(2.0))
    assert abs(eta - eta_expected) < 1e-14


def test_corrected_coefficients_zero_gap_limit():
    sched = schedule_with_gap(1e-10, 1.0)
    alpha, beta, eta = coefficients(sched, 0)
    assert abs(alpha - 1.0) < 1e-9
    assert abs(beta) < 3e-10
    assert abs(eta) < 2e-5  # eta ~ sqrt(2 gamma)


def test_eta_matches_noise_ratio_identity():
    sched = build_schedule(0.2, 3, 9)
    s2 = lambda t: -math.expm1(-2.0 * t)
    for k in range(sched.n_steps):
        _, _, eta = coefficients(sched, k)
        tau0, tau1 = float(sched.taus[k]), float(sched.taus[k + 1])
        g = float(sched.gammas[k])
        assert abs(eta**2 - s2(g) * s2(tau1) / s2(tau0)) < 1e-15


def test_ei_coefficients():
    sched = schedule_with_gap(LN2, 2.0)
    alpha, beta, eta = coefficients(sched, 0, "exponential_integrator")
    assert abs(alpha - 2.0) < 1e-14
    assert abs(beta - 2.0) < 1e-14
    assert abs(eta - math.sqrt(3.0)) < 1e-14
    tiny_alpha, tiny_beta, _ = coefficients(schedule_with_gap(1e-10, 1.0), 0, "exponential_integrator")
    assert abs(tiny_alpha - 1.0) < 1e-9 and abs(tiny_beta) < 3e-10


def test_step_coefficients_match_decimal_reference():
    # beta = e^g - e^-g and 2 (e^g - 1) cancel for small gaps; the table must not.
    with localcontext() as ctx:
        ctx.prec = 50
        s2 = lambda t: 1 - (-2 * t).exp()
        for gamma in np.logspace(-12, 0, 49):
            sched = schedule_with_gap(float(gamma), 2.0)
            g, tau0, tau1 = (Decimal(float(v)) for v in (sched.gammas[0], *sched.taus))
            refs = {
                "corrected": (g.exp(), g.exp() - (-g).exp(), (s2(g) * s2(tau1) / s2(tau0)).sqrt()),
                "exponential_integrator": (g.exp(), 2 * (g.exp() - 1), ((2 * g).exp() - 1).sqrt()),
            }
            for scheme, ref in refs.items():
                for got, want in zip(coefficients(sched, 0, scheme), ref):
                    assert abs(Decimal(got) - want) <= Decimal("1e-15") * want, (gamma, scheme, got)


def test_step_index_bounds():
    sched = build_schedule(0.2, 2, 4)
    score = lambda t, x: np.zeros_like(x)
    with pytest.raises(IndexError):
        fine_step_conditional_law(np.zeros(1), 4, sched, score, 1)
    with pytest.raises(IndexError):
        fine_step_conditional_law(np.zeros(1), -1, sched, score, 1)


def test_corrected_step_drift_only_is_pure_scaling():
    sched = schedule_with_gap(0.3, 1.5)
    y = np.array([[0.5, -1.0]])
    out = _affine_step(y.copy(), np.zeros_like(y), *coefficients(sched, 0), lambda z: z.fill(0.0) or z)
    np.testing.assert_allclose(out, math.exp(0.3) * y, atol=1e-15)


def test_corrected_step_reproducible_bit_exact():
    sched = build_schedule(0.2, 2, 5)
    oracle = PointMassOracle(np.array([0.5, 0.0]))
    y = np.array([[0.1, 0.2]])
    tau, step = float(sched.taus[1]), coefficients(sched, 1)
    a = _affine_step(y.copy(), oracle.score(tau, y), *step, lambda z: np.random.default_rng(42).standard_normal(out=z))
    b = _affine_step(y.copy(), oracle.score(tau, y), *step, lambda z: np.random.default_rng(42).standard_normal(out=z))
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scheme", ["corrected", "exponential_integrator"])
def test_affine_step_is_the_expression_bit_for_bit(scheme):
    sched = build_schedule(0.2, 3, 9)
    oracles = [
        GaussianOracle(GaussianLaw(np.array([0.3, -0.2, 0.1]), np.array([[0.5], [0.1], [-0.4]]), 0.05)),
        PointCloudOracle(PointCloudMeasure.uniform(np.random.default_rng(1).standard_normal((7, 3)))),
    ]
    for oracle in oracles:
        y = np.random.default_rng(2).standard_normal((64, 3))
        for k in range(sched.n_steps):
            tau, (alpha, beta, eta) = float(sched.taus[k]), coefficients(sched, k, scheme)
            expected = alpha * y + beta * oracle.score(tau, y) + eta * np.random.default_rng(k).standard_normal(y.shape)
            rng = np.random.default_rng(k)
            got = _affine_step(y.copy(), oracle.score(tau, y), alpha, beta, eta, lambda z: rng.standard_normal(out=z))
            assert got.tobytes() == expected.tobytes()
            y = got


def test_ei_and_corrected_share_alpha_but_not_noise():
    sched = schedule_with_gap(LN2, 2.0)
    c = step_table(sched, "corrected")
    e = step_table(sched, "exponential_integrator")
    assert c.alpha[0] == e.alpha[0]
    assert c.eta2[0] < e.eta2[0]  # EI injects the raw reverse-SDE noise


# ---------------------------------------------------------------------------
# corrected score
# ---------------------------------------------------------------------------


def test_corrected_score_zero_gap_identity():
    oracle = PointCloudOracle(
        PointCloudMeasure.uniform(np.array([[0.0, 0.0], [1.0, 0.3]]))
    )
    x = np.array([0.2, -0.1])
    t = 0.7
    np.testing.assert_allclose(
        corrected_score(t, x, t, x, oracle.score), oracle.score(t, x), atol=1e-14
    )


def test_corrected_score_rejects_backward_anchor():
    oracle = PointMassOracle(np.zeros(1))
    with pytest.raises(ValueError):
        corrected_score(0.5, np.zeros(1), 0.4, np.zeros(1), oracle.score)


def test_corrected_score_gap_is_posterior_mean_increment():
    # corrected - exact = (c_t / sigma2_t) * (m_t2(x2) - m_t(x)); note the
    # anchor's posterior mean enters with the positive sign
    oracle = PointCloudOracle(
        PointCloudMeasure.uniform(np.array([[-0.5, 0.1], [0.5, -0.2], [0.0, 0.4]]))
    )
    rng = np.random.default_rng(7)
    for _ in range(10):
        t = float(rng.uniform(0.05, 0.8))
        t2 = t + float(rng.uniform(0.01, 0.8))
        x = rng.standard_normal(2)
        x2 = rng.standard_normal(2)
        gap = corrected_score(t, x, t2, x2, oracle.score) - oracle.score(t, x)
        c, s2 = math.exp(-t), -math.expm1(-2 * t)
        pred = (c / s2) * (oracle.posterior_mean(t2, x2) - oracle.posterior_mean(t, x))
        np.testing.assert_allclose(gap, pred, atol=1e-9)


def test_corrected_score_exact_for_point_mass():
    oracle = PointMassOracle(np.array([0.7, -0.3]))
    rng = np.random.default_rng(8)
    for _ in range(10):
        t = float(rng.uniform(0.05, 1.0))
        t2 = t + float(rng.uniform(0.01, 1.0))
        x, x2 = rng.standard_normal(2), rng.standard_normal(2)
        np.testing.assert_allclose(
            corrected_score(t, x, t2, x2, oracle.score), oracle.score(t, x), atol=1e-12
        )


# ---------------------------------------------------------------------------
# fine integration oracle
# ---------------------------------------------------------------------------


def test_fine_step_conditional_law_converges_first_order():
    sched = build_schedule(0.2, 3, 8)
    oracle = GaussianOracle(
        GaussianLaw(mean=np.zeros(2), factor=np.array([[0.5], [0.2]]))
    )
    y = np.array([0.4, -0.6])
    k = 4
    alpha, beta, eta = coefficients(sched, k)
    target_mean = alpha * y + beta * oracle.score(float(sched.taus[k]), y)
    errs_m, errs_v = [], []
    for n in (2, 8, 32, 128):
        mean, var = fine_step_conditional_law(y, k, sched, oracle.score, n)
        errs_m.append(np.linalg.norm(mean - target_mean))
        errs_v.append(abs(var - eta**2))
    rates_m = [math.log(errs_m[i] / errs_m[i + 1]) / math.log(4.0) for i in range(3)]
    rates_v = [math.log(errs_v[i] / errs_v[i + 1]) / math.log(4.0) for i in range(3)]
    assert min(rates_m) >= 0.9
    assert min(rates_v) >= 0.9


def test_fine_integrate_step_matches_its_conditional_law():
    sched = build_schedule(0.2, 2, 6)
    oracle = PointCloudOracle(
        PointCloudMeasure.uniform(np.array([[0.0, 0.0], [0.6, -0.2]]))
    )
    y = np.array([0.3, 0.1])
    k, substeps, n = 2, 16, 40_000
    mean, var = fine_step_conditional_law(y, k, sched, oracle.score, substeps)
    rng = np.random.default_rng(21)
    ys = np.broadcast_to(y, (n, 2)).copy()
    out = fine_integrate_step(ys, k, sched, oracle.score, substeps, rng)
    se_mean = math.sqrt(var / n)
    np.testing.assert_allclose(out.mean(axis=0), mean, atol=4 * se_mean)
    emp_var = out.var(axis=0, ddof=1)
    np.testing.assert_allclose(emp_var, var, atol=4 * var * math.sqrt(2.0 / n))


def test_fine_integrate_requires_substeps():
    sched = build_schedule(0.2, 2, 6)
    with pytest.raises(ValueError):
        fine_integrate_step(np.zeros(2), 0, sched, lambda t, x: x, 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# reverse runs
# ---------------------------------------------------------------------------


def _per_chunk_reference(cfg, oracle):
    """The batch run one chunk at a time, each as the step expression, joined."""
    sched, tab = cfg.schedule, step_table(cfg.schedule, cfg.scheme)
    score = oracle.score if cfg.score_source == "exact" else cfg.score_source.perturb(oracle.score)
    chunks = []
    for i, start in enumerate(range(0, cfg.batch, cfg.chunk_size)):
        rng, n = spawn_rng(cfg.seed, i), min(cfg.chunk_size, cfg.batch - start)
        if cfg.init == "data_pT":
            y = forward_sample(oracle, sched.horizon, rng, n)[1]
        else:
            y = rng.standard_normal((n, oracle.dim))
        for k in range(sched.n_steps):
            tau, alpha, beta, eta = float(sched.taus[k]), *coefficients(sched, k, cfg.scheme)
            y = alpha * y + beta * score(tau, y) + eta * rng.standard_normal(y.shape)
        chunks.append(y)
    return np.concatenate(chunks)


@pytest.mark.parametrize(
    "spec, batch, chunk_size",
    # point-mass: 6 chunks (the last of 100 rows) in blocks of 4 and 2;
    # the control: 7 chunks (the last of 300 rows) in blocks of 4 and 3
    [("point-mass:D=16", 5 * 512 + 100, 512), ("gaussian:D=4,rank=1", 6 * 2048 + 300, 2048)],
)
@pytest.mark.parametrize("scheme", ["corrected", "exponential_integrator"])
def test_run_reverse_blocks_match_a_per_chunk_reference(spec, batch, chunk_size, scheme):
    oracle = build_measure(spec, 3)
    cfg = ReverseRunConfig(
        schedule=build_schedule(0.2, 10, 40), scheme=scheme, batch=batch, seed=5, chunk_size=chunk_size, n_workers=2
    )
    assert run_reverse(cfg, oracle).terminal.tobytes() == _per_chunk_reference(cfg, oracle).tobytes()


def test_run_reverse_blocks_are_worker_invariant_from_data_pT_with_a_bias():
    # D = 8 and 1024-sample chunks: 10 chunks (the last of 17 rows) in blocks of 4, 4 and 2
    oracle = build_measure("gaussian:D=8,rank=2,var=0.25", 2)
    bias = ScorePerturbation(epsilon=0.3, constant=np.linspace(-1.0, 1.0, 8), linear=0.2 * np.eye(8))
    base = dict(
        schedule=build_schedule(0.2, 10, 40), batch=9 * 1024 + 17, seed=6, init="data_pT", score_source=bias
    )
    runs = [run_reverse(ReverseRunConfig(**base, n_workers=w), oracle).terminal.tobytes() for w in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]


def test_standard_normal_into_rows_matches_the_sized_draw():
    # blocks draw each chunk's init and noise into its rows of a wider array
    buf = np.empty((40, 5))
    sized, into = np.random.default_rng(12), np.random.default_rng(12)
    for rows in (slice(3, 20), slice(0, 40), slice(39, 40), slice(7, 8)):
        want = sized.standard_normal((rows.stop - rows.start, 5))
        into.standard_normal(out=buf[rows])
        assert buf[rows].tobytes() == want.tobytes()


def test_run_reverse_deterministic_and_worker_invariant():
    sched = build_schedule(0.25, 2, 6)
    oracle = PointMassOracle(np.array([0.5, -0.5]))
    base = dict(schedule=sched, batch=3000, seed=9, chunk_size=512)
    a = run_reverse(ReverseRunConfig(**base), oracle)
    b = run_reverse(ReverseRunConfig(**base), oracle)
    c = run_reverse(ReverseRunConfig(**base, n_workers=4), oracle)
    assert a.terminal.tobytes() == b.terminal.tobytes()
    assert a.terminal.tobytes() == c.terminal.tobytes()


# The body of the test below, run in a child process: a deadlocked pool task
# would also block interpreter exit, so only a process that can be killed
# bounds the test's time.
_MORE_WORKERS_THAN_POOL_THREADS = """
import os
import sys

from revdiff.measures import PointCloudOracle, make_manifold_cloud, spawn_rng
from revdiff.sampler import ReverseRunConfig, run_reverse
from revdiff.schedule import build_schedule

cloud = make_manifold_cloud("circle", 64, 512, spawn_rng(15, 0))
oracle = PointCloudOracle(cloud)  # 128-row tiles, so each chunk spans 3
# 300 x 64 values fill a block, so each chunk is a block of its own
workers = (os.cpu_count() or 1) + 2
base = dict(schedule=build_schedule(0.25, 2, 6), batch=300 * (workers + 1), seed=4, chunk_size=300)
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)  # switch threads often, so a lost result would show
try:
    pooled = run_reverse(ReverseRunConfig(**base, n_workers=workers), oracle)
finally:
    sys.setswitchinterval(interval)
one = run_reverse(ReverseRunConfig(**base), oracle)
assert pooled.terminal.tobytes() == one.terminal.tobytes()
"""


def test_run_reverse_more_workers_than_pool_threads_matches_one_worker():
    # Pooled blocks run their oracle tiles inline; at one worker the tiles of
    # each block are shared out over the pool instead.  More workers than pool
    # threads must neither deadlock nor change a bit.
    src = os.path.dirname(os.path.dirname(os.path.abspath(revdiff.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _MORE_WORKERS_THAN_POOL_THREADS],
            env=env, capture_output=True, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("pooled run_reverse did not finish within 120 s")
    assert proc.returncode == 0, proc.stderr


def test_run_reverse_writes_chunks_into_one_batch():
    # point-mass:D=16, batch 32768: the terminal is 4 MiB.  Measured peak
    # 1.13x of it (the batch plus each worker's 2048-row block score, which
    # the step reuses for its noise); a list of chunk terminals joined at the
    # end holds the batch twice (2.0x).
    oracle = build_measure("point-mass:D=16")
    cfg = ReverseRunConfig(schedule=build_schedule(0.2, 10, 40), batch=32768, seed=1, n_workers=2)
    run_reverse(cfg, oracle)  # start the pool outside the traced run
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_reverse(cfg, oracle)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 32768 * 16 * 8


def test_run_reverse_needs_a_score_oracle():
    cfg = ReverseRunConfig(schedule=build_schedule(0.25, 2, 6), batch=4)
    with pytest.raises(TypeError, match="ScoreOracle"):
        run_reverse(cfg, lambda t, x: -x)


class _BlowUpOracle(type(PointMassOracle(np.zeros(2)))):
    """Infinite score at time ``tau`` on the rows whose first coordinate exceeds ``limit``."""

    def __init__(self, tau, limit):
        super().__init__(np.zeros(2))
        self.tau, self.limit = tau, limit

    def score(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.where((x[..., :1] > self.limit) & (t == self.tau), np.inf, 0.0) + np.zeros_like(x)


def test_run_reverse_aborts_on_nonfinite_state():
    # two blocks of one 16384-sample chunk each; the first step blows up only
    # rows of the second block, so the error must name a row past the first
    sched, size = build_schedule(0.25, 2, 6), 2**14
    cfg = ReverseRunConfig(schedule=sched, batch=2 * size, seed=3, chunk_size=size)
    first, second = (spawn_rng(3, i).standard_normal((size, 2))[:, 0] for i in (0, 1))
    bad = second > first.max()
    assert bad.any()
    with pytest.raises(FloatingPointError, match=rf"k=0 \(t=.*\) in batch row {size + int(bad.argmax())};"):
        run_reverse(cfg, _BlowUpOracle(float(sched.taus[0]), first.max()))


# ---------------------------------------------------------------------------
# a caller-stepped block's noise, drawn on the pool a step ahead
# ---------------------------------------------------------------------------


def _spy_on_draws_ahead(monkeypatch):
    """Record (item, made on a pool thread) of each call a block hands ``_map_ahead`` at depth 1:
    its init as item -1, then step k's noise as item k."""
    calls, map_ahead = [], sampler._map_ahead

    def spy(fn, items, depth):
        assert depth == 1

        def record(k):
            calls.append((k, threading.current_thread() is not threading.main_thread()))
            return fn(k)

        return map_ahead(record, items, depth)

    monkeypatch.setattr(sampler, "_map_ahead", spy)
    return calls


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "spec, batch, chunk_size, biased",
    # D = 8 at 1024-sample chunks: one block of 4 chunks, the last of 17 rows,
    # from data_pT with a bias; D = 4: one block of one 1500-sample chunk
    [("gaussian:D=8,rank=2,var=0.25", 3 * 1024 + 17, 1024, True), ("gaussian:D=4,rank=1", 1500, 2048, False)],
)
def test_caller_stepped_block_draws_ahead_and_matches_the_per_chunk_reference(
    monkeypatch, spec, batch, chunk_size, biased, workers
):
    oracle = build_measure(spec, 2)
    extra = {}
    if biased:
        bias = ScorePerturbation(epsilon=0.3, constant=np.linspace(-1.0, 1.0, 8), linear=0.2 * np.eye(8))
        extra = dict(init="data_pT", score_source=bias)
    cfg = ReverseRunConfig(
        schedule=build_schedule(0.2, 10, 40), batch=batch, seed=6, chunk_size=chunk_size, n_workers=workers, **extra
    )
    calls = _spy_on_draws_ahead(monkeypatch)
    assert run_reverse(cfg, oracle).terminal.tobytes() == _per_chunk_reference(cfg, oracle).tobytes()
    # the init and every step's noise were drawn on the pool
    assert calls == [(k, True) for k in range(-1, cfg.schedule.n_steps)]


def test_nonfinite_step_on_the_shared_path_names_its_row_and_leaves_no_draw_running(monkeypatch):
    # As test_run_reverse_aborts_on_nonfinite_state: two one-chunk blocks
    # stepped in the caller, the second blowing up at k = 0 once step 1's
    # noise is handed to the pool.  Pool-thread draws take 20 ms more, so a
    # draw left running after the raise would end after it.
    sched, size = build_schedule(0.25, 2, 6), 2**14
    cfg = ReverseRunConfig(schedule=sched, batch=2 * size, seed=3, chunk_size=size)
    first, second = (spawn_rng(3, i).standard_normal((size, 2))[:, 0] for i in (0, 1))
    bad = second > first.max()
    ends = []

    class SlowOnThePool:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, *args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.02)
            try:
                return self.rng.standard_normal(*args, **kwargs)
            finally:
                ends.append(time.perf_counter())

    monkeypatch.setattr(sampler, "spawn_rng", lambda seed, i: SlowOnThePool(spawn_rng(seed, i)))
    calls = _spy_on_draws_ahead(monkeypatch)
    with pytest.raises(FloatingPointError, match=rf"k=0 \(t=.*\) in batch row {size + int(bad.argmax())};"):
        run_reverse(cfg, _BlowUpOracle(float(sched.taus[0]), first.max()))
    raised = time.perf_counter()
    time.sleep(0.1)
    # the first block's init and steps, then the second's init and first two steps, all on the pool
    assert calls == [(k, True) for k in [*range(-1, sched.n_steps), -1, 0, 1]]
    assert len(ends) == (1 + sched.n_steps) + 3  # init and noise draws: a whole block, then init, k = 0 and 1
    assert max(ends) < raised


def test_one_block_caller_run_holds_the_batch_and_two_block_arrays(monkeypatch):
    # point-mass:D=16, batch 2048: one 256 KiB block of two chunks, stepped in
    # the caller.  Measured peak 3.12x of the batch: the batch, the next step's
    # noise drawn into the spent score, and the step's score (one array at this
    # size), with up to 0.18x more for the score GEMM's n x 1 operand (the
    # mean's coefficient, 1/16 of the batch), the finite check's mask, the
    # streams and the pool's bookkeeping.  A noise buffer of its own beside
    # those reads about 4.1x.
    oracle = build_measure("point-mass:D=16")
    cfg = ReverseRunConfig(schedule=build_schedule(0.2, 10, 40), batch=2048, seed=1)
    calls = _spy_on_draws_ahead(monkeypatch)
    run_reverse(cfg, oracle)  # start the pool outside the traced run
    assert calls and all(pooled for _, pooled in calls)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_reverse(cfg, oracle)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * 2048 * 16 * 8


def test_caller_stepped_block_never_draws_a_stream_on_two_threads_and_draws_it_in_step_order(monkeypatch):
    # The control at batch 5000: one block of five 1024-sample chunks, stepped
    # in the caller.  A draw on a pool thread sleeps 3 ms first, so step k's
    # draws are still running when the caller asks for step k + 1's: a second
    # drawing thread, or a hand-off made before step k's draws have finished,
    # would put a chunk's stream on two threads at once or out of step order.
    oracle = build_measure("gaussian:D=4,rank=1")
    cfg = ReverseRunConfig(schedule=build_schedule(0.25, 4, 12), batch=5000, seed=4, chunk_size=1024)
    streams = []  # each chunk stream's generator states: at the start, after its init and after each step's draw
    for i in range(5):
        rng, shape = spawn_rng(cfg.seed, i), (min(1024, 5000 - 1024 * i), 4)
        states = [rng.bit_generator.state["state"]["state"]]
        for _ in range(1 + cfg.schedule.n_steps):
            rng.standard_normal(shape)
            states.append(rng.bit_generator.state["state"]["state"])
        streams.append(states)
    lock, calls = threading.Lock(), []  # (stream, draw index, thread, start, end)

    class Recorded:
        def __init__(self, seed, stream):
            self.stream, self.rng = stream, spawn_rng(seed, stream)

        def standard_normal(self, *args, **kwargs):
            start = time.perf_counter()
            index = streams[self.stream].index(self.rng.bit_generator.state["state"]["state"])
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.003)
            out = self.rng.standard_normal(*args, **kwargs)
            with lock:
                calls.append((self.stream, index, threading.get_ident(), start, time.perf_counter()))
            return out

    monkeypatch.setattr(sampler, "spawn_rng", Recorded)
    assert run_reverse(cfg, oracle).terminal.tobytes() == _per_chunk_reference(cfg, oracle).tobytes()
    assert threading.get_ident() not in {thread for *_, thread, _, _ in calls}  # the pool drew every draw
    for stream in range(5):
        mine = sorted((start, end, index, thread) for s, index, thread, start, end in calls if s == stream)
        assert [index for _, _, index, _ in mine] == list(range(1 + cfg.schedule.n_steps))
        assert len({thread for *_, thread in mine}) == 1
        assert all(end <= start for (_, end, _, _), (start, _, _, _) in zip(mine, mine[1:]))


def test_caller_stepped_blocks_on_more_threads_than_cores_keep_their_bits():
    # Four callers at once, each stepping a one-block batch with its own
    # producer drawing ahead, under a 1 us switch interval: a hand-off that
    # put a step's noise into an array its caller still reads, or lost one,
    # would change the bits or hang.
    oracle = build_measure("gaussian:D=4,rank=1")
    cfgs = [
        ReverseRunConfig(schedule=build_schedule(0.25, 4, 12), batch=5000, seed=seed, chunk_size=1024)
        for seed in range(4)
    ]
    results = [None] * len(cfgs)

    def call(i):
        results[i] = run_reverse(cfgs[i], oracle).terminal

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(cfgs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for cfg, got in zip(cfgs, results):
        assert got.tobytes() == _per_chunk_reference(cfg, oracle).tobytes()


@pytest.mark.parametrize(
    "field, value", [("constant", np.ones(1)), ("constant", np.ones((1, 4))), ("constant", np.ones(3)), ("linear", np.eye(3))]
)
def test_run_reverse_rejects_a_mis_sized_perturbation_before_any_draw(monkeypatch, field, value):
    drawn = []
    monkeypatch.setattr(sampler, "spawn_rng", lambda *args: drawn.append(args))
    bias = ScorePerturbation(epsilon=0.1, **{field: value})
    cfg = ReverseRunConfig(schedule=build_schedule(0.2, 10, 40), batch=5000, score_source=bias)
    with pytest.raises(ValueError, match=rf"ScorePerturbation\.{field} must have shape .* for D = 4, got"):
        run_reverse(cfg, build_measure("gaussian:D=4,rank=1"))
    assert drawn == []


def test_run_reverse_config_validation():
    sched = build_schedule(0.25, 2, 6)
    with pytest.raises(ValueError):
        ReverseRunConfig(schedule=sched, scheme="heun")
    with pytest.raises(ValueError):
        ReverseRunConfig(schedule=sched, batch=0)
    with pytest.raises(ValueError):
        ReverseRunConfig(schedule=sched, init="prior")
    for field, value in (("chunk_size", 0), ("n_workers", 0)):
        with pytest.raises(ValueError, match=field):
            ReverseRunConfig(schedule=sched, **{field: value})
    bad_times = np.array([0.0, 0.5, 0.6])
    bad = TimeSchedule(
        kappa=0.25,
        n_uniform=1,
        n_steps=2,
        horizon=1.1,
        early_stop=0.5,
        times=bad_times,
        gammas=np.diff(bad_times),
        taus=1.1 - bad_times,
    )
    with pytest.raises(ValueError, match="validation"):
        ReverseRunConfig(schedule=bad)


@pytest.mark.parametrize(
    "field, value",
    [("seed", v) for v in (-1, 1.5, "3", True, None)]
    + [(f, v) for f in ("batch", "chunk_size", "n_workers") for v in (0, 2.5, "3", True, None, np.int64(-2))],
)
def test_run_reverse_config_rejects_a_bad_seed_naming_it(field, value):
    # numpy would reject most of these only later, without naming the field; n_workers=2.5 ran silently
    low = 0 if field == "seed" else 1
    with pytest.raises(ValueError, match=rf"ReverseRunConfig\.{field} must be an integer >= {low}, got"):
        ReverseRunConfig(schedule=build_schedule(0.25, 2, 6), **{field: value})
    assert getattr(ReverseRunConfig(schedule=build_schedule(0.25, 2, 6), **{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"epsilon": math.nan}, "epsilon"),
        ({"epsilon": math.inf}, "epsilon"),
        ({"epsilon": 0.1, "constant": [0.0, math.inf]}, "constant"),
        ({"epsilon": 0.1, "constant": [math.nan, 0.0]}, "constant"),
        ({"epsilon": 0.1, "linear": [[1.0, 0.0], [0.0, -math.inf]]}, "linear"),
        ({"epsilon": 0.1, "linear": np.ones(3)}, "linear"),
    ],
)
def test_score_perturbation_rejects_a_bad_field_naming_it(fields, named):
    # a NaN epsilon or an inf constant used to reach kl_experiment, which returned NaN
    with pytest.raises(ValueError, match=rf"ScorePerturbation\.{named} must be"):
        ScorePerturbation(**fields)


def test_point_mass_terminal_moments_match_exact_propagation():
    sched = build_schedule(0.2, 10, 30)
    y0 = np.array([0.8, -0.4, 0.2])
    oracle = PointMassOracle(y0)
    cfg = ReverseRunConfig(schedule=sched, batch=60_000, seed=13)
    res = run_reverse(cfg, oracle)
    law = propagate_affine_reverse(GaussianLaw.point_mass(y0), cfg)
    n = cfg.batch
    sd = np.sqrt(np.diag(law.covariance()))
    np.testing.assert_allclose(res.terminal.mean(axis=0), law.mean, atol=3.5 * sd.max() / math.sqrt(n))
    np.testing.assert_allclose(
        res.terminal.var(axis=0, ddof=1),
        np.diag(law.covariance()),
        rtol=3.5 * math.sqrt(2.0 / n),
    )
    # terminal mean approaches the contracted data point
    c_delta = math.exp(-sched.early_stop)
    assert np.linalg.norm(res.terminal.mean(axis=0) - c_delta * y0) < 0.02


def test_standard_gaussian_terminal_matches_exact_propagation():
    # the scheme is first order here, so the terminal law deviates from
    # N(0, I) at order kappa; the exact affine propagation is the oracle
    sched = build_schedule(0.1, 10, 40)
    law = GaussianLaw.isotropic(2)
    oracle = GaussianOracle(law)
    cfg = ReverseRunConfig(schedule=sched, batch=50_000, seed=17)
    res = run_reverse(cfg, oracle)
    exact = propagate_affine_reverse(law, cfg)
    var_exact = np.diag(exact.covariance())
    np.testing.assert_allclose(
        res.terminal.var(axis=0, ddof=1), var_exact, rtol=3.5 * math.sqrt(2.0 / cfg.batch)
    )
    assert (np.abs(var_exact - 1.0) < 3 * sched.kappa).all()
    assert (var_exact != 1.0).all()


_BIASED = ScorePerturbation(epsilon=0.5, constant=[1.0, -0.5, 0.0], linear=0.5 * np.eye(3))


@pytest.mark.parametrize(
    "init, bias",
    [("data_pT", None), ("standard_normal", _BIASED), ("data_pT", _BIASED)],
    ids=["data_pT", "perturbed", "perturbed-data_pT"],
)
def test_terminal_moments_match_exact_propagation_on_each_sampler_path(init, bias):
    # the data_pT start and a perturbed score: each coordinate's terminal mean
    # and variance within 5 standard errors of the exact affine propagation
    law = GaussianLaw(mean=np.array([1.0, 0.0, -0.5]), factor=np.array([[1.0], [0.5], [0.0]]), diag_floor=0.01)
    source = "exact" if bias is None else bias
    cfg = ReverseRunConfig(schedule=build_schedule(0.2, 2, 20), batch=40_000, seed=29, init=init, score_source=source)
    res = run_reverse(cfg, GaussianOracle(law))
    exact = propagate_affine_reverse(law, cfg)
    var, n = np.diag(exact.covariance()), cfg.batch
    se_mean = np.sqrt(var / n)
    assert (np.abs(res.terminal.mean(axis=0) - exact.mean) <= 5 * se_mean).all()
    assert (np.abs(res.terminal.var(axis=0, ddof=1) - var) <= 5 * var * math.sqrt(2.0 / (n - 1))).all()
    # at T = 1.4 both the start law and the bias move the terminal mean more
    # than 10 standard errors from the plain run's, so the check has power
    plain = propagate_affine_reverse(law, ReverseRunConfig(schedule=cfg.schedule))
    assert (np.abs(plain.mean - exact.mean) / se_mean).max() > 10


def test_coordinate_decoupling_on_product_data():
    two = PointCloudOracle(
        PointCloudMeasure.uniform(np.array([[-0.5], [0.5]]))
    )
    prod = ProductOracle([(two, [0]), (PointMassOracle(np.zeros(1)), [1])])
    sched = build_schedule(0.2, 5, 15)
    cfg = ReverseRunConfig(schedule=sched, batch=40_000, seed=23)
    res = run_reverse(cfg, prod)
    x, y = res.terminal[:, 0], res.terminal[:, 1]
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(cfg.batch)


def test_score_perturbation_shapes_and_scaling():
    pert = ScorePerturbation(epsilon=0.1, constant=np.array([1.0, 0.0]))
    x = np.zeros((4, 2))
    np.testing.assert_allclose(pert(0.5, x), 0.1 * np.array([1.0, 0.0]) * np.ones((4, 1)))
    lin = ScorePerturbation(epsilon=2.0, linear=np.eye(2))
    np.testing.assert_allclose(lin(0.5, np.ones((3, 2))), 2.0 * np.ones((3, 2)))
    with pytest.raises(ValueError):
        ScorePerturbation(epsilon=0.1, linear=np.ones((2, 3)))


def test_save_batch_writes_header_and_rows(tmp_path):
    sched = build_schedule(0.25, 2, 6)
    oracle = PointMassOracle(np.zeros(2))
    cfg = ReverseRunConfig(schedule=sched, batch=8, seed=3)
    res = run_reverse(cfg, oracle)
    path = tmp_path / "batch.txt"
    save_batch(path, res, extra_meta={"note": "test"})
    lines = path.read_text().splitlines()
    assert any(line.startswith("# seed = 3") for line in lines)
    data = [line for line in lines if not line.startswith("#")]
    assert len(data) == 8 and len(data[0].split()) == 2


@pytest.mark.parametrize("module", ["revdiff.schedule", "revdiff.measures", "revdiff.sampler", "revdiff.metrics", "revdiff.harness"])
def test_public_annotations_resolve(module):
    # Annotations are strings under `from __future__ import annotations`, so
    # a name missing from the module shows only when they are resolved.
    mod = importlib.import_module(module)
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            typing.get_type_hints(obj)
