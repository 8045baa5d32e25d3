"""The three benchmark workloads, run in a process of their own by run.py.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR
    python3 bench/workloads.py --workload NAME --seed N --work DIR --setup-only

Every pass of a workload does the same work on the same inputs, all derived
from ``--seed``.  Later passes must reproduce the first pass's output hashes
bit for bit.  Each unit of work is an *operation*; it fails if
it raises, returns a non-finite value, misses its correctness check or does
not reproduce.

With ``--trace 1`` untraced and traced passes alternate; end-to-end figures
come from the untraced ones and per-layer figures from the traced ones.  The
last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

import tracing

WORKERS = 2
SCHEMES = ("corrected", "exponential_integrator")
# |z| beyond this many standard errors fails a statistical check.
Z_BAND = 5.0
MIN_PASSES = 3

# Sizes; every run at every seed uses these.
CLOUD_BATCH, CLOUD_CHUNK = 256, 128
GAUSS_BATCH, GAUSS_CHUNK = 4096, 512
LEMMA_N = 2000
# martingale (12) + monotonicity (12) + concentration (1) cases draw n paths each
LEMMA_MC_CASES = 25
CONC_N, CONC_TIMES = 2000, (1e-3, 1e-2, 1e-1)
METER_N = 100
CTRL_BATCH, CTRL_CHUNK = 16384, 2048
CTRL_METER_N, CTRL_METER_PARTS = 2500, 6
D_SWEEP = (4, 16, 64, 256, 1024, 2048)
K_SWEEP_HALVINGS = 5  # kappa 0.2 ... 0.00625: K = 121 ... 3657
CTRL_K_HALVINGS = 5
C7_FACTOR_RANGE = (1.7, 2.3)


def load():
    """Import revdiff; everything is then called through module attributes,
    so the tracer's wrappers apply while it is installed."""
    from revdiff import harness, measures, metrics, sampler, schedule

    return types.SimpleNamespace(
        harness=harness, measures=measures, metrics=metrics, sampler=sampler, schedule=schedule
    )


# ---------------------------------------------------------------------------
# Per-pass accounting
# ---------------------------------------------------------------------------


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class Pass:
    """Operations, failures, timers and output hashes of one workload pass."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.time = {"sample": 0.0, "mc": 0.0, "exact": 0.0}
        self.work = {"sample": 0, "mc": 0, "exact": 0}
        self.extra = {"sampler.speedup_2w": 0.0, "harness.output_bytes": 0, "harness.lemma_suite.gate_failures": 0}
        self.last_elapsed = 0.0
        self.wall = 0.0

    def _reproduce(self, name, digest):
        self.digests[name] = digest
        if self.reference is not None and self.reference.get(name) != digest:
            return "output differs from the first pass at the same seed"
        return None

    def op(self, name, kind, work, fn, check=None, digest=None):
        """Run one timed operation; returns its output, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a raising operation is a counted failure
            self.last_elapsed = 0.0
            self.failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
            return None
        self.last_elapsed = time.perf_counter() - start
        if kind is not None:
            self.time[kind] += self.last_elapsed
            self.work[kind] += work
        try:
            problem = check(out) if check is not None else None
            if problem is None and digest is not None:
                problem = self._reproduce(name, digest(out))
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{name}: {problem}")
        return out

    def check(self, name, fn):
        """A correctness check over earlier outputs, counted as an operation."""
        return self.op(name, None, 0, lambda: None, check=lambda _: fn())


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _finite_report(rep):
    vals = [rep.value, rep.stderr] + [v for row in rep.components or () for v in row[2:]]
    return None if all(math.isfinite(v) for v in vals) else "non-finite report"


def _report_digest(rep):
    return _sha(rep.value, rep.stderr, rep.components, sorted(rep.extras.items()))


def _terminal_digest(result):
    return _sha(np.ascontiguousarray(result.terminal).tobytes())


def _law_digest(law):
    return _sha(law.mean.tobytes(), np.ascontiguousarray(law.factor).tobytes(), law.diag_floor)


def _cloud_moments_check(oracle, sched):
    """Terminal mean and second moment against the cloud noised to delta.

    Discretization bias of the second moment is about 0.01 at K=40 for the
    circle and torus; at batch 256 that is under half a standard error.
    """
    delta = sched.early_stop
    c, s2 = math.exp(-delta), -math.expm1(-2.0 * delta)
    pts, w = oracle.cloud.points, oracle.cloud.weights
    mean = c * (w @ pts)
    second = c * c * float(w @ (pts * pts).sum(axis=1)) + oracle.dim * s2

    def check(result):
        y = result.terminal
        if not np.isfinite(y).all():
            return "non-finite terminal sample"
        n = len(y)
        z_mean = (y.mean(axis=0) - mean) / (y.std(axis=0, ddof=1) / math.sqrt(n))
        q = (y * y).sum(axis=1)
        z_q = (q.mean() - second) / (q.std(ddof=1) / math.sqrt(n))
        worst = max(float(np.abs(z_mean).max()), abs(float(z_q)))
        return None if worst <= Z_BAND else f"terminal moments off by {worst:.2f} stderr"

    return check


def _gaussian_moments_problem(result, law):
    """Sample mean and trace-covariance against the exact terminal law."""
    if result is None:
        return "no sample to compare"
    y = result.terminal
    if not np.isfinite(y).all():
        return "non-finite terminal sample"
    fac, floor = law.factor, law.diag_floor
    var = (fac * fac).sum(axis=1) + floor
    n = len(y)
    z_mean = (y.mean(axis=0) - law.mean) / np.sqrt(var / n)
    dev = ((y - law.mean) ** 2).sum(axis=1)
    gram = fac.T @ fac
    tr = float(var.sum())
    tr_sq = float((gram * gram).sum() + 2.0 * floor * np.trace(gram) + law.dim * floor * floor)
    z_tr = (float(dev.mean()) - tr) / math.sqrt(2.0 * tr_sq / n)
    worst = max(float(np.abs(z_mean).max()), abs(z_tr))
    return None if worst <= Z_BAND else f"sample vs exact terminal law off by {worst:.2f} stderr"


def _c7_problem(rows):
    budgets = [r[0] for r in rows]
    factors = [budgets[i] / budgets[i + 1] for i in range(len(budgets) - 1)]
    lo, hi = C7_FACTOR_RANGE
    bad = [f for f in factors if not lo <= f <= hi]
    return None if not bad else f"C7 budget factors {bad} outside [{lo}, {hi}]"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Fixed inputs built at set-up, the workload's steps and the shared control.

    Every pass also runs the same small control on ``gaussian:D=4,rank=1``: a
    sampled run checked against the exact terminal law, the Monte Carlo meter
    checked against the exact meter, and a short K-refinement.  It makes every
    end-to-end rate defined on every workload; where a workload's own steps
    do no work of a kind, that rate measures only the control, which
    bypasses the point-cloud kernel.
    """

    def __init__(self, rv, seed, work_dir):
        self.rv = rv
        self.seed = seed
        self.work_dir = work_dir
        self.sched = rv.schedule.build_schedule(0.2, 10, 40)
        self.ctrl = rv.harness.build_measure("gaussian:D=4,rank=1", seed)

    def steps(self, p: Pass, state: dict) -> list:
        """The workload's own steps, each a callable running operations on p."""
        raise NotImplementedError

    def run_pass(self, p: Pass):
        """Run the workload's steps with the control's steps spread evenly
        between them.  Load from outside comes in bursts of seconds, so a rate
        fed only by the control is sampled across the whole pass rather than
        at one moment of it."""
        state = {}
        own, control = self.steps(p, state), self.control_steps(p, state)
        done = 0
        for i, step in enumerate(own):
            step()
            while done < len(control) * (i + 1) // len(own):
                control[done]()
                done += 1

    def config(self, scheme, batch, chunk, workers=WORKERS):
        return self.rv.sampler.ReverseRunConfig(
            schedule=self.sched, scheme=scheme, batch=batch, seed=self.seed, n_workers=workers, chunk_size=chunk
        )

    def sample(self, p, name, oracle, cfg, check):
        """One run_reverse operation; returns (result, seconds)."""
        result = p.op(
            name,
            "sample",
            cfg.batch * cfg.schedule.n_steps,
            lambda: self.rv.sampler.run_reverse(cfg, oracle),
            check=check,
            digest=_terminal_digest,
        )
        return result, p.last_elapsed

    def sample_gaussian(self, p, name, oracle, law, cfg):
        """A run checked against its exact terminal law; returns (result, seconds)."""

        def finite(result):
            return None if np.isfinite(result.terminal).all() else "non-finite terminal sample"

        result, elapsed = self.sample(p, name, oracle, cfg, finite)
        p.op(
            f"{name}.exact_law",
            "exact",
            1,
            lambda: self.rv.metrics.propagate_affine_reverse(law, cfg),
            check=lambda exact: _gaussian_moments_problem(result, exact),
            digest=_law_digest,
        )
        return result, elapsed

    def paired(self, p, name, oracle, cfg2, result2, elapsed2):
        """Rerun a 2-worker run at 1 worker; the batches must be bit-identical."""
        cfg1 = self.config(cfg2.scheme, cfg2.batch, cfg2.chunk_size, workers=1)

        def identical(result1):
            if result2 is None or not np.array_equal(result1.terminal, result2.terminal):
                return "1-worker and 2-worker terminal batches differ"
            return None

        _, elapsed1 = self.sample(p, f"{name}.1worker", oracle, cfg1, identical)
        if elapsed1 > 0 and elapsed2 > 0:
            p.extra["sampler.speedup_2w"] = elapsed1 / elapsed2

    def k_sweep_steps(self, p, name, oracle, halvings):
        """Exact meter and discretization KL as kappa halves (criterion C7)."""
        metrics, harness = self.rv.metrics, self.rv.harness
        rows = []

        def evals(kappa):
            sched = harness.resolve_schedule({"kappa": kappa, "horizon": 10.0, "delta": 1e-6})
            budget = metrics.discretization_error_meter(oracle, sched, 0, None, mode="exact").value
            cfg = self.rv.sampler.ReverseRunConfig(schedule=sched, seed=self.seed, init="data_pT")
            return budget, metrics.kl_experiment(oracle.law, cfg).value

        def step(kappa):
            rows.append(
                p.op(
                    f"{name}.kappa={kappa:g}",
                    "exact",
                    2,
                    lambda: evals(kappa),
                    check=lambda r: None if all(math.isfinite(v) and v > 0 for v in r) else "bad value",
                    digest=_sha,
                )
            )

        steps = [functools.partial(step, 0.2 / 2**i) for i in range(halvings + 1)]
        return steps + [lambda: p.check(f"{name}.C7", lambda: _c7_problem(rows))]

    def control_steps(self, p, state):
        """The shared control; its run is kept in state["control_run"]."""
        metrics, measures = self.rv.metrics, self.rv.measures
        cfg = self.config("corrected", CTRL_BATCH, CTRL_CHUNK)

        def run():
            result, elapsed = self.sample_gaussian(p, "control.run_reverse", self.ctrl, self.ctrl.law, cfg)
            state["control_run"] = ("control.run_reverse", self.ctrl, cfg, result, elapsed)

        def meter_exact():
            state["meter_exact"] = p.op(
                "control.meter_exact",
                "exact",
                1,
                lambda: metrics.discretization_error_meter(self.ctrl, self.sched, 0, None, mode="exact"),
                check=_finite_report,
                digest=_report_digest,
            )

        def agrees(rep):
            exact = state.get("meter_exact")
            problem = _finite_report(rep)
            if problem or exact is None:
                return problem or "no exact meter to compare"
            z = (rep.value - exact.value) / rep.stderr
            return None if abs(z) <= Z_BAND else f"MC meter off the exact meter by {z:.2f} stderr"

        def meter_mc(part):
            p.op(
                f"control.meter_mc.{part}",
                "mc",
                CTRL_METER_N * self.sched.n_steps,
                lambda: metrics.discretization_error_meter(
                    self.ctrl, self.sched, CTRL_METER_N, measures.spawn_rng(self.seed, 1021 + part)
                ),
                check=agrees,
                digest=_report_digest,
            )

        mc = [functools.partial(meter_mc, part) for part in range(CTRL_METER_PARTS)]
        *k_sweep, c7 = self.k_sweep_steps(p, "control.K_sweep", self.ctrl, CTRL_K_HALVINGS)
        # alternate the Monte Carlo and exact steps so both spread over the pass
        alternating = [step for pair in zip(mc, k_sweep) for step in pair]
        return [run, meter_exact, *alternating, c7]


class CloudSample(Workload):
    """run_reverse with both schemes on the 2048-point circle and torus."""

    def __init__(self, rv, seed, work_dir):
        super().__init__(rv, seed, work_dir)
        self.clouds = [
            ("circle", rv.harness.build_measure("circle:D=2,n=2048", seed)),
            ("torus", rv.harness.build_measure("torus:D=4,d=2,n=2048", seed)),
        ]

    def steps(self, p, state):
        def run(label, oracle, scheme):
            cfg = self.config(scheme, CLOUD_BATCH, CLOUD_CHUNK)
            result, elapsed = self.sample(p, f"{label}.{scheme}", oracle, cfg, _cloud_moments_check(oracle, self.sched))
            state.setdefault("first", (f"{label}.{scheme}", oracle, cfg, result, elapsed))

        runs = [functools.partial(run, label, oracle, s) for label, oracle in self.clouds for s in SCHEMES]
        return runs + [lambda: self.paired(p, *state["first"])]


class McChecks(Workload):
    """Lemma suite, concentration curves and the Monte Carlo meter on clouds."""

    def __init__(self, rv, seed, work_dir):
        super().__init__(rv, seed, work_dir)
        self.circle = rv.harness.build_measure("circle:D=2,n=2048", seed)
        self.torus = rv.harness.build_measure("torus:D=4,d=2,n=2048", seed)

    def steps(self, p, state):
        rv, seed = self.rv, self.seed
        spawn = rv.measures.spawn_rng

        def lemma_problem(out):
            rows, _ = out
            for check, case, value, stderr, z, _passed in rows:
                if not (math.isfinite(value) and math.isfinite(stderr) and math.isfinite(z)):
                    return f"non-finite row {check} {case}"
                if check == "martingale" and abs(z) > Z_BAND:
                    return f"martingale {case} z={z:.2f} outside +-{Z_BAND}"
                if check == "monotonicity" and z < -Z_BAND:
                    return f"monotonicity {case} z={z:.2f} below -{Z_BAND}"
            return None

        def lemma():
            out = p.op(
                "lemma_suite",
                "mc",
                LEMMA_MC_CASES * LEMMA_N,
                lambda: rv.harness.lemma_suite(seed, n=LEMMA_N, workers=WORKERS),
                check=lemma_problem,
                digest=_sha,
            )
            if out is not None:
                p.extra["harness.lemma_suite.gate_failures"] = sum(1 for row in out[0] if not row[5])

        def concentration_problem(rep):
            problem = _finite_report(rep)
            if problem:
                return problem
            if any(v > 1.0 + Z_BAND * se for (_, _, v, se) in rep.components):
                return "curve above the unit-diameter bound"
            z = rep.extras["min_increment_z"]
            return None if z >= -Z_BAND else f"curve decreases, increment z={z:.2f}"

        def concentration(label, oracle, stream):
            p.op(
                f"concentration.{label}",
                "mc",
                CONC_N,
                lambda: rv.metrics.concentration_curve(oracle, CONC_TIMES, CONC_N, spawn(seed, stream)),
                check=concentration_problem,
                digest=_report_digest,
            )

        def meter_problem(rep):
            problem = _finite_report(rep)
            if problem:
                return problem
            return None if all(row[2] >= 0 for row in rep.components) else "negative step term"

        def meter():
            p.op(
                "meter_mc.circle",
                "mc",
                METER_N * self.sched.n_steps,
                lambda: rv.metrics.discretization_error_meter(self.circle, self.sched, METER_N, spawn(seed, 1013)),
                check=meter_problem,
                digest=_report_digest,
            )

        return [
            lemma,
            functools.partial(concentration, "circle", self.circle, 1011),
            functools.partial(concentration, "torus", self.torus, 1012),
            meter,
            # the control's run has started by now (its first steps follow the first step here)
            lambda: self.paired(p, *state["control_run"]),
        ]


class GaussianExact(Workload):
    """Cheap-oracle sampling, exact Gaussian accounting and the README CLI."""

    def __init__(self, rv, seed, work_dir):
        super().__init__(rv, seed, work_dir)
        build = rv.harness.build_measure
        self.g64 = build("gaussian:D=64,rank=4", seed)
        self.pm16 = build("point-mass:D=16", seed)
        self.g8 = build("gaussian:D=8,rank=2,var=0.25", seed)
        self.g256 = build("gaussian:D=256,rank=2,var=0.25", seed)
        self.ref_sched = rv.harness.resolve_schedule({"kappa": 0.1, "horizon": 10.0, "delta": 1e-6})
        self.cli_dir = Path(work_dir) / "cli"

    def steps(self, p, state):
        point_mass_law = self.rv.measures.GaussianLaw.point_mass(self.pm16.point)

        def run(label, oracle, law, scheme):
            cfg = self.config(scheme, GAUSS_BATCH, GAUSS_CHUNK)
            result, elapsed = self.sample_gaussian(p, f"{label}.{scheme}", oracle, law, cfg)
            state.setdefault("first", (f"{label}.{scheme}", oracle, cfg, result, elapsed))

        laws = (("gaussian64", self.g64, self.g64.law), ("point_mass16", self.pm16, point_mass_law))
        runs = [functools.partial(run, *law, s) for law in laws for s in SCHEMES]
        return [
            *runs,
            lambda: self.paired(p, *state["first"]),
            *self.d_sweep_steps(p),
            *self.k_sweep_steps(p, "K_sweep", self.g8, K_SWEEP_HALVINGS),
            *self.dense_steps(p),
            functools.partial(self.cli, p),
        ]

    def d_sweep_steps(self, p):
        """Terminal KL flat in the ambient dimension (criterion C6)."""
        rv, sched = self.rv, self.ref_sched
        metrics = rv.metrics
        rows = []

        def evals(D):
            law = rv.harness.build_measure(f"gaussian:D={D},rank=2,var=0.25", self.seed).law
            cfg = rv.sampler.ReverseRunConfig(schedule=sched, seed=self.seed)
            cfg_disc = rv.sampler.ReverseRunConfig(schedule=sched, seed=self.seed, init="data_pT")
            total = metrics.kl_experiment(law, cfg).value
            disc = metrics.kl_experiment(law, cfg_disc).value
            init = metrics.gaussian_kl(metrics.marginal_law(law, sched.horizon), rv.measures.GaussianLaw.isotropic(D))
            return total, disc, init

        def step(D):
            rows.append(
                p.op(
                    f"D_sweep.D={D}",
                    "exact",
                    3,
                    lambda: evals(D),
                    check=lambda r: None if all(math.isfinite(v) for v in r) else "non-finite KL",
                    digest=_sha,
                )
            )

        def c6():
            totals, inits = [r[0] for r in rows], [r[2] for r in rows]
            spread, bound = max(totals) - min(totals), 1e-6 + max(inits) - min(inits)
            return None if spread <= bound else f"C6 KL spread {spread:.3g} > {bound:.3g}"

        return [functools.partial(step, D) for D in D_SWEEP] + [lambda: p.check("D_sweep.C6", c6)]

    def dense_steps(self, p):
        """Dense linear-bias path at D=256 and the score-error budget."""
        rv, sched, law = self.rv, self.sched, self.g256.law
        metrics, Perturbation = rv.metrics, rv.sampler.ScorePerturbation
        eye = np.eye(law.dim)
        direction = np.zeros(self.ctrl.dim)
        direction[0] = 1.0

        def dense_vs_channels():
            zero_bias = rv.sampler.ReverseRunConfig(schedule=sched, score_source=Perturbation(0.0, linear=eye))
            dense = metrics.kl_experiment(law, zero_bias).value
            channels = metrics.kl_experiment(law, rv.sampler.ReverseRunConfig(schedule=sched)).value
            return dense, channels

        def budget_problem(rep):
            vals = [rep.value] + list(rep.extras.values())
            if not all(math.isfinite(v) for v in vals) or rep.value <= 0:
                return "bad budget report"
            return None

        def dense():
            p.op(
                "dense.D=256",
                "exact",
                2,
                dense_vs_channels,
                check=lambda r: None
                if abs(r[0] - r[1]) <= 1e-6 * abs(r[1])
                else f"dense KL {r[0]!r} != channel KL {r[1]!r}",
                digest=_sha,
            )

        def budget_linear():
            p.op(
                "budget.dense_linear",
                "exact",
                1,
                lambda: metrics.score_error_budget(law, Perturbation(0.01, linear=eye), sched),
                check=budget_problem,
                digest=_report_digest,
            )

        def budget_constant():
            p.op(
                "budget.constant",
                "exact",
                2,
                lambda: [
                    metrics.score_error_budget(self.ctrl.law, Perturbation(eps, constant=direction), sched)
                    for eps in (0.01, 0.02)
                ],
                check=lambda r: budget_problem(r[0])
                or budget_problem(r[1])
                or (None if abs(r[1].value / r[0].value - 4.0) <= 1e-9 else "budget not quadratic in eps"),
                digest=lambda r: _sha(*(_report_digest(x) for x in r)),
            )

        return [dense, budget_linear, budget_constant]

    def cli(self, p):
        """The README's schedule, kl, meter --mode exact and sweep commands."""
        out = self.cli_dir
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        seed = str(self.seed)
        commands = [
            ["schedule", "--kappa", "0.25", "--L", "4", "--K", "8"],
            ["kl", "--kappa", "0.1", "--L", "90", "--K", "235", "--measure", "gaussian:D=8,rank=2,var=0.25", "--seed", seed],
            ["meter", "--kappa", "0.2", "--L", "10", "--K", "40", "--measure", "gaussian:D=4,rank=1", "--mode", "exact", "--out", str(out), "--seed", seed],
            ["sweep", "--preset", "d-sweep", "--kappa", "0.1", "--horizon", "10", "--delta", "1e-6", "--out", str(out), "--seed", seed],
        ]
        stdout = {}
        for argv in commands:
            buf = io.StringIO()

            def call(argv=argv, buf=buf):
                with contextlib.redirect_stdout(buf):
                    return self.rv.harness.cli(argv)

            p.op(f"cli.{argv[0]}", None, 0, call, check=lambda code: None if code == 0 else f"exit code {code}")
            stdout[argv[0]] = buf.getvalue()

        def kl_problem():
            fields = dict(line.split(" = ", 1) for line in stdout["kl"].splitlines() if " = " in line)
            value = float(fields.get("value", "nan"))
            return None if math.isfinite(value) and value > 0 else f"kl printed value {value!r}"

        def c5_problem():
            payload = json.loads((out / "d-sweep.json").read_text())
            summary, last = payload["summary"], payload["rows"][-1]
            r2, intercept = summary["fit_r2"], summary["fit_intercept"]
            if r2 >= 0.99 and abs(intercept) <= 0.05 * last[2]:
                return None
            return f"C5 fit R^2 {r2:.6f}, intercept {intercept:.3g} vs 5% of d=8 value {0.05 * last[2]:.3g}"

        files = sorted(f for f in out.iterdir() if f.is_file())
        blob = [stdout[argv[0]].encode() for argv in commands] + [f.name.encode() + f.read_bytes() for f in files]
        p.extra["harness.output_bytes"] = sum(len(b) for b in blob)
        p.check("cli.kl_value", kl_problem)
        p.check("cli.sweep_C5", c5_problem)
        p.check("cli.outputs_reproducible", lambda: p._reproduce("cli.outputs", _sha(*blob)))


WORKLOADS = {"cloud-sample": CloudSample, "mc-checks": McChecks, "gaussian": GaussianExact}


# ---------------------------------------------------------------------------
# Measurement loop
# ---------------------------------------------------------------------------


RATES = {"sample": "sample_steps_per_s", "mc": "mc_samples_per_s", "exact": "exact_evals_per_s"}


def _rates(p: Pass) -> dict:
    rates = {RATES[k]: p.work[k] / p.time[k] if p.time[k] > 0 else 0.0 for k in RATES}
    return {"wall_s": p.wall, **rates}


def end_to_end(passes) -> dict:
    """wall_s is the median pass time; a rate is its work over its time,
    both summed over all passes of the run."""
    out = {"wall_s": statistics.median(p.wall for p in passes)}
    for kind, metric in RATES.items():
        secs = sum(p.time[kind] for p in passes)
        out[metric] = sum(p.work[kind] for p in passes) / secs if secs > 0 else 0.0
    return out


def _median_dict(dicts):
    keys = sorted(set().union(*dicts)) if dicts else []
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


def measure(workload, seconds, trace, trace_path):
    """Run passes until the next one would end after ``seconds``.

    The first pass sets the reference output hashes and is timed like the
    others.  With tracing, untraced and traced passes alternate."""
    tracer = tracing.Tracer() if trace else None
    timed = []
    min_passes = MIN_PASSES * (2 if trace else 1)
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(timed) % 2 == 1
        p = Pass(timed[0][1].digests if timed else None)
        if traced:
            tracer.run_id = f"pass{len(timed)}"
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload.run_pass(p)
        finally:
            p.wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        timed.append((traced, p))
        elapsed = time.perf_counter() - start
        typical = statistics.median(q.wall for _, q in timed)
        if len(timed) >= min_passes and elapsed + typical > seconds:
            break

    passes = [p for _, p in timed]
    plain = [p for traced, p in timed if not traced]
    result = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(len(p.failures) for p in passes),
        "failures": [f for p in passes for f in p.failures][:50],
        "passes": [{"traced": t, "wall_s": p.wall, **_rates(p), **p.work} for t, p in timed],
        "metrics": end_to_end(plain),
        "layers": None,
    }
    if trace:
        by_run = {}
        for span in tracer.spans:
            by_run.setdefault(span[tracing.RUN], []).append(span)
        per_pass = [
            {**tracing.layer_metrics(by_run.get(f"pass{i}", [])), **p.extra}
            for i, (traced, p) in enumerate(timed)
            if traced
        ]
        layers = _median_dict(per_pass)
        wall_plain = statistics.median(p.wall for p in plain)
        wall_traced = statistics.median(p.wall for traced, p in timed if traced)
        layers["trace_overhead_pct"] = 100.0 * (wall_traced - wall_plain) / wall_plain
        result["layers"] = layers
        tracer.write(trace_path)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="directory for output files")
    ap.add_argument("--setup-only", action="store_true", help="time import plus set-up and exit")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    rv = load()
    workload = WORKLOADS[args.workload](rv, args.seed, args.work)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(args.work, exist_ok=True)
    trace_path = os.path.join(args.work, "trace.jsonl")
    result = measure(workload, args.seconds, args.trace, trace_path)
    result["workers"] = WORKERS
    result["numpy"] = np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy builds without the dict form
        result["blas"] = None
    result["setup_s_in_process"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
