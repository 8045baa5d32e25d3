"""Experiment presets, config handling and the command-line interface.

Every run is a pure function of (config, seed): output files
carry no timestamps, floats are printed at full precision, and Monte Carlo
work is split over deterministic derived streams.  Presets reproduce the
scaling behaviors of the corrected scheme: linearity of the error in the
data's intrinsic dimension, flatness in the ambient dimension, the O(1/K)
decay of the discretization budget, and the lemma-level structure checks.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import _record, _svg, metrics
from ._pool import _pool_size, map_streams, spawn_rng
from .measures import (
    GaussianLaw,
    GaussianOracle,
    PointCloudMeasure,
    PointCloudOracle,
    PointMassOracle,
    forward_sample,
    log_marginal_gradient,
    make_manifold_cloud,
    random_frame,
)
from .sampler import ReverseRunConfig, ScorePerturbation, run_reverse, save_batch
from .schedule import (
    MAX_STEPS,
    build_schedule,
    schedule_from_text,
    schedule_to_text,
    validate_schedule,
)

__all__ = ["ExperimentConfig", "run_experiment", "build_measure", "cli"]


# ---------------------------------------------------------------------------
# Config and measure construction
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Fully resolved description of one experiment run."""

    name: str
    seed: int = 0
    out_dir: str = "runs"
    schedule: dict = field(default_factory=dict)
    perturbation: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def echo(self) -> dict:
        out = {"name": self.name, "seed": self.seed}
        for section in ("schedule", "perturbation", "options"):
            for key, val in sorted(getattr(self, section).items()):
                out[f"{section}.{key}"] = val
        return out


# Keys each config section accepts (case-insensitive); [options] keys are
# checked per preset by run_experiment.
_CONFIG_KEYS = {
    "experiment": ("seed",),
    "schedule": ("kappa", "l", "k", "horizon", "delta"),
    "perturbation": ("constant",),
    "options": None,
}


def load_config(path: str) -> ExperimentConfig:
    """Read the sectioned key-value config format.

    Sections: [experiment] (seed), [schedule] (kappa, L, K, horizon,
    delta), [perturbation] (constant), [options].  Any other section or key,
    and a key repeated in another case outside [options], is rejected with a
    ValueError naming it; the preset and the output directory come from the
    command line, so the returned config's name is empty.
    Schedule fields are never defaulted: kappa, and either (L, K) or
    (horizon, delta), must be given explicitly whenever a schedule is needed.
    """
    # values are plain text: no %-interpolation, which raised on a bare '%'
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # [options] keep their case: D (ambient) and d (intrinsic) differ
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {path!r}: {exc}") from None
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    for name in parser.sections():
        if name not in _CONFIG_KEYS:
            keys = ", ".join(f"{name}.{k}" for k in parser[name]) or "no keys"
            raise ValueError(f"unknown config section [{name}] ({keys}); expected {tuple(_CONFIG_KEYS)}")
        allowed, seen = _CONFIG_KEYS[name], {}
        for key in parser[name] if allowed is not None else ():
            if key.lower() not in allowed:
                raise ValueError(f"unknown config key {name}.{key}; expected one of {allowed}")
            if seen.setdefault(key.lower(), key) != key:
                raise ValueError(f"config key {name}.{key} repeats {name}.{seen[key.lower()]} in another case")
    lower = {name: {k.lower(): v for k, v in parser[name].items()} for name in parser.sections()}
    seed = _checked(lower.get("experiment", {}).get("seed", 0), _SEED, "config key experiment.seed")
    cfg = ExperimentConfig(name="", seed=seed)
    for section in ("schedule", "perturbation"):
        getattr(cfg, section).update(lower.get(section, {}))
    if "options" in parser:
        cfg.options.update(parser["options"])
    return cfg


def resolve_schedule(fields: dict):
    """Build a schedule from explicit (kappa, L, K) or (kappa, horizon, delta).

    The one reader of a schedule: every command's flags and every config's
    [schedule] section come through here.  Keys are case-insensitive, so L
    and K may be given in either case.  There are no fallback values:
    missing parameters are an error, and a value that does not convert or
    is out of range (kappa in (0, 1/4], horizon > 1, delta in (0, 1), at
    most ``MAX_STEPS`` steps) raises a ValueError naming ``schedule.<key>``.
    """
    low = {str(k).lower(): v for k, v in fields.items()}
    if "kappa" not in low:
        raise ValueError("schedule requires an explicit kappa")
    kappa = _schedule_field(low, "kappa")
    if "l" in low or "k" in low:
        if "l" not in low or "k" not in low:
            raise ValueError("schedule requires both L and K when either is given")
        if "horizon" in low or "delta" in low:
            raise ValueError("schedule takes (L, K) or (horizon, delta), not both")
        return build_schedule(kappa, _schedule_field(low, "l"), _schedule_field(low, "k"))
    if "horizon" in low and "delta" in low:
        horizon = _schedule_field(low, "horizon")
        delta = _schedule_field(low, "delta")
        uniform = (horizon - 1.0) / kappa
        geometric = math.log(1.0 / delta) / math.log1p(kappa)
        if not uniform + geometric <= MAX_STEPS:
            raise ValueError(
                f"schedule.horizon = {horizon!r} and schedule.delta = {delta!r} need about "
                f"{uniform + geometric:.3g} steps at kappa = {kappa!r}; K must be at most {MAX_STEPS}"
            )
        L = max(1, round(uniform))
        return build_schedule(kappa, L, L + max(1, round(geometric)))
    raise ValueError("schedule requires kappa plus either (L, K) or (horizon, delta)")


def _parse_kv_spec(spec: str) -> dict:
    kind, _, rest = spec.partition(":")
    out = {"kind": kind.strip()}
    if rest.strip():
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"malformed measure parameter {item!r}")
            if key.strip() in out:
                raise ValueError(f"measure parameter {out['kind']}.{key.strip()} is given twice")
            out[key.strip()] = value.strip()
    return out


def _rank_d_law(D: int, rank: int, var: float, seed: int) -> GaussianLaw:
    frame = random_frame(D, rank, spawn_rng(seed, 104729))
    return GaussianLaw(mean=np.zeros(D), factor=math.sqrt(var) * frame, diag_floor=0.0)


# Largest D a spec or preset may ask for (a Gaussian or a manifold cloud is
# placed by a random frame, the QR of one D x k normal draw: O(D * k^2)
# time, O(D * k) memory) and largest n * D of a cloud (the cloud's points
# and its oracle's one centred copy are two n x D float64 arrays, 128 MiB
# each at the cap), of a sample batch and of an MC meter's per-step draw
# (the meter holds about four n x D arrays at once: a draw, its posterior
# mean and the oracle's query operands, so 512 MiB at the cap).
_MAX_D = 2**14
_SIZE_CAP = 2**24
# Largest total variance (trace of the covariance) T of a Gaussian law.  For
# each channel of variance v and multiplicity m, the exact meter
# (metrics._posterior_var_drop) forms m * v * v and a product of two terms
# below v; with m * v <= T both stay below T^2, and T^2 at half the float max
# leaves room for the rounding of the law's spectrum (at T^2 = max, a rank-1
# law's variance came out an ulp high and the meter overflowed).
_VAR_MAX = math.sqrt(0.5 * np.finfo(float).max)
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_FINITE = (lambda v: True, "finite")
_AMBIENT = (int, 2, lambda v: 1 <= v <= _MAX_D, f"in [1, {_MAX_D}]")
# Parameters of each measure kind: key -> (type, default, check, the check in words)
_MEASURE_PARAMS = {
    "gaussian": {
        "rank": (int, 1, *_NONNEGATIVE),
        "var": (float, 0.25, lambda v: v > 0, "> 0"),
        "floor": (float, 0.0, *_NONNEGATIVE),
    },
    "point-mass": {"value": (float, 1.0, *_FINITE)},
    "two-point": {"sep": (float, 1.0, *_FINITE)},
    "circle": {"n": (int, 2048, *_AT_LEAST_1)},
    "torus": {"n": (int, 2048, *_AT_LEAST_1), "d": (int, 2, *_AT_LEAST_1)},
    "hilbert": {
        "n": (int, 2048, *_AT_LEAST_1),
        "order": (int, 3, lambda v: 1 <= v <= 8, "in [1, 8]"),
    },
}


def _checked(raw, param, name: str):
    """``raw`` converted and range-checked by ``param`` = (type, default, check, rule)."""
    kind_of, _, check, rule = param
    try:
        value = kind_of(str(raw).strip())
    except ValueError:
        noun = "an integer" if kind_of is int else "a number"
        raise ValueError(f"{name} must be {noun}, got {raw!r}") from None
    # an int is always finite, and may be too large to convert to a float
    if not ((kind_of is int or math.isfinite(value)) and check(value)):
        raise ValueError(f"{name} must be {rule}, got {raw!r}")
    return value


# [experiment] seed, which the --seed flag overrides
_SEED = (int, 0, *_NONNEGATIVE)

# [schedule] keys (lower-cased as a config file stores them): the name to
# report and the rule; L, K and the step cap are build_schedule's
_SCHEDULE_FIELDS = {
    "kappa": ("kappa", (float, None, lambda v: 0.0 < v <= 0.25, "in (0, 0.25]")),
    "l": ("L", (int, None, *_FINITE)),
    "k": ("K", (int, None, *_FINITE)),
    "horizon": ("horizon", (float, None, lambda v: v > 1.0, "> 1")),
    "delta": ("delta", (float, None, lambda v: 0.0 < v < 1.0, "in (0, 1)")),
}


def _schedule_field(low: dict, key: str):
    """``low[key]`` converted and checked, naming ``schedule.<key>``."""
    name, param = _SCHEDULE_FIELDS[key]
    return _checked(low[key], param, f"schedule.{name}")


def _check_rank(rank: int, D: int, name: str) -> None:
    if rank > D:
        raise ValueError(f"{name} must be <= D = {D}, got {rank}")


def _measure_params(spec: dict) -> tuple[str, dict]:
    """The kind and every parameter of a spec, converted and range-checked."""
    kind = spec.get("kind", "")
    if kind not in _MEASURE_PARAMS:
        raise ValueError(f"unknown measure kind {kind!r}; expected one of {tuple(_MEASURE_PARAMS)}")
    params = {"D": _AMBIENT, **_MEASURE_PARAMS[kind]}
    for key in spec:
        if key != "kind" and key not in params:
            raise ValueError(f"unknown measure parameter {kind}.{key}; expected one of {tuple(params)}")
    out = {key: _checked(spec.get(key, p[1]), p, f"measure parameter {kind}.{key}") for key, p in params.items()}
    if kind == "gaussian":
        _check_rank(out["rank"], out["D"], "measure parameter gaussian.rank")
        parts = {"var": out["rank"] * out["var"], "floor": out["D"] * out["floor"]}
        if not sum(parts.values()) <= _VAR_MAX:
            rule = f"keep the law's total variance rank * var + D * floor <= {_VAR_MAX!r}"
            key = max(parts, key=parts.get)  # the larger part
            raise ValueError(f"measure parameter gaussian.{key} must {rule}, got {sum(parts.values())!r}")
    if "n" in out:  # a manifold cloud, sampled in k = 2 coordinates (a torus: 2d)
        k = 2 * out.get("d", 1)
        if out["D"] < k:
            rule = f"2 * {kind}.d = {k}" if "d" in out else str(k)
            raise ValueError(f"measure parameter {kind}.D must be >= {rule}, got {out['D']}")
        if out["n"] * out["D"] > _SIZE_CAP:
            size = out["n"] * out["D"]
            raise ValueError(f"measure parameter {kind}.n must keep n * D <= {_SIZE_CAP}, got n * D = {size}")
    return kind, out


def build_measure(spec, seed: int = 0):
    """Construct a score oracle from a measure spec dict or spec string.

    Kinds: gaussian (D, rank, var, floor), point-mass (D, value), two-point
    (D, sep), circle (D, n), torus (D, d, n), hilbert (D, n, order).  An
    unknown key, a value that does not convert, or one out of range (var > 0,
    floor >= 0, a total variance rank * var + D * floor at most about
    9.48e153, n >= 1, D in [1, 2**14], D >= 2 for a circle or hilbert
    curve and D >= 2d for a torus, a cloud's n * D at most 2**24, |sep| within
    what the cloud kernel takes, about 2.68e150) raises a ValueError naming
    ``kind.key``.
    """
    if isinstance(spec, str):
        spec = _parse_kv_spec(spec)
    kind, p = _measure_params(spec)
    D = p["D"]
    rng = spawn_rng(seed, 9973)
    if kind == "gaussian":
        law = _rank_d_law(D, p["rank"], p["var"], seed)
        if p["floor"] > 0:
            law = GaussianLaw(law.mean, law.factor, p["floor"])
        return GaussianOracle(law)
    if kind == "point-mass":
        point = np.zeros(D)
        point[0] = p["value"]
        return PointMassOracle(point)
    if kind == "two-point":
        pts = np.zeros((2, D))
        pts[0, 0] = -p["sep"] / 2.0
        pts[1, 0] = p["sep"] / 2.0
        cloud = PointCloudMeasure.uniform(pts)
        try:
            return PointCloudOracle(cloud)
        except ValueError as exc:  # the oracle refused a radius |sep| / 2 about the centroid
            raise ValueError(f"measure parameter two-point.sep = {p['sep']:g} is too large: {exc}") from None
    kwargs = {}
    if kind == "torus":
        kwargs["intrinsic_dim"] = p["d"]
    if kind == "hilbert":
        kwargs["order"] = p["order"]
    return PointCloudOracle(make_manifold_cloud(kind, D, p["n"], rng, **kwargs))


# ---------------------------------------------------------------------------
# Deterministic output files
# ---------------------------------------------------------------------------


def _write_outputs(out_dir, name, columns, rows, meta, footer=(), plot=None):
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, name)
    with open(base + ".csv", "w") as fh:
        fh.writelines(",".join(map(_record.value, row)) + "\n" for row in [columns, *rows])
        fh.write(_record.header(sorted(footer), table=True))
    payload = {
        "columns": list(columns),
        "rows": [[v for v in row] for row in rows],
        "meta": {k: v for k, v in sorted(meta.items())},
        "summary": {k: v for k, v in sorted(footer)},
    }
    with open(base + ".json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(base + ".meta", "w") as fh:
        fh.write(_record.header(sorted(meta.items())))
    if plot is not None:
        # the spec names columns: the x column and each series' (label, y column)
        col = dict(zip(columns, zip(*rows)))
        series = [(label, col[plot["x"]], col[y]) for label, y in plot["series"]]
        _svg.line_plot(base + ".svg", series, **{k: v for k, v in plot.items() if k not in ("x", "series")})
    return base


def _linear_fit(xs, ys):
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


# Preset options that size a rank-d Gaussian law take the gaussian spec's rules.
_RANK = _MEASURE_PARAMS["gaussian"]["rank"]
_VAR = _MEASURE_PARAMS["gaussian"]["var"]
# Each doubling halves kappa, so the finest K-sweep grid has about 2**10 times
# the steps of the given schedule.
_DOUBLINGS = (int, None, lambda v: 0 <= v <= 10, "in [0, 10]")
_EPS = (float, None, lambda v: v > 0, "> 0")
_SAMPLES = (int, None, lambda v: 2 <= v <= _SIZE_CAP, f"in [2, {_SIZE_CAP}]")
_VALUE = (float, None, *_FINITE)


def _option(opts: dict, key: str, default, param):
    """[options] ``key`` (or ``default``), converted and checked like a spec parameter."""
    return _checked(opts.get(key, default), param, f"config key options.{key}")


def _option_list(opts: dict, key: str, default: str, param, section: str = "options") -> list:
    """The space-separated values of ``[section] key``, each checked by ``param``."""
    words = str(opts.get(key, default)).split()
    if not words:
        raise ValueError(f"config key {section}.{key} must list at least one value")
    return [_checked(word, param, f"config key {section}.{key}") for word in words]


# Each sweep column's quantity of (law, schedule, seed); a sweep row is its x
# value, then the quantities of its other columns.
_COLUMNS = {
    "L": lambda law, sched, seed: sched.n_uniform,
    "K": lambda law, sched, seed: sched.n_steps,
    "kl_total": lambda law, sched, seed: metrics.kl_experiment(law, ReverseRunConfig(schedule=sched, seed=seed)).value,
    "kl_discretization": lambda law, sched, seed: metrics.kl_experiment(
        law, ReverseRunConfig(schedule=sched, seed=seed, init="data_pT")
    ).value,
    "discretization_budget": lambda law, sched, seed: metrics.discretization_error_meter(
        GaussianOracle(law), sched, 0, None, mode="exact"
    ).value,
    "kl_init": lambda law, sched, seed: metrics.gaussian_kl(
        metrics.marginal_law(law, sched.horizon), GaussianLaw.isotropic(law.dim)
    ),
}


def _sweep_rows(columns, points, seed: int) -> list:
    """One row per (x, law, schedule) point: x, then each later column's ``_COLUMNS`` quantity."""
    return [(x, *(_COLUMNS[name](law, sched, seed) for name in columns[1:])) for x, law, sched in points]


def _law_options(opts: dict, D, d):
    """[options] (D values, d values, var) of a sweep's rank-d Gaussian laws, each rank at most each D.

    ``D`` and ``d`` are the defaults of options D and d; the one given as a string is
    the swept axis, the default of the space-separated list options.dims.
    """
    Ds = _option_list(opts, "dims", D, _AMBIENT) if isinstance(D, str) else [_option(opts, "D", D, _AMBIENT)]
    ds = _option_list(opts, "dims", d, _RANK) if isinstance(d, str) else [_option(opts, "d", d, _RANK)]
    _check_rank(max(ds), min(Ds), f"config key options.{'dims' if isinstance(d, str) else 'd'}")
    var = _option(opts, "var", 0.25, _VAR)
    if not max(ds) * var <= _VAR_MAX:  # a rank-d law's total variance, as a spec's
        rule = f"keep each law's total variance d * var <= {_VAR_MAX!r}"
        raise ValueError(f"config key options.var must {rule}, got {max(ds) * var!r}")
    return Ds, ds, var


def _preset_d_sweep(cfg: ExperimentConfig):
    sched = resolve_schedule(cfg.schedule)
    (D,), dims, var = _law_options(cfg.options, 32, "1 2 4 8")
    columns = ["d", "kl_total", "kl_discretization", "discretization_budget"]
    rows = _sweep_rows(columns, ((d, _rank_d_law(D, d, var, cfg.seed), sched) for d in dims), cfg.seed)
    fit = _linear_fit(dims, [r[2] for r in rows])
    return columns, rows, list(zip(("fit_slope", "fit_intercept", "fit_r2"), fit))


def _preset_D_sweep(cfg: ExperimentConfig):
    sched = resolve_schedule(cfg.schedule)
    dims, (d,), var = _law_options(cfg.options, "4 16 64 256", 2)
    columns = ["D", "kl_total", "kl_discretization", "kl_init"]
    rows = _sweep_rows(columns, ((D, _rank_d_law(D, d, var, cfg.seed), sched) for D in dims), cfg.seed)
    totals = [r[1] for r in rows]
    inits = [r[3] for r in rows]
    footer = [
        ("kl_spread", max(totals) - min(totals)),
        ("init_kl_spread", max(inits) - min(inits)),
        ("spread_bound", 1e-6 + max(inits) - min(inits)),
    ]
    return columns, rows, footer


def _preset_K_sweep(cfg: ExperimentConfig):
    resolve_schedule(cfg.schedule)  # the given grid is read as any other, so L and K are not ignored
    for key in ("horizon", "delta"):
        if key not in cfg.schedule:
            raise ValueError(f"K-sweep requires explicit schedule.{key}")
    kappa0, horizon, delta = (_schedule_field(cfg.schedule, key) for key in ("kappa", "horizon", "delta"))
    doublings = _option(cfg.options, "doublings", 3, _DOUBLINGS)
    (D,), (d,), var = _law_options(cfg.options, 8, 2)
    law = _rank_d_law(D, d, var, cfg.seed)
    # finest grid first, so one past the step cap fails before any work; one grid lives at a time
    fields = ({"kappa": kappa0 / 2**i, "horizon": horizon, "delta": delta} for i in reversed(range(doublings + 1)))
    grids = ((f["kappa"], law, resolve_schedule(f)) for f in fields)
    columns = ["kappa", "L", "K", "discretization_budget", "kl_discretization"]
    rows = _sweep_rows(columns, grids, cfg.seed)[::-1]
    footer = []
    for i in range(1, len(rows)):
        footer.append((f"budget_factor_{i}", rows[i - 1][3] / rows[i][3]))
        footer.append((f"kl_factor_{i}", rows[i - 1][4] / rows[i][4]))
    return columns, rows, footer


def _preset_eps_sweep(cfg: ExperimentConfig):
    sched = resolve_schedule(cfg.schedule)
    opts = cfg.options
    (D,), (d,), var = _law_options(opts, 4, 1)
    eps_values = _option_list(opts, "eps", "0.01 0.02 0.04 0.08", _EPS)
    if len(set(eps_values)) < 2:
        raise ValueError(f"config key options.eps must list at least two distinct values, got {opts['eps']!r}")
    direction = np.zeros(D)
    if "constant" in cfg.perturbation:
        vals = _option_list(cfg.perturbation, "constant", "", _VALUE, section="perturbation")
        if len(vals) > D or not any(vals):
            raise ValueError(
                f"config key perturbation.constant must list 1 to D = {D} values, not all zero, "
                f"got {cfg.perturbation['constant']!r}"
            )
        direction[: len(vals)] = vals
    else:
        direction[0] = 1.0
    law = _rank_d_law(D, d, var, cfg.seed)
    rows = []
    # one budget report gives three columns, so this sweep keeps its own loop
    for eps in eps_values:
        bias = ScorePerturbation(epsilon=eps, constant=direction)
        rep = metrics.score_error_budget(law, bias, sched)
        rows.append((eps, rep.value, rep.extras["kl_excess"], rep.extras["kl_excess_per_budget"]))
    slope = _linear_fit(np.log([r[0] for r in rows]), np.log([r[2] for r in rows]))[0]
    return ["eps", "budget", "kl_excess", "kl_excess_per_budget"], rows, [("loglog_slope", slope)]


def _tweedie_max_rel_err(oracle, rng, cases=40):
    """Max relative gap between the score and the log-marginal FD gradient."""
    worst = 0.0
    for _ in range(cases):
        t = float(np.exp(rng.uniform(np.log(0.02), np.log(3.0))))
        x = forward_sample(oracle, t, rng, 1)[1][0]
        grad = log_marginal_gradient(oracle, t, x)
        s = oracle.score(t, x)
        worst = max(worst, float(np.linalg.norm(grad - s)) / float(np.linalg.norm(s)))
    return worst


def lemma_suite(seed: int, n: int = 20000, workers: int = 1):
    """Seeded grid of structure checks; returns (rows, all_passed).

    Rows are (check, case, value, stderr, z, passed).  Martingale residuals
    must sit within 3 standard errors of zero, monotonicity differences
    above -3 standard errors, concentration curves below the diameter bound
    and non-decreasing up to noise, and scores must match finite-difference
    gradients of the log marginal to 1e-4 relative.  A row whose value,
    stderr or z is not finite fails.

    Each case draws from its own derived stream (seed, case index), so the
    table is identical for any worker count; ``workers > 1`` runs cases on a
    thread pool and only changes wall time.
    """
    two_point = build_measure({"kind": "two-point", "D": 2}, seed)
    gauss = build_measure({"kind": "gaussian", "D": 3, "rank": 1, "var": 0.25}, seed)
    circle = build_measure({"kind": "circle", "D": 2, "n": 512}, seed)
    oracles = [("two_point", two_point), ("gaussian_rank1", gauss), ("circle", circle)]
    triples = [(0.0, 0.25, 1.0), (0.01, 0.05, 0.3), (0.05, 0.2, 0.6), (0.1, 0.5, 2.0)]

    cases = []
    for oname, oracle in oracles:
        for ts in triples:
            cases.append(("martingale", oname, oracle, ts))
    for oname, oracle in oracles:
        for ts in triples:
            cases.append(("monotonicity", oname, oracle, ts))
    cases.append(("concentration", "circle", circle, None))
    for oname, oracle in oracles:
        cases.append(("tweedie_fd", oname, oracle, None))

    def run_case(case, rng):
        check, oname, oracle, ts = case
        if check == "martingale":
            rep = metrics.martingale_checks(oracle, *ts, n, rng)
            z = rep.value / rep.stderr if rep.stderr else 0.0
            return [("martingale", f"{oname}@{ts}", rep.value, rep.stderr, z, abs(z) <= 3.0)]
        if check == "monotonicity":
            t1 = max(ts[0], 0.02)
            rep = metrics.monotonicity_check(oracle, t1, ts[1], ts[2], n, rng)
            z = rep.value / rep.stderr if rep.stderr else 0.0
            return [
                ("monotonicity", f"{oname}@{(t1, ts[1], ts[2])}", rep.value, rep.stderr, z, z >= -3.0)
            ]
        if check == "concentration":
            rep = metrics.concentration_curve(oracle, [1e-3, 1e-2, 1e-1], n, rng)
            bound_ok = all(v <= 1.0 + 3.0 * se for (_, _, v, se) in rep.components)
            grow_ok = rep.extras["min_increment_z"] >= -3.0
            return [
                ("concentration_bound", oname, rep.value, rep.stderr, 0.0, bound_ok),
                ("concentration_growth", oname, rep.extras["min_increment_z"], 0.0, 0.0, grow_ok),
            ]
        err = _tweedie_max_rel_err(oracle, rng)
        return [("tweedie_fd", oname, err, 0.0, 0.0, err <= 1e-4)]

    chunks = map_streams(run_case, cases, seed, workers, first=1)
    # a non-finite value, stderr or z fails its row whatever the row's gate says
    rows = [(*row[:5], row[5] and all(map(math.isfinite, row[2:5]))) for chunk in chunks for row in chunk]
    return rows, all(r[5] for r in rows)


def _preset_lemma_suite(cfg: ExperimentConfig):
    n = _option(cfg.options, "n", 20000, _SAMPLES)
    rows, ok = lemma_suite(cfg.seed, n, workers=_pool_size())
    table = [(c, case, v, se, z, int(p)) for c, case, v, se, z, p in rows]
    return ["check", "case", "value", "stderr", "z", "passed"], table, [("all_passed", int(ok))]


# Each preset's builder, the [options] keys and config sections it reads (any
# other input exits 1) and its plot: the x column, (label, y column) series
# and the rest of ``_svg.line_plot``'s keywords.
PRESETS = {
    "d-sweep": (
        _preset_d_sweep, ("D", "dims", "var"), ("schedule",),
        {"title": "discretization error vs intrinsic dimension", "xlabel": "intrinsic dimension",
         "ylabel": "exact value", "x": "d",
         "series": (("terminal", "kl_discretization"), ("budget", "discretization_budget"))},
    ),
    "D-sweep": (
        _preset_D_sweep, ("dims", "d", "var"), ("schedule",),
        {"title": "terminal KL vs ambient dimension", "xlabel": "ambient dimension", "ylabel": "KL",
         "x": "D", "series": (("terminal KL", "kl_total"),), "log_x": True},
    ),
    "K-sweep": (
        _preset_K_sweep, ("doublings", "D", "d", "var"), ("schedule",),
        {"title": "discretization error vs step count", "xlabel": "K", "ylabel": "exact value",
         "x": "K", "series": (("budget", "discretization_budget"), ("terminal KL", "kl_discretization")),
         "log_x": True, "log_y": True},
    ),
    "eps-sweep": (
        _preset_eps_sweep, ("D", "d", "var", "eps"), ("schedule", "perturbation"),
        {"title": "KL excess vs score bias magnitude", "xlabel": "bias scale", "ylabel": "KL excess",
         "x": "eps", "series": (("KL excess", "kl_excess"),), "log_x": True, "log_y": True},
    ),
    "lemma-suite": (_preset_lemma_suite, ("n",), (), None),
}


def run_experiment(config: ExperimentConfig):
    """Execute a named preset; writes CSV, JSON, meta and SVG files.

    Returns (base path, footer summary).  Unknown presets, an [options] key
    or a non-empty config section the preset does not read, and malformed
    specs fail before any computation starts.
    """
    if config.name not in PRESETS:
        raise ValueError(f"unknown preset {config.name!r}; choose from {tuple(PRESETS)}")
    build, options, sections, plot = PRESETS[config.name]
    for key in config.options:
        if key not in options:
            raise ValueError(f"unknown [options] key {key!r} for {config.name}; expected {options}")
    unread = [f"{s}.{k}" for s in ("schedule", "perturbation") if s not in sections for k in getattr(config, s)]
    if unread:
        raise ValueError(f"{config.name} does not read {', '.join(unread)}")
    columns, rows, footer = build(config)
    base = _write_outputs(config.out_dir, config.name, columns, rows, config.echo(), footer, plot)
    return base, dict(footer)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation failures (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_schedule_flags(p, required=True):
    p.add_argument("--kappa", type=float, required=required)
    p.add_argument("--L", type=int, required=required)
    p.add_argument("--K", type=int, required=required)


def _rows(raw, low: int, D: int, flag: str) -> int:
    """``raw`` as a count of D-float rows, at least ``low`` and, like a cloud, n * D <= _SIZE_CAP."""
    most = _SIZE_CAP // D
    rule = f"in [{low}, {most}], so that {flag[2:]} * D <= {_SIZE_CAP}"
    return _checked(raw, (int, None, lambda v: low <= v <= most, rule), flag)


def _given(args, keys) -> dict:
    """The flags among ``keys`` given on the command line."""
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def _seed(args, default: int = 0) -> int:
    """``--seed`` checked like ``[experiment] seed``, or ``default`` when not given."""
    return _checked(args.seed, _SEED, "--seed") if "seed" in args else default


def _schedule(args) -> int:
    """Print and validate a time grid, or validate a saved one."""
    given = _given(args, ("kappa", "L", "K"))
    if args.load:
        if given:
            drop = ", ".join(f"--{k}" for k in given)
            raise ValueError(f"schedule --load takes its grid from the file; drop {drop}")
        with open(args.load) as fh:
            sched = schedule_from_text(fh.read())
    else:
        sched = resolve_schedule(given)
    report = validate_schedule(sched)
    print(f"kappa = {sched.kappa:.17g}  L = {sched.n_uniform}  K = {sched.n_steps}")
    print(f"T = {sched.horizon:.17g}  delta = {sched.early_stop:.17g}")
    print("times = " + " ".join(f"{t:.12g}" for t in sched.times))
    for name, ok, detail in report.checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    if args.save:
        with open(args.save, "w") as fh:
            fh.write(schedule_to_text(sched))
    return 0 if report.passed else 1


def _sample(args) -> int:
    """Run the reverse sampler and write its terminal batch."""
    seed = _seed(args)
    sched = resolve_schedule(_given(args, ("kappa", "L", "K")))
    oracle = build_measure(args.measure, seed)
    batch = _rows(args.batch, 1, oracle.dim, "--batch")
    cfg = ReverseRunConfig(sched, args.scheme, batch=batch, seed=seed, init=args.init, n_workers=_pool_size())
    start = time.perf_counter()
    result = run_reverse(cfg, oracle)
    # timing goes to stderr only: output files stay byte-reproducible
    print(f"wall_time_s = {time.perf_counter() - start:.3f}", file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sample.txt")
    save_batch(path, result, extra_meta={"measure": args.measure})
    print(path)
    return 0


def _require_gaussian(spec: str, oracle) -> None:
    """The exact commands' check of ``--measure``: its oracle must be a GaussianOracle."""
    if not isinstance(oracle, GaussianOracle):
        kind = _parse_kv_spec(spec)["kind"]
        raise ValueError(f"--measure {kind} has no closed-form law: kl and meter --mode exact take gaussian or point-mass")


def _kl(args) -> int:
    """Exact terminal KL of a reverse run on a Gaussian measure."""
    seed = _seed(args)
    sched = resolve_schedule(_given(args, ("kappa", "L", "K")))
    oracle = build_measure(args.measure, seed)
    _require_gaussian(args.measure, oracle)
    cfg = ReverseRunConfig(schedule=sched, scheme=args.scheme, seed=seed, init=args.init)
    sys.stdout.write(metrics.kl_experiment(oracle.law, cfg).to_keyvalues())
    return 0


def _meter(args) -> int:
    """The discretization error functional, by Monte Carlo or exactly."""
    seed = _seed(args)
    if args.mode == "exact" and args.n is not None:
        raise ValueError("--n is read only by --mode mc; --mode exact draws no samples")
    sched = resolve_schedule(_given(args, ("kappa", "L", "K")))
    oracle = build_measure(args.measure, seed)
    if args.mode == "exact":
        _require_gaussian(args.measure, oracle)
    n = _rows(2000 if args.n is None else args.n, 100, oracle.dim, "--n") if args.mode == "mc" else 0
    start = time.perf_counter()
    report = metrics.discretization_error_meter(
        oracle, sched, n, spawn_rng(seed, 2), mode=args.mode, quadrature="midpoint" if args.midpoint else "right"
    )
    print(f"wall_time_s = {time.perf_counter() - start:.3f}", file=sys.stderr)
    report = replace(report, seed=seed)
    sys.stdout.write(report.to_keyvalues())
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "meter_components.csv")
    with open(path, "w") as fh:
        fh.write(report.components_csv())
        fh.write(_record.header([("seed", seed)], table=True))
    print(path)
    return 0


def _check(args) -> int:
    """Run the lemma suite."""
    rows, ok = lemma_suite(_seed(args), _checked(args.n, _SAMPLES, "--n"), workers=_pool_size())
    for check, case, value, stderr, z, passed in rows:
        state = "pass" if passed else "FAIL"
        print(f"[{state}] {check:<22} {case:<34} value={value:+.6e} stderr={stderr:.3e} z={z:+.2f}")
    print(f"lemma suite: {'all passed' if ok else 'FAILURES PRESENT'}")
    return 0 if ok else 1


def _sweep(args) -> int:
    """Run a sweep preset to files."""
    cfg = load_config(args.config) if "config" in args else ExperimentConfig(name="")
    cfg = replace(cfg, name=args.preset, out_dir=args.out, seed=_seed(args, cfg.seed))
    cfg.schedule.update(_given(args, ("kappa", "horizon", "delta")))
    base, footer = run_experiment(cfg)
    sys.stdout.write(_record.header(sorted(footer.items())))
    print(base + ".csv")
    return 0


# Each command's handler and the run flags it reads, like PRESETS; any other
# run flag exits 1 naming it, before or after the subcommand.
COMMANDS = {
    "schedule": (_schedule, ()),
    "sample": (_sample, ("seed", "out")),
    "kl": (_kl, ("seed",)),
    "meter": (_meter, ("seed", "out")),
    "check": (_check, ("seed",)),
    "sweep": (_sweep, ("seed", "out", "config")),
}

# The run flags' help; a handler checks --seed by _SEED.
_RUN_FLAG_HELP = {
    "seed": "master seed, >= 0 (default 0)",
    "out": "output directory (default runs)",
    "config": "sectioned key-value config file",
}


def _subcommand_first(argv: list) -> list:
    """``argv`` with the flags given before the subcommand moved to just after it.

    The subcommand's parser then reads, or rejects by name, every run flag.
    A flag before the subcommand carries a value, as ``--flag value`` or
    ``--flag=value``; argv without a subcommand is returned as it is.
    """
    i = 0
    while i < len(argv) and argv[i].startswith("-") and argv[i] not in ("-h", "--help"):
        i += 1 if "=" in argv[i] else 2
    return [*argv[i : i + 1], *argv[:i], *argv[i + 1 :]] if i < len(argv) else argv


def cli(argv=None) -> int:
    """Entry point; returns 0 on success, 1 on validation failure, 2 on runtime failure."""
    parser = _Parser(prog="revdiff", description="reverse-diffusion simulation and verification")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p = {}
    for name, (handler, reads) in COMMANDS.items():
        p[name] = sub.add_parser(name, help=handler.__doc__)
        # each subparser adds only the run flags its command reads, set only when given
        for flag in reads:
            p[name].add_argument(f"--{flag}", default=argparse.SUPPRESS, help=_RUN_FLAG_HELP[flag])
    _add_schedule_flags(p["schedule"], required=False)
    p["schedule"].add_argument("--save", default=None, help="write the grid record here")
    p["schedule"].add_argument("--load", default=None, help="validate a saved grid instead")
    for name in ("sample", "kl", "meter"):
        _add_schedule_flags(p[name])
        p[name].add_argument("--measure", required=True)
    for name in ("sample", "kl"):
        p[name].add_argument("--scheme", choices=("corrected", "exponential_integrator"), default="corrected")
        p[name].add_argument("--init", choices=("standard_normal", "data_pT"), default="standard_normal")
    p["sample"].add_argument("--batch", type=int, default=256)
    p["meter"].add_argument("--n", type=int, default=None, help="samples per step, mc mode only (default 2000)")
    p["meter"].add_argument("--mode", choices=("mc", "exact"), default="mc")
    p["meter"].add_argument("--midpoint", action="store_true")
    p["check"].add_argument("--n", default=20000, help=f"samples per case, in [2, {_SIZE_CAP}]")
    p["sweep"].add_argument("--preset", required=True, choices=tuple(PRESETS))
    for key in ("kappa", "horizon", "delta"):
        p["sweep"].add_argument(f"--{key}", type=float, default=None)

    try:
        args = parser.parse_args(_subcommand_first(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        vars(args).setdefault("out", "runs")
        return COMMANDS[args.command][0](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: numerical blow-ups, internal errors
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit("revdiff.harness is not a command; run the CLI as `python -m revdiff ...`")
