import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from revdiff import harness
from revdiff.harness import (
    COMMANDS,
    PRESETS,
    ExperimentConfig,
    _linear_fit,
    build_measure,
    cli,
    lemma_suite,
    load_config,
    resolve_schedule,
    run_experiment,
)
from revdiff import _svg, metrics
from revdiff.measures import GaussianLaw, GaussianOracle
from revdiff.sampler import ReverseRunConfig, ScorePerturbation, run_reverse, save_batch
from revdiff.schedule import MAX_STEPS, build_schedule, schedule_from_text, schedule_to_text, validate_schedule


def run_cli(capsys, *args):
    code = cli(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# measure specs and schedule resolution
# ---------------------------------------------------------------------------


def test_build_measure_specs():
    g = build_measure("gaussian:D=6,rank=2,var=0.5", seed=1)
    assert g.dim == 6 and g.law.factor.shape == (6, 2)
    tp = build_measure("two-point:D=3,sep=0.8", seed=1)
    assert tp.dim == 3
    for sep in ("2.6815e150", "-2.6815e150"):  # just inside what the cloud kernel takes
        assert build_measure(f"two-point:D=2,sep={sep}", seed=1).cloud.points[1, 0] == float(sep) / 2
    pm = build_measure("point-mass:D=2,value=0.5", seed=1)
    assert pm.point[0] == 0.5
    circ = build_measure("circle:D=2,n=64", seed=1)
    assert circ.dim == 2 and circ.cloud.points.shape == (64, 2)
    tor = build_measure("torus:D=4,d=2,n=49", seed=1)
    assert tor.dim == 4 and tor.cloud.points.shape == (49, 4)


def test_build_measure_rejects_unknown_kind_and_bad_params():
    with pytest.raises(ValueError):
        build_measure("banana:D=2", seed=0)
    with pytest.raises(ValueError):
        build_measure("gaussian:D=2,rank", seed=0)
    with pytest.raises(ValueError):
        build_measure("gaussian:D=3,rank=4", seed=0)


@pytest.mark.parametrize(
    "spec, named",
    [
        ("gaussian:D=8,rnak=2", "gaussian.rnak"),
        ("gaussian:D=8,rank=x", "gaussian.rank"),
        ("gaussian:D=8,rank=9", "gaussian.rank"),
        ("gaussian:D=8,var=-1", "gaussian.var"),
        ("gaussian:D=8,var=nan", "gaussian.var"),
        ("gaussian:D=8,floor=-0.1", "gaussian.floor"),
        # the total variance rank * var + D * floor is at most about 9.48e153
        ("gaussian:D=4,rank=1,var=1.4e154", "gaussian.var"),
        ("gaussian:D=4,rank=4,var=3e153", "gaussian.var"),
        ("gaussian:D=4,rank=1,floor=1e160", "gaussian.floor"),
        ("gaussian:D=16384,rank=0,floor=1e150", "gaussian.floor"),
        ("gaussian:D=8,rotate=yes", "gaussian.rotate"),
        ("gaussian:D=0", "gaussian.D"),
        ("gaussian:D=100000", "gaussian.D"),
        ("point-mass:D=2,value=inf", "point-mass.value"),
        ("two-point:D=2,sep=wide", "two-point.sep"),
        # the cloud kernel takes |sep| up to 2.6816e150
        ("two-point:D=2,sep=2.6817e150", "two-point.sep"),
        ("two-point:D=2,sep=-1e160", "two-point.sep"),
        ("circle:D=2,n=0", "circle.n"),
        ("circle:D=2,n=100000000000", "circle.n"),
        ("torus:D=4,d=2,n=1.5", "torus.n"),
        ("torus:D=4,d=0", "torus.d"),
        ("hilbert:D=2,order=9", "hilbert.order"),
        ("circle:D=2,order=3", "circle.order"),
        # every kind takes D up to 2**14; a manifold needs D >= its 2 (torus: 2d) coordinates
        ("circle:D=16385,n=1", "circle.D"),
        ("torus:D=16385,d=2,n=1", "torus.D"),
        ("hilbert:D=16385,n=1", "hilbert.D"),
        ("circle:D=1,n=1", "circle.D"),
        ("torus:D=3,d=2", "torus.D"),
        # a repeated key would let the last one win
        ("gaussian:D=8,rank=2,D=4", "gaussian.D"),
    ],
)
@pytest.mark.parametrize("command", [("sample", "--batch", "4"), ("meter", "--n", "100")], ids=["sample", "meter"])
def test_cli_rejects_bad_measure_spec_naming_the_field(tmp_path, capsys, spec, named, command):
    code, _, err = run_cli(
        capsys,
        command[0], "--kappa", "0.2", "--L", "10", "--K", "40",
        "--measure", spec, *command[1:], "--out", str(tmp_path),
    )
    assert code == 1
    assert named in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, make, part",
    [
        # the law's whole total variance in one of its fields
        ("meter", lambda v: f"gaussian:D=4,rank=1,var={v!r}", 1.0),
        ("meter", lambda v: f"gaussian:D=4,rank=1,floor={v!r}", 4.0),
        ("meter", lambda v: f"gaussian:D=16384,rank=2,floor={v!r}", 16384.0),
        ("sweep", lambda v: f"var = {v!r}\n", 8.0),  # a d-sweep's largest law has rank 8
    ],
)
def test_gaussian_total_variance_bound_keeps_the_exact_meter_finite_and_past_it_names_the_field(
    tmp_path, capsys, command, make, part
):
    # At the bound the exact meter (a sweep's discretization_budget column)
    # overflows nowhere, so no RuntimeWarning; one ulp past it the input
    # exits 1 naming its field.  The meter overflowed at var = 1.4e154 and
    # gave value = nan.
    at = harness._VAR_MAX / part
    named = "options.var" if command == "sweep" else ("gaussian.var" if "var=" in make(0.0) else "gaussian.floor")
    for value, code in ((at, 0), (math.nextafter(at, math.inf), 1)):
        out_dir = tmp_path / repr(value)
        if command == "sweep":
            ini = write_sweep_ini(tmp_path / "f.ini", make(value))
            args = ["sweep", "--preset", "d-sweep", "--config", ini, "--kappa", "0.2", "--horizon", "3.0"]
            args += ["--delta", "1e-3", "--out", str(out_dir)]
        else:
            args = ["meter", "--kappa", "0.2", "--L", "10", "--K", "40", "--measure", make(value)]
            args += ["--mode", "exact", "--out", str(out_dir)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, out, err = run_cli(capsys, *args)
        assert got == code, err
        if code:
            assert named in err and not out_dir.exists()
        elif command == "meter":
            assert math.isfinite(float(re.search(r"^value = (.*)$", out, re.M).group(1)))
        else:
            rows = np.loadtxt(out_dir / "d-sweep.csv", delimiter=",", skiprows=1, comments="#")
            assert np.isfinite(rows).all()


def test_manifold_D_at_the_cap_builds():
    # a manifold far from its 2 coordinates: the thin frame places it in O(D * k) memory
    pts = build_measure("circle:D=4096,n=64", seed=0).cloud.points
    centred = pts - pts.mean(axis=0)
    _, s, vt = np.linalg.svd(centred, full_matrices=False)
    assert pts.shape == (64, 4096) and s[2] <= 1e-12 * s[0]  # rank 2
    # the circle through the points, in their plane: |p - c|^2 = r^2 is linear in (c, r^2 - |c|^2)
    plane = centred @ vt[:2].T
    centre = np.linalg.lstsq(np.c_[2 * plane, np.ones(64)], (plane**2).sum(axis=1), rcond=None)[0][:2]
    np.testing.assert_allclose(np.linalg.norm(plane - centre, axis=1), 0.5, atol=1e-12)


def test_resolve_schedule_requires_explicit_fields():
    with pytest.raises(ValueError, match="kappa"):
        resolve_schedule({})
    with pytest.raises(ValueError, match="both L and K"):
        resolve_schedule({"kappa": 0.2, "L": 4})
    sched = resolve_schedule({"kappa": 0.2, "L": 4, "K": 9})
    assert sched.n_steps == 9
    derived = resolve_schedule({"kappa": 0.2, "horizon": 3.0, "delta": 1e-3})
    assert derived.n_uniform == 10
    assert abs(derived.early_stop - 1e-3) < 4e-4


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"kappa": "x", "L": "4", "K": "9"}, "schedule.kappa"),
        ({"kappa": "0.2", "L": "4.5", "K": "9"}, "schedule.L"),
        ({"kappa": "0.2", "l": "4", "k": "nine"}, "schedule.K"),
        ({"kappa": "0.2", "horizon": "inf", "delta": "1e-3"}, "schedule.horizon"),
        ({"kappa": "0.2", "horizon": "3", "delta": "1e-3x"}, "schedule.delta"),
    ],
)
def test_resolve_schedule_names_a_field_that_does_not_convert(fields, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        resolve_schedule(fields)


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"kappa": 0.0, "L": 4, "K": 9}, "schedule.kappa"),
        ({"kappa": 0.3, "horizon": 3.0, "delta": 1e-3}, "schedule.kappa"),
        ({"kappa": -1.0, "horizon": 3.0, "delta": 1e-3}, "schedule.kappa"),
        ({"kappa": 0.2, "horizon": 1.0, "delta": 1e-3}, "schedule.horizon"),
        ({"kappa": 0.2, "horizon": 3.0, "delta": 1.0}, "schedule.delta"),
        ({"kappa": 0.1, "horizon": 1e15, "delta": 1e-6}, "schedule.horizon"),
        ({"kappa": 0.1, "horizon": 1e308, "delta": 1e-6}, "schedule.horizon"),
        ({"kappa": 0.1, "horizon": 10.0, "delta": 5e-324}, "schedule.delta"),
        ({"kappa": 0.1, "L": 10, "K": 10**14}, f"K must be at most {MAX_STEPS}"),
        ({"kappa": 0.2, "L": 4, "K": 9, "horizon": 3.0, "delta": 1e-3}, "not both"),
    ],
)
def test_resolve_schedule_names_a_field_out_of_range(fields, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        resolve_schedule(fields)


def test_resolve_schedule_reads_strings_as_it_reads_numbers():
    as_text = resolve_schedule({"kappa": "0.1", "horizon": "10", "delta": "1e-6"})
    as_numbers = resolve_schedule({"kappa": 0.1, "horizon": 10.0, "delta": 1e-6})
    assert schedule_to_text(as_text) == schedule_to_text(as_numbers)
    assert schedule_to_text(resolve_schedule({"kappa": "0.2", "L": " 4 ", "K": "9"})) == schedule_to_text(
        build_schedule(0.2, 4, 9)
    )


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment]\nseed = 5\n\n"
        "[schedule]\nkappa = 0.2\nhorizon = 3.0\ndelta = 1e-3\n\n"
        "[options]\nD = 8\ndims = 1 2\n"
    )
    cfg = load_config(path)
    assert cfg.seed == 5
    assert cfg.schedule["kappa"] == "0.2"
    assert cfg.options["dims"] == "1 2"


# ---------------------------------------------------------------------------
# input fuzzing: malformed input raises only what the CLI maps to exit 1
# ---------------------------------------------------------------------------

# Values kept small where they might be valid, so that a spec or schedule that
# does parse builds in milliseconds; the large ones are all past a cap.
_FUZZ_VALUES = (
    st.sampled_from(
        ["0", "1", "2", "-1", "3.5", "1e-3", "0.25", "nan", "inf", "-inf", "1e999", "5e-324", "99999999999",
         "0x10", "1_0", " 4 ", "", "=", ",", ":", "%", "%(x)s", "٣", "1 2", "True"]
    )
    | st.integers(-3, 40).map(str)
    | st.floats(-1e3, 1e3).map(repr)
    | st.text(max_size=6)
)


def _spec_text(kind, items):
    return kind + (":" + ",".join(f"{k}={v}" for k, v in items) if items else "")


@given(
    spec=st.builds(
        _spec_text,
        st.sampled_from(["gaussian", "point-mass", "two-point", "circle", "torus", "hilbert", "", "blob"])
        | st.text(max_size=8),
        st.lists(
            st.tuples(
                st.sampled_from(["D", "n", "d", "rank", "var", "floor", "rotate", "value", "sep", "order", " D", "N"])
                | st.text(max_size=4),
                _FUZZ_VALUES,
            ),
            max_size=5,
        ),
    )
    | st.text(max_size=30)
)
@settings(max_examples=300, deadline=None)
def test_fuzz_measure_specs_raise_only_value_error(spec):
    try:
        build_measure(spec, seed=0)
    except ValueError:
        pass


# a valid saved grid, field by field
_GRID_FIELDS = dict(line.split(" = ", 1) for line in schedule_to_text(build_schedule(0.25, 4, 8)).splitlines())


@given(
    fields=st.fixed_dictionaries(
        {},
        optional={
            key: st.just(value) | _FUZZ_VALUES | st.lists(_FUZZ_VALUES, max_size=10).map(" ".join)
            for key, value in _GRID_FIELDS.items()
        },
    ),
    junk=st.lists(st.sampled_from(["", "# note", "junk", "=", "x = 1", "kappa = 0.25"]) | st.text(max_size=20), max_size=3),
)
@example(fields={**_GRID_FIELDS, "kappa": "-1"}, junk=[])  # raised ZeroDivisionError from (1 + kappa) ** (L - K)
@settings(max_examples=300, deadline=None)
def test_fuzz_schedule_records_raise_only_value_error(fields, junk):
    # ``schedule --load``: parse, then validate
    text = "\n".join([f"{key} = {value}" for key, value in fields.items()] + junk)
    try:
        validate_schedule(schedule_from_text(text))
    except ValueError:
        pass


@given(
    lines=st.lists(
        st.builds("[{}]".format, st.sampled_from(["experiment", "schedule", "perturbation", "options", "DEFAULT", "Schedule", "x"]))
        | st.builds(
            lambda k, sep, v: f"{k}{sep}{v}",
            st.sampled_from(["name", "seed", "out_dir", "workers", "kappa", "L", "K", "horizon", "delta", "constant", "D", "dims", "x"])
            | st.text(max_size=4),
            st.sampled_from([" = ", ": ", "=", " "]),
            _FUZZ_VALUES,
        )
        | st.text(max_size=20),
        max_size=10,
    )
)
@example(lines=["[experiment]", "name = 50%"])  # raised configparser's InterpolationSyntaxError
@settings(max_examples=300, deadline=None)
def test_fuzz_config_files_raise_only_value_key_or_os_error(lines):
    # the config half of the CLI: load_config, then the schedule it names
    fd, path = tempfile.mkstemp(suffix=".ini")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write("\n".join(lines))
        try:
            resolve_schedule(load_config(path).schedule)
        except (ValueError, KeyError, OSError):
            pass
    finally:
        os.unlink(path)


# ---------------------------------------------------------------------------
# experiment presets
# ---------------------------------------------------------------------------


def small_sweep_config(name, tmp_path, **options):
    return ExperimentConfig(
        name=name,
        seed=3,
        out_dir=str(tmp_path),
        schedule={"kappa": 0.2, "horizon": 3.0, "delta": 1e-3},
        options=options,
    )


def test_d_sweep_outputs(tmp_path):
    cfg = small_sweep_config("d-sweep", tmp_path, D=8, dims="1 2 4")
    base, footer = run_experiment(cfg)
    assert footer["fit_r2"] > 0.999
    assert os.path.exists(base + ".csv")
    assert os.path.exists(base + ".json")
    assert os.path.exists(base + ".meta")
    assert os.path.exists(base + ".svg")
    payload = json.loads(open(base + ".json").read())
    assert payload["columns"][0] == "d"
    assert [row[0] for row in payload["rows"]] == [1, 2, 4]


def test_D_sweep_flat_in_ambient_dimension(tmp_path):
    cfg = small_sweep_config("D-sweep", tmp_path, d=2, dims="4 16 64")
    base, footer = run_experiment(cfg)
    assert footer["kl_spread"] <= footer["spread_bound"]


def test_K_sweep_factors(tmp_path):
    cfg = small_sweep_config("K-sweep", tmp_path, doublings=2, D=4, d=1)
    base, footer = run_experiment(cfg)
    for i in (1, 2):
        assert 1.5 <= footer[f"budget_factor_{i}"] <= 2.5


def test_unknown_preset_rejected(tmp_path):
    cfg = ExperimentConfig(name="zzz", out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="unknown preset"):
        run_experiment(cfg)


def test_outputs_are_byte_reproducible(tmp_path):
    cfg1 = small_sweep_config("d-sweep", tmp_path / "a", D=4, dims="1 2")
    cfg2 = small_sweep_config("d-sweep", tmp_path / "b", D=4, dims="1 2")
    base1, _ = run_experiment(cfg1)
    base2, _ = run_experiment(cfg2)
    for ext in (".csv", ".json", ".meta", ".svg"):
        b1 = open(base1 + ext, "rb").read()
        b2 = open(base2 + ext, "rb").read()
        assert b1 == b2, ext


def test_svg_is_pure_function_of_series(tmp_path):
    series = [("a", [1, 2, 3], [0.1, 0.2, 0.15])]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    _svg.line_plot(p1, series, title="t", xlabel="x", ylabel="y")
    _svg.line_plot(p2, series, title="t", xlabel="x", ylabel="y")
    assert open(p1, "rb").read() == open(p2, "rb").read()
    _svg.line_plot(p2, series, title="t2", xlabel="x", ylabel="y")
    assert open(p1, "rb").read() != open(p2, "rb").read()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_schedule_prints_reference_grid(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--kappa", "0.25", "--L", "4", "--K", "8")
    assert code == 0
    assert "0 0.25 0.5 0.75 1 1.2 1.36 1.488 1.5904" in out


def test_cli_schedule_save_and_validate_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "grid.txt")
    code, _, _ = run_cli(
        capsys, "schedule", "--kappa", "0.2", "--L", "3", "--K", "7", "--save", path
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "schedule", "--load", path)
    assert code == 0
    assert "[ok]" in out and "FAIL" not in out


def test_cli_schedule_flags_invalid_external_grid(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(
        "kappa = 0.25\nL = 1\nK = 2\nT = 1.1\ndelta = 0.5\ntimes = 0 0.5 0.6\n"
    )
    code, out, _ = run_cli(capsys, "schedule", "--load", str(path))
    assert code == 1
    assert "step_bound" in out


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("kappa = 0.25", "kappa = x", "field kappa"),
        ("L = 4", "L = 4.5", "field L"),
        ("K = 8\n", "K = 8\njunk\n", "'junk'"),
        ("K = 8\n", "K = 8\nK = 8\n", "field 'K'"),
        ("K = 8\n", "K = 8\nseed = 3\n", "field 'seed'"),
        ("1.488", "1.48x", "field times"),
        ("T = 2\n", "", "field 'T'"),
    ],
    ids=["bad-float", "bad-int", "junk-line", "repeated-key", "unknown-key", "bad-time", "missing-field"],
)
def test_cli_schedule_load_rejects_malformed_record_naming_the_field(tmp_path, capsys, old, new, named):
    path = tmp_path / "grid.txt"
    path.write_text(schedule_to_text(build_schedule(0.25, 4, 8)).replace(old, new, 1))
    code, out, err = run_cli(capsys, "schedule", "--load", str(path))
    assert code == 1
    assert named in err and out == ""


def test_artefact_records_are_pinned_byte_for_byte(tmp_path, capsys):
    # Literal bytes of every key-value record the CLI writes, so a change to
    # the record format shows up here rather than in a replayed run.
    assert schedule_to_text(build_schedule(0.25, 4, 8)) == (
        "kappa = 0.25\n"
        "L = 4\n"
        "K = 8\n"
        "T = 2\n"
        "delta = 0.40960000000000002\n"
        "times = 0 0.25 0.5 0.75 1 1.2 1.3599999999999999 1.488 1.5904\n"
    )

    grid = ("--kappa", "0.2", "--L", "10", "--K", "40")
    code, out, _ = run_cli(
        capsys, "sample", *grid, "--measure", "two-point:D=2", "--batch", "1000", "--out", str(tmp_path)
    )
    assert code == 0
    assert open(out.strip()).read().splitlines()[:9] == [
        "# scheme = corrected",
        "# batch = 1000",
        "# seed = 0",
        "# init = standard_normal",
        "# kappa = 0.20000000000000001",
        "# L = 10",
        "# K = 40",
        "# measure = two-point:D=2",
        "0.43631865086173499 0.18477468188972476",
    ]

    code, out, _ = run_cli(
        capsys, "sweep", "--preset", "d-sweep", "--kappa", "0.1", "--horizon", "10", "--delta", "1e-6",
        "--out", str(tmp_path),
    )
    footer = [
        "fit_intercept = 1.6821291321060738e-17",
        "fit_r2 = 1",
        "fit_slope = 0.00066240619399488888",
    ]
    assert code == 0
    assert out == "\n".join(footer + [str(tmp_path / "d-sweep.csv")]) + "\n"
    assert (tmp_path / "d-sweep.meta").read_text() == (
        "name = d-sweep\n"
        "schedule.delta = 9.9999999999999995e-07\n"
        "schedule.horizon = 10\n"
        "schedule.kappa = 0.10000000000000001\n"
        "seed = 0\n"
    )
    assert (tmp_path / "d-sweep.csv").read_text().splitlines()[-3:] == ["# " + line for line in footer]

    code, out, _ = run_cli(capsys, "kl", "--kappa", "0.1", "--L", "90", "--K", "235",
                           "--measure", "gaussian:D=8,rank=2,var=0.25")
    assert code == 0
    assert out == (
        "name = kl_experiment\n"
        "value = 0.0013248123879897877\n"
        "stderr = 0\n"
        "n_samples = 0\n"
        "seed = 0\n"
    )

    code, out, _ = run_cli(capsys, "meter", *grid, "--measure", "gaussian:D=4,rank=1", "--mode", "exact",
                           "--out", str(tmp_path))
    assert code == 0
    components = tmp_path / "meter_components.csv"
    assert out == (
        "name = discretization_error_meter\n"
        "value = 0.28012673493560886\n"
        "stderr = 0\n"
        "n_samples = 0\n"
        "seed = 0\n"
        "quadrature = 0\n"
        f"{components}\n"
    )
    assert components.read_text().splitlines()[:3] == [
        "k,t,value,stderr",
        "0,0,5.703435190096134e-08,0",
        "1,0.20000000000000001,1.2768843579080106e-07,0",
    ]


def test_cli_meter_mc_times_on_stderr_and_pins_its_output(tmp_path, capsys):
    # The wall time goes to stderr only.  stdout and the components file are
    # pinned byte for byte: drawing path points ahead on the pool must not
    # move them.  The value sits 1.41 stderr below the exact meter's
    # 0.28012673493560886.
    code, out, err = run_cli(
        capsys, "meter", "--kappa", "0.2", "--L", "10", "--K", "40", "--measure", "gaussian:D=4,rank=1",
        "--mode", "mc", "--n", "2500", "--out", str(tmp_path),
    )
    components = tmp_path / "meter_components.csv"
    assert code == 0
    assert re.fullmatch(r"wall_time_s = \d+\.\d{3}\n", err)
    assert out == (
        "name = discretization_error_meter\n"
        "value = 0.2776782504941025\n"
        "stderr = 0.0017332581829886333\n"
        "n_samples = 2500\n"
        "seed = 0\n"
        "quadrature = 0\n"
        f"{components}\n"
    )
    text = components.read_bytes()
    rows, footer = text[: text.rindex(b"#")], text[text.rindex(b"#") :]
    assert footer == b"# seed = 0\n"
    assert hashlib.sha256(rows).hexdigest() == "41eac39833c6384dafe1bda2a020718b1f3112c5e8bb3b60691eacd4fe19d4ac"
    assert hashlib.sha256(text).hexdigest() == "7c381aab09e261db11b8de8553a859c4911dd31b2ee849409d894fe0047e81ec"


_SAMPLE = ["sample", "--kappa", "0.2", "--L", "10", "--K", "40", "--measure", "point-mass:D=2", "--batch", "4"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["check", "--n", "0"], "--n"),
        (["check", "--n", "1"], "--n"),
        (["check", "--n", "many"], "--n"),
        (["--seed", "-1", "check", "--n", "2"], "--seed"),
        ([*_SAMPLE, "--seed", "x"], "--seed"),
        # the worker count is the pool's, not a flag
        ([*_SAMPLE, "--workers", "2"], "--workers"),
        (["--workers", "2", *_SAMPLE], "--workers"),
        (["sample", "--kappa", "x", "--L", "10", "--K", "40", "--measure", "point-mass:D=2"], "--kappa"),
        (["meter", "--kappa", "0.2", "--L", "1.5", "--K", "40", "--measure", "point-mass:D=2"], "--L"),
        (["sample", "--kappa", "nan", "--L", "10", "--K", "40", "--measure", "point-mass:D=2"], "schedule.kappa"),
        (["kl", "--kappa", "0.3", "--L", "10", "--K", "40", "--measure", "gaussian:D=2"], "schedule.kappa"),
        (["schedule", "--kappa", "0.1", "--L", "10", "--K", "100000000000000"], "K must be at most"),
        (["schedule", "--L", "4", "--K", "8"], "kappa"),
        (["sweep", "--preset", "d-sweep", "--kappa", "0", "--horizon", "10", "--delta", "1e-6"], "schedule.kappa"),
        (["sweep", "--preset", "d-sweep", "--kappa", "0.1", "--horizon", "1e15", "--delta", "1e-6"], "schedule.horizon"),
        (["sweep", "--preset", "nope"], "--preset"),
        # a batch or MC sample count is a row count: n * D may not pass the cloud cap
        (["sample", "--kappa", "0.2", "--L", "10", "--K", "40", "--measure", "gaussian:D=4,rank=1", "--batch", "1000000000000"], "--batch"),
        ([*_SAMPLE[:-1], "0"], "--batch"),
        (["meter", "--kappa", "0.2", "--L", "10", "--K", "40", "--measure", "point-mass:D=2", "--mode", "mc", "--n", "100000000000"], "--n"),
        (["meter", "--kappa", "0.2", "--L", "10", "--K", "40", "--measure", "point-mass:D=2", "--n", "50"], "--n"),
        # inputs that would be ignored: only sweep reads --config, before or
        # after the subcommand, and --load takes the whole grid from its file
        (["--config", "f.ini", "kl", "--kappa", "0.1", "--L", "90", "--K", "235", "--measure", "gaussian:D=8"], "--config"),
        (["kl", "--kappa", "0.1", "--L", "90", "--K", "235", "--measure", "gaussian:D=8", "--config", "f.ini"], "--config"),
        (["schedule", "--config", "/nonexistent.ini", "--kappa", "0.25", "--L", "4", "--K", "8"], "--config"),
        (["schedule", "--load", "g.txt", "--kappa", "0.1", "--L", "90", "--K", "235"], "--kappa, --L, --K"),
        (["schedule", "--load", "g.txt", "--K", "235"], "--K"),
        # exact mode draws no samples, so it reads no --n
        (["meter", "--kappa", "0.2", "--L", "10", "--K", "40", "--measure", "gaussian:D=4,rank=1", "--mode", "exact", "--n", "5"], "--n"),
        # the exact commands need a closed-form law: gaussian or point-mass
        (["kl", "--kappa", "0.2", "--L", "10", "--K", "40", "--measure", "circle:D=2,n=64"], "--measure circle"),
        (["meter", "--kappa", "0.2", "--L", "10", "--K", "40", "--measure", "circle:D=2,n=64", "--mode", "exact"], "--measure circle"),
    ],
)
def test_cli_inputs_exit_1_naming_the_flag_or_field(tmp_path, capsys, argv, named):
    # --out goes only to a command that reads it: any other rejects it
    command = next(word for word in argv if word in COMMANDS)
    out = ["--out", str(tmp_path)] if "out" in COMMANDS[command][1] else []
    code, _, err = run_cli(capsys, *argv, *out)
    assert code == 1
    assert named in err
    assert not list(tmp_path.iterdir())


# A valid run of each command.
_COMMAND_ARGV = {
    "schedule": ["--kappa", "0.25", "--L", "4", "--K", "8"],
    "kl": ["--kappa", "0.1", "--L", "90", "--K", "235", "--measure", "gaussian:D=8,rank=2,var=0.25"],
    "meter": ["--kappa", "0.2", "--L", "10", "--K", "40", "--measure", "gaussian:D=4,rank=1", "--mode", "exact"],
    "check": ["--n", "200"],
    "sample": ["--kappa", "0.2", "--L", "10", "--K", "40", "--measure", "point-mass:D=2", "--batch", "4"],
    "sweep": ["--preset", "d-sweep", "--kappa", "0.1", "--horizon", "10", "--delta", "1e-6"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_commands_take_only_the_run_flags_they_read(tmp_path, capsys, monkeypatch, command):
    # A run flag the command does not read exits 1 naming it, before or
    # after the subcommand, and nothing is written; one it reads is taken in
    # either place.
    ini = tmp_path / "run.ini"
    ini.write_text("[options]\ndims = 1 2\n")
    # no command reads --workers: the worker count is the pool's
    values = {"seed": "3", "out": "o", "workers": "2", "config": str(ini)}
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    reads = COMMANDS[command][1]
    argv = [command, *_COMMAND_ARGV[command]]
    for flag, value in values.items():
        if flag in reads:
            continue
        for given in ([f"--{flag}", value, *argv], [*argv, f"--{flag}", value]):
            code, _, err = run_cli(capsys, *given)
            assert code == 1, given
            assert f"--{flag}" in err
            assert not list(cwd.iterdir())
    flags = [word for flag in reads for word in (f"--{flag}", values[flag])]
    for given in ([*flags, *argv], [*argv, *flags]):
        code, _, err = run_cli(capsys, *given)
        assert code == 0, (given, err)
    # the command's help lists exactly the run flags it reads
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert {flag for flag in values if f"--{flag} " in out} == set(reads)


def test_cli_malformed_flags_exit_1(capsys):
    code, _, _ = run_cli(capsys, "schedule", "--kappa", "abc", "--L", "4", "--K", "8")
    assert code == 1
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1


def test_cli_validation_error_exit_1(capsys):
    # kappa outside the admissible range is a validation failure
    code, _, err = run_cli(capsys, "schedule", "--kappa", "0.3", "--L", "4", "--K", "8")
    assert code == 1
    assert "error" in err


def test_cli_sample_writes_file(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "sample",
        "--kappa", "0.25", "--L", "2", "--K", "6",
        "--measure", "point-mass:D=2",
        "--batch", "16",
        "--out", str(tmp_path),
        "--seed", "3",
    )
    assert code == 0
    path = out.strip().splitlines()[-1]
    lines = open(path).read().splitlines()
    assert sum(1 for l in lines if not l.startswith("#")) == 16


def test_cli_kl_prints_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "kl",
        "--kappa", "0.2", "--L", "10", "--K", "30",
        "--measure", "gaussian:D=4,rank=1,var=0.25",
    )
    assert code == 0
    assert "name = kl_experiment" in out
    value = float([l for l in out.splitlines() if l.startswith("value")][0].split("=")[1])
    assert value > 0.0


def test_cli_kl_rejects_non_gaussian_measure(capsys):
    code, _, err = run_cli(
        capsys,
        "kl",
        "--kappa", "0.2", "--L", "10", "--K", "30",
        "--measure", "two-point:D=2",
    )
    assert code == 1
    assert "--measure two-point" in err


def test_cli_exact_commands_take_a_point_mass(tmp_path, capsys):
    # C4 on the command line: started from the data's own p_T, the corrected
    # scheme is exact on a point mass up to rounding (8.8e-31), the
    # exponential integrator is not (0.0533); the exact meter reads 0
    kl = ["kl", "--kappa", "0.2", "--L", "10", "--K", "40", "--measure", "point-mass:D=6", "--init", "data_pT"]
    values = {}
    for scheme in ("corrected", "exponential_integrator"):
        code, out, _ = run_cli(capsys, *kl, "--scheme", scheme)
        assert code == 0
        values[scheme] = float(re.search(r"^value = (.*)$", out, re.M).group(1))
    assert values["corrected"] <= 1e-20
    assert values["exponential_integrator"] >= 0.05
    code, out, _ = run_cli(capsys, "meter", "--kappa", "0.2", "--L", "10", "--K", "40",
                           "--measure", "point-mass:D=16", "--mode", "exact", "--out", str(tmp_path))
    assert code == 0
    assert re.search(r"^value = (.*)$", out, re.M).group(1) == "0"


def test_cli_meter_exact(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "meter",
        "--kappa", "0.2", "--L", "5", "--K", "15",
        "--measure", "gaussian:D=3,rank=1,var=0.25",
        "--mode", "exact",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "discretization_error_meter" in out
    comp = open(os.path.join(str(tmp_path), "meter_components.csv")).read()
    assert comp.startswith("k,t,value,stderr")


def test_cli_check_deterministic_output(capsys):
    code1, out1, _ = run_cli(capsys, "check", "--n", "2000", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "check", "--n", "2000", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_sweep_requires_explicit_schedule(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--preset", "d-sweep", "--out", str(tmp_path))
    assert code == 1
    assert "explicit" in err


def test_cli_sweep_runs_preset(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--preset", "K-sweep",
        "--kappa", "0.2", "--horizon", "3.0", "--delta", "1e-3",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert os.path.exists(os.path.join(str(tmp_path), "K-sweep.csv"))


def test_cli_sweep_reads_an_L_K_schedule_as_run_experiment_does(tmp_path, capsys):
    ini = tmp_path / "f.ini"
    ini.write_text("[experiment]\nseed = 3\n\n[schedule]\nkappa = 0.1\nL = 90\nK = 235\n\n[options]\nD = 8\ndims = 1 2\n")
    code, _, err = run_cli(capsys, "sweep", "--preset", "d-sweep", "--config", str(ini), "--out", str(tmp_path / "cli"))
    assert code == 0, err
    cfg = load_config(str(ini))
    cfg.name, cfg.out_dir = "d-sweep", str(tmp_path / "direct")
    base, _ = run_experiment(cfg)
    for ext in (".csv", ".json", ".meta", ".svg"):
        assert (tmp_path / "cli" / ("d-sweep" + ext)).read_bytes() == open(base + ext, "rb").read(), ext


@pytest.mark.parametrize(
    "schedule, named",
    [("L = 4\nK = 9\nhorizon = 3\ndelta = 1e-3", "not both"), ("L = 4\nK = 9", "schedule.horizon")],
)
def test_cli_K_sweep_takes_horizon_and_delta_not_L_and_K(tmp_path, capsys, schedule, named):
    ini = tmp_path / "f.ini"
    ini.write_text(f"[schedule]\nkappa = 0.2\n{schedule}\n")
    code, _, err = run_cli(capsys, "sweep", "--preset", "K-sweep", "--config", str(ini), "--out", str(tmp_path / "o"))
    assert code == 1
    assert named in err
    assert not (tmp_path / "o").exists()


def test_cli_K_sweep_past_the_step_cap_exits_1_before_any_work(tmp_path, capsys):
    # the given grid has about 2e4 steps, the finest of ten doublings 2e7
    ini = tmp_path / "f.ini"
    ini.write_text("[schedule]\nkappa = 0.25\nhorizon = 5e3\ndelta = 1e-3\n\n[options]\ndoublings = 10\n")
    code, _, err = run_cli(capsys, "sweep", "--preset", "K-sweep", "--config", str(ini), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "schedule.horizon" in err
    assert not (tmp_path / "o").exists()


def test_lemma_suite_preset_writes_the_suite_table(tmp_path):
    cfg = ExperimentConfig(name="lemma-suite", seed=4, out_dir=str(tmp_path), options={"n": "500"})
    base, footer = run_experiment(cfg)
    rows, ok = lemma_suite(4, 500)
    payload = json.loads(open(base + ".json").read())
    assert payload["columns"] == ["check", "case", "value", "stderr", "z", "passed"]
    assert payload["rows"] == [[c, case, v, se, z, int(p)] for c, case, v, se, z, p in rows]
    assert footer == {"all_passed": int(ok)}
    assert "options.n = 500" in open(base + ".meta").read().splitlines()
    assert not os.path.exists(base + ".svg")


def test_lemma_suite_fails_rows_that_are_not_finite(monkeypatch):
    # every estimate and stderr NaN: such rows must fail, not pass with z = 0
    monkeypatch.setattr(metrics, "_mean_stderr", lambda v: (math.nan, math.nan))
    rows, ok = lemma_suite(0, n=20)
    assert not ok
    bad = [r for r in rows if not all(map(math.isfinite, r[2:5]))]
    assert {r[0] for r in bad} >= {"martingale", "monotonicity"}
    assert not any(r[5] for r in bad)


def test_eps_sweep_quadratic_slope(tmp_path):
    cfg = small_sweep_config("eps-sweep", tmp_path, D=4, d=1)
    base, footer = run_experiment(cfg)
    assert abs(footer["loglog_slope"] - 2.0) < 0.05
    assert os.path.exists(base + ".svg")


def test_eps_sweep_reads_perturbation_section(tmp_path):
    cfg = small_sweep_config("eps-sweep", tmp_path, D=3, d=1, eps="0.01 0.04")
    cfg.perturbation["constant"] = "0 1 0"
    base, footer = run_experiment(cfg)
    payload = json.loads(open(base + ".json").read())
    assert len(payload["rows"]) == 2


# Each Gaussian preset at small options, rebuilt from direct metrics calls at
# small_sweep_config's seed and schedule: (options, rows, footer, plot series,
# plot keywords).
SEED, SCHEDULE = 3, {"kappa": 0.2, "horizon": 3.0, "delta": 1e-3}


def gaussian_law(D, d):
    return build_measure(f"gaussian:D={D},rank={d},var=0.25", SEED).law


def exact_kl(law, sched, init="standard_normal"):
    return metrics.kl_experiment(law, ReverseRunConfig(schedule=sched, seed=SEED, init=init)).value


def exact_budget(law, sched):
    return metrics.discretization_error_meter(GaussianOracle(law), sched, 0, None, mode="exact").value


def expected_d_sweep():
    sched, dims = resolve_schedule(SCHEDULE), [1, 2, 4]
    laws = [gaussian_law(8, d) for d in dims]
    rows = [(d, exact_kl(law, sched), exact_kl(law, sched, "data_pT"), exact_budget(law, sched)) for d, law in zip(dims, laws)]
    footer = dict(zip(("fit_slope", "fit_intercept", "fit_r2"), _linear_fit(dims, [r[2] for r in rows])))
    series = [("terminal", dims, [r[2] for r in rows]), ("budget", dims, [r[3] for r in rows])]
    style = {"title": "discretization error vs intrinsic dimension", "xlabel": "intrinsic dimension", "ylabel": "exact value"}
    return {"D": "8", "dims": "1 2 4"}, rows, footer, series, style


def expected_D_sweep():
    sched, dims = resolve_schedule(SCHEDULE), [4, 8]
    rows = []
    for D in dims:
        law = gaussian_law(D, 1)
        init = metrics.gaussian_kl(metrics.marginal_law(law, sched.horizon), GaussianLaw.isotropic(D))
        rows.append((D, exact_kl(law, sched), exact_kl(law, sched, "data_pT"), init))
    totals, inits = [r[1] for r in rows], [r[3] for r in rows]
    footer = {
        "kl_spread": max(totals) - min(totals),
        "init_kl_spread": max(inits) - min(inits),
        "spread_bound": 1e-6 + max(inits) - min(inits),
    }
    style = {"title": "terminal KL vs ambient dimension", "xlabel": "ambient dimension", "ylabel": "KL", "log_x": True}
    return {"dims": "4 8", "d": "1"}, rows, footer, [("terminal KL", dims, totals)], style


def expected_K_sweep():
    law, rows = gaussian_law(4, 1), []
    for kappa in (0.2, 0.1):
        sched = resolve_schedule({**SCHEDULE, "kappa": kappa})
        rows.append((kappa, sched.n_uniform, sched.n_steps, exact_budget(law, sched), exact_kl(law, sched, "data_pT")))
    footer = {"budget_factor_1": rows[0][3] / rows[1][3], "kl_factor_1": rows[0][4] / rows[1][4]}
    Ks = [r[2] for r in rows]
    series = [("budget", Ks, [r[3] for r in rows]), ("terminal KL", Ks, [r[4] for r in rows])]
    style = {"title": "discretization error vs step count", "xlabel": "K", "ylabel": "exact value", "log_x": True, "log_y": True}
    return {"doublings": "1", "D": "4", "d": "1"}, rows, footer, series, style


def expected_eps_sweep():
    law, sched, eps = gaussian_law(3, 1), resolve_schedule(SCHEDULE), [0.01, 0.02, 0.04]
    reps = [metrics.score_error_budget(law, ScorePerturbation(e, constant=np.array([1.0, 0.0, 0.0])), sched) for e in eps]
    rows = [(e, r.value, r.extras["kl_excess"], r.extras["kl_excess_per_budget"]) for e, r in zip(eps, reps)]
    footer = {"loglog_slope": float(np.polyfit(np.log(eps), np.log([r[2] for r in rows]), 1)[0])}
    style = {"title": "KL excess vs score bias magnitude", "xlabel": "bias scale", "ylabel": "KL excess", "log_x": True, "log_y": True}
    return {"D": "3", "d": "1", "eps": "0.01 0.02 0.04"}, rows, footer, [("KL excess", eps, [r[2] for r in rows])], style


EXPECTED_PRESETS = {
    "d-sweep": expected_d_sweep,
    "D-sweep": expected_D_sweep,
    "K-sweep": expected_K_sweep,
    "eps-sweep": expected_eps_sweep,
}


@pytest.mark.parametrize("preset", EXPECTED_PRESETS)
def test_gaussian_presets_wire_each_column_and_plot_series_to_its_metric(tmp_path, preset):
    options, rows, footer, series, style = EXPECTED_PRESETS[preset]()
    cfg = ExperimentConfig(name=preset, seed=SEED, out_dir=str(tmp_path), schedule=dict(SCHEDULE), options=options)
    base, got = run_experiment(cfg)
    assert json.loads(open(base + ".json").read())["rows"] == [list(row) for row in rows]
    assert got == footer
    _svg.line_plot(tmp_path / "expected.svg", series, **style)
    assert open(base + ".svg", "rb").read() == (tmp_path / "expected.svg").read_bytes()


# A small valid run of each preset, and a value for every key of each config
# section a preset may read.
_PRESET_OPTIONS = {
    "d-sweep": "D = 4\ndims = 1 2\n",
    "D-sweep": "dims = 4 8\nd = 1\n",
    "K-sweep": "doublings = 1\nD = 4\nd = 1\n",
    "eps-sweep": "D = 2\nd = 1\neps = 0.01 0.02\n",
    "lemma-suite": "n = 200\n",
}
_SECTION_VALUES = {
    "schedule": {"kappa": "0.2", "horizon": "3", "delta": "1e-3", "l": "10", "k": "40"},
    "perturbation": {"constant": "1"},
}


@pytest.mark.parametrize("preset", PRESETS)
def test_presets_take_only_the_config_sections_and_flags_they_read(tmp_path, capsys, preset):
    # Any key of a section the preset does not read, in a config file or as a
    # schedule flag, exits 1 naming <section>.<key> and writes nothing.
    reads = PRESETS[preset][2]
    out = tmp_path / "out"
    for section, values in _SECTION_VALUES.items():
        if section in reads:
            continue
        for key, value in values.items():
            ini = tmp_path / "f.ini"
            ini.write_text(f"[{section}]\n{key} = {value}\n")
            code, _, err = run_cli(capsys, "sweep", "--preset", preset, "--config", str(ini), "--out", str(out))
            assert code == 1, (section, key)
            assert f"{section}.{key}" in err and preset in err
            if section == "schedule" and key in ("kappa", "horizon", "delta"):
                code, _, err = run_cli(capsys, "sweep", "--preset", preset, f"--{key}", value, "--out", str(out))
                assert code == 1, key
                assert f"schedule.{key}" in err
            assert not out.exists()
    # every section it reads is taken, with its small options
    schedule = _SECTION_VALUES["schedule"]
    text = "[options]\n" + _PRESET_OPTIONS[preset]
    if "schedule" in reads:
        text += "[schedule]\n" + "".join(f"{k} = {schedule[k]}\n" for k in ("kappa", "horizon", "delta"))
    if "perturbation" in reads:
        text += "[perturbation]\nconstant = 1\n"
    ini = tmp_path / "ok.ini"
    ini.write_text(text)
    code, _, err = run_cli(capsys, "sweep", "--preset", preset, "--config", str(ini), "--out", str(out))
    assert code == 0, err
    assert (out / f"{preset}.csv").exists()


def write_sweep_ini(path, options):
    path.write_text("[experiment]\nSeed = 3\n\n[options]\n" + options)
    return str(path)


def test_cli_config_options_keep_key_case(tmp_path, capsys):
    ini = write_sweep_ini(tmp_path / "f.ini", "D = 64\ndims = 1 2\n")
    code, _, err = run_cli(
        capsys,
        "sweep", "--preset", "d-sweep", "--config", ini,
        "--kappa", "0.2", "--horizon", "3.0", "--delta", "1e-3",
        "--out", str(tmp_path / "cli"),
    )
    assert code == 0, err
    meta = (tmp_path / "cli" / "d-sweep.meta").read_text()
    assert "options.D = 64" in meta and "options.d " not in meta
    base, _ = run_experiment(small_sweep_config("d-sweep", tmp_path / "direct", D=64, dims="1 2"))
    assert (tmp_path / "cli" / "d-sweep.csv").read_bytes() == open(base + ".csv", "rb").read()
    base32, _ = run_experiment(small_sweep_config("d-sweep", tmp_path / "default", dims="1 2"))
    assert open(base32 + ".csv", "rb").read() != open(base + ".csv", "rb").read()


def test_cli_config_rejects_unknown_option_key(tmp_path, capsys):
    ini = write_sweep_ini(tmp_path / "f.ini", "D = 64\nDims = 1 2\n")
    code, _, err = run_cli(
        capsys,
        "sweep", "--preset", "d-sweep", "--config", ini,
        "--kappa", "0.2", "--horizon", "3.0", "--delta", "1e-3",
        "--out", str(tmp_path),
    )
    assert code == 1
    assert "'Dims'" in err and "d-sweep" in err
    assert not (tmp_path / "d-sweep.csv").exists()


@pytest.mark.parametrize(
    "text, named",
    [
        ("[experiment]\nsede = 5\n", "experiment.sede"),
        # the preset comes from --preset and the directory from --out
        ("[experiment]\nname = K-sweep\n", "experiment.name"),
        ("[experiment]\nout_dir = mydir\n", "experiment.out_dir"),
        ("[schedule]\nkapa = 0.1\n", "schedule.kapa"),
        ("[perturbation]\nconst = 0 1\n", "perturbation.const"),
        ("[measure]\nkind = circle\n", "measure.kind"),
        ("[experiment]\nseed = 1\nseed = 2\n", "'seed'"),
        ("seed = 1\n", "no section headers"),
        ("[experiment]\nseed = -1\n", "experiment.seed"),
        ("[experiment]\nseed = 1.5\n", "experiment.seed"),
        # the worker count is the pool's, not a config key
        ("[experiment]\nworkers = 0\n", "experiment.workers"),
        ("[experiment]\nworkers = two\n", "experiment.workers"),
        # outside [options] keys ignore case, so a key repeated in another case would let the last one win
        ("[experiment]\nseed = 1\nSeed = 2\n", "experiment.Seed repeats experiment.seed"),
        ("[schedule]\nL = 90\nl = 50\n", "schedule.l repeats schedule.L"),
    ],
)
def test_cli_config_rejects_unknown_or_malformed_entries(tmp_path, capsys, text, named):
    ini = tmp_path / "f.ini"
    ini.write_text(text)
    code, _, err = run_cli(
        capsys,
        "sweep", "--preset", "d-sweep", "--config", str(ini),
        "--kappa", "0.2", "--horizon", "3.0", "--delta", "1e-3",
        "--out", str(tmp_path),
    )
    assert code == 1
    assert named in err
    assert not (tmp_path / "d-sweep.csv").exists()


@pytest.mark.parametrize(
    "preset, option, named",
    [
        ("d-sweep", "D = abc", "options.D"),
        ("d-sweep", "D = 16385", "options.D"),
        ("d-sweep", "dims = 1 x", "options.dims"),
        ("d-sweep", "dims = 1 -1", "options.dims"),
        ("d-sweep", "dims = 4 40", "options.dims"),  # a rank above the default D = 32
        ("d-sweep", "dims =", "options.dims"),
        ("d-sweep", "var = -1", "options.var"),
        ("D-sweep", "dims = 4 0", "options.dims"),
        ("D-sweep", "dims = 4 16385", "options.dims"),
        ("D-sweep", "d = 5", "options.d"),  # above the smallest D = 4
        ("D-sweep", "var = inf", "options.var"),
        ("K-sweep", "D = 0", "options.D"),
        ("K-sweep", "d = 9", "options.d"),
        ("K-sweep", "var = nan", "options.var"),
        ("eps-sweep", "D = 2.5", "options.D"),
        ("eps-sweep", "d = -1", "options.d"),
        ("eps-sweep", "var = 0", "options.var"),
    ],
)
def test_cli_preset_options_take_the_gaussian_spec_ranges(tmp_path, capsys, preset, option, named):
    ini = write_sweep_ini(tmp_path / "f.ini", option + "\n")
    code, _, err = run_cli(
        capsys,
        "sweep", "--preset", preset, "--config", ini,
        "--kappa", "0.2", "--horizon", "3.0", "--delta", "1e-3",
        "--out", str(tmp_path),
    )
    assert code == 1
    assert named in err
    assert not (tmp_path / f"{preset}.csv").exists()


@pytest.mark.parametrize(
    "preset, entries, named",
    [
        ("K-sweep", "doublings = -1", "options.doublings"),
        ("K-sweep", "doublings = 11", "options.doublings"),
        ("K-sweep", "doublings = 1.5", "options.doublings"),
        ("eps-sweep", "eps = 0 0.01", "options.eps"),
        ("eps-sweep", "eps = 0.01 nan", "options.eps"),
        ("eps-sweep", "eps = 0.01", "options.eps"),
        ("eps-sweep", "eps = 0.01 0.01", "options.eps"),
        ("lemma-suite", "n = 0", "options.n"),
        ("lemma-suite", "n = 1", "options.n"),
        ("lemma-suite", "n = many", "options.n"),
        ("eps-sweep", "D = 4\n[perturbation]\nconstant = 1 0 0 0 0 0", "perturbation.constant"),
        ("eps-sweep", "D = 4\n[perturbation]\nconstant = 1 inf", "perturbation.constant"),
        ("eps-sweep", "D = 4\n[perturbation]\nconstant = 0 0", "perturbation.constant"),
        ("eps-sweep", "D = 4\n[perturbation]\nconstant =", "perturbation.constant"),
    ],
)
def test_cli_preset_inputs_exit_1_naming_the_field(tmp_path, capsys, preset, entries, named):
    ini = write_sweep_ini(tmp_path / "f.ini", entries + "\n")
    # schedule flags go only to a preset that reads a schedule: any other rejects them
    schedule = ["--kappa", "0.2", "--horizon", "3.0", "--delta", "1e-3"] if "schedule" in PRESETS[preset][2] else []
    code, _, err = run_cli(capsys, "sweep", "--preset", preset, "--config", ini, *schedule, "--out", str(tmp_path))
    assert code == 1
    assert named in err
    assert not (tmp_path / f"{preset}.csv").exists()


@pytest.mark.parametrize("key, value", [("kappa", "x"), ("horizon", "3.0.0"), ("delta", "")])
def test_cli_config_schedule_values_name_the_field(tmp_path, capsys, key, value):
    fields = {"kappa": "0.2", "horizon": "3.0", "delta": "1e-3", key: value}
    ini = tmp_path / "f.ini"
    ini.write_text("[schedule]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items()))
    for preset in ("d-sweep", "K-sweep"):
        code, _, err = run_cli(
            capsys, "sweep", "--preset", preset, "--config", str(ini), "--out", str(tmp_path)
        )
        assert code == 1
        assert f"schedule.{key}" in err
        assert not (tmp_path / f"{preset}.csv").exists()


def test_cli_seed_flag_overrides_config_and_workers_is_rejected(tmp_path, capsys):
    ini = write_sweep_ini(tmp_path / "f.ini", "dims = 1 2\n")
    schedule = ["--kappa", "0.2", "--horizon", "3.0", "--delta", "1e-3"]
    argv = ["sweep", "--preset", "d-sweep", "--config", ini, *schedule]
    code, _, err = run_cli(capsys, *argv, "--seed", "7", "--out", str(tmp_path / "cli"))
    assert code == 0, err
    meta = (tmp_path / "cli" / "d-sweep.meta").read_text().splitlines()
    assert "seed = 7" in meta and not any("workers" in line for line in meta)
    # without the flag the file's seed holds
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "file"))
    assert code == 0, err
    assert "seed = 3" in (tmp_path / "file" / "d-sweep.meta").read_text().splitlines()
    # the worker count is the pool's: --workers and [experiment] workers exit 1 naming themselves
    (tmp_path / "w.ini").write_text("[experiment]\nworkers = 2\n")
    for given, named in [
        (["--workers", "2", *argv], "--workers"),
        ([*argv, "--workers", "2"], "--workers"),
        (["sweep", "--preset", "d-sweep", "--config", str(tmp_path / "w.ini"), *schedule], "experiment.workers"),
    ]:
        code, _, err = run_cli(capsys, *given, "--out", str(tmp_path / "w"))
        assert code == 1 and named in err, given
        assert not (tmp_path / "w").exists()
    for help_argv in (["--help"], *([name, "--help"] for name in COMMANDS)):
        code, out, _ = run_cli(capsys, *help_argv)
        assert code == 0 and "--workers" not in out


def _check_lines(rows, ok):
    lines = [
        f"[{'pass' if passed else 'FAIL'}] {check:<22} {case:<34} value={value:+.6e} stderr={stderr:.3e} z={z:+.2f}"
        for check, case, value, stderr, z, passed in rows
    ]
    return "\n".join([*lines, f"lemma suite: {'all passed' if ok else 'FAILURES PRESENT'}"]) + "\n"


@pytest.mark.parametrize("pool", [None, 3])
def test_cli_pooled_runs_equal_one_worker_api_runs(tmp_path, capsys, monkeypatch, pool):
    # The CLI runs the sampler's blocks and the lemma-suite cases on every
    # pool thread; its outputs must equal the API's at one worker.  pool = 3
    # forces the pooled path on a machine with fewer cores.
    if pool is not None:
        monkeypatch.setattr(harness, "_pool_size", lambda: pool)
    grid = ["--kappa", "0.2", "--L", "10", "--K", "40"]
    # the CI's torus is one block of two 1024-sample chunks; the point mass
    # at D = 16 is five chunks in blocks of 2, 2 and 1
    for spec, batch in [("torus:D=4,d=2,n=1024", 2048), ("point-mass:D=16", 5000)]:
        out = tmp_path / spec.partition(":")[0]
        code, _, err = run_cli(capsys, "sample", *grid, "--measure", spec, "--batch", str(batch), "--out", str(out))
        assert code == 0, err
        cfg = ReverseRunConfig(build_schedule(0.2, 10, 40), batch=batch, seed=0, n_workers=1)
        save_batch(str(tmp_path / "api.txt"), run_reverse(cfg, build_measure(spec, 0)), extra_meta={"measure": spec})
        assert (out / "sample.txt").read_bytes() == (tmp_path / "api.txt").read_bytes(), spec
    code, out, _ = run_cli(capsys, "check", "--n", "500", "--seed", "3")
    rows, ok = lemma_suite(3, 500, workers=1)
    assert code == (0 if ok else 1)
    assert out == _check_lines(rows, ok)


def test_python_m_revdiff_runs_without_runtime_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "revdiff", "schedule", "--kappa", "0.25", "--L", "4", "--K", "8"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "kappa = 0.25" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_python_m_revdiff_harness_exits_1_naming_the_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "revdiff.harness", "kl", "--kappa", "0.1", "--L", "90", "--K", "235",
         "--measure", "gaussian:D=8,rank=2,var=0.25"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "python -m revdiff" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
