"""revdiff benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a child
process of its own (``bench/workloads.py``) with PYTHONPATH pointing at the
checkout's ``src`` and every BLAS/OpenMP pool pinned to one thread; the
workload itself uses 2 worker threads.  ``setup_s`` is the median of several
fresh child processes that each import revdiff and build the workload's
fixed inputs; ``peak_rss_mb`` is the workload process's peak resident size.  Metric names and units come from ``BENCHMARK.json``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the environment record.  The full result, with the
failure list and per-pass figures, and the span trace of a traced run are
written under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
SETUP_PROBES = 8
# The whole run must end within 180 s; the workload child gets what is left.
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment(seed: int, child: dict) -> dict:
    """Machine and software record attached to every result."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"l{level}"] = size

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_hash.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "blas": child["blas"],
        "blas_threads_pinned": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "note": "measures.cloud.diff_bytes_computed is computed from call shapes, not measured",
    }


def run_child(args, env, timeout):
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed nothing")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "revdiff" / "__init__.py").is_file():
        return fail(f"no revdiff source tree under {ROOT / 'src'}; run from a source checkout")
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())

    ap = argparse.ArgumentParser(description="revdiff benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = child_env()
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    try:
        # Half the set-up probes run before the workload and half after, so
        # their median spans the run rather than one moment of it.
        setups = [run_child([*common, "--setup-only"], env, 60)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        remaining = DEADLINE_S - SETUP_PROBES * 2.0 - (time.monotonic() - start)
        child = run_child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env,
            remaining,
        )
        setups += [run_child([*common, "--setup-only"], env, 60)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    except (OSError, ValueError, IndexError, RuntimeError, subprocess.SubprocessError) as exc:
        return fail(f"{type(exc).__name__}: {exc}")

    if args.trace:
        wanted = spec["per_layer"]
        values = child["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {**child["metrics"], "setup_s": statistics.median(setups), "peak_rss_mb": child["peak_rss_mb"]}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"workload did not produce metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env_record = environment(args.seed, child)
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_record,
        "setup_s_samples": setups,
        **child,
    }
    (work / "result.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    for failure in child["failures"]:
        print(f"bench: failed operation: {failure}", file=sys.stderr)
    print("environment " + json.dumps(env_record, sort_keys=True))
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
