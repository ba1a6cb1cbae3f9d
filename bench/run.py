"""End-to-end benchmark of the crossmesh Monte-Carlo sweeps.

Usage, from the repository root::

    python3 bench/run.py                          # every workload, end-to-end metrics
    python3 bench/run.py --trace 1                # every workload, traced per-layer metrics
    python3 bench/run.py --workload phase-svd --seed 7 --seconds 40 --trace 0

The runner drives the real CLI from outside, as a user would, through
``python -c "from crossmesh.cli import console_entry; console_entry()"``
with ``PYTHONPATH=src``.  Every time is host wall time of that process; the
simulated optics has no clock.  CPU seconds and peak memory come from
``wait4`` on the spawned command, so they include its worker processes.

With ``--trace 0`` the sweep is repeated for ``--seconds``; sweep times are
reported at their upper quartile, set-up time and memory as medians.
With ``--trace 1`` untraced sweeps alternate with sweeps under
``bench/trace_run.py`` (in-process, one worker) for ``--seconds``, and the
per-layer numbers are medians over the traced ones.

Every CSV is checked: against ``bench/reference/<workload>/<seed>.csv``
when that file exists, and against analytic invariants for any seed.  For
one workload the last line of standard output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every check passed.  If the program cannot be started at
all, the runner exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shlex
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIR = BENCH_DIR / "reference"

ENTRY = "from crossmesh.cli import console_entry; console_entry()"
DEFAULT_SEED = 1234
DEFAULT_SECONDS = 40
SETUP_RUNS = 7
SETUP_EVERY = 4  # one set-up timing before every fourth sweep
COMMAND_TIMEOUT_S = 120.0

# Reference agreement: reordered floating-point sums (~1e-15) pass, a
# 1e-6 drift fails.  Invariants hold to rounding.
REFERENCE_ATOL = 1e-9
INVARIANT_ATOL = 1e-12

# Removed from the command's environment so BLAS runs at its library
# default thread count, as users get it; the probe records that count.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# (name, unit, better) of the metrics each mode reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


# The modules of src/crossmesh; their self times sum to the traced run time.
LAYERS = ("cli", "svgchart", "montecarlo", "clements", "crossbar", "nodes", "linalg")


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    metrics = []
    per_function = (
        ("clements.apply_common_deviation", ("s", "calls", "ms_n64")),
        ("clements.evaluate_svd_clements", ("self_s", "calls", "ms_n64")),
        ("clements.apply_mesh", ("s", "calls")),
        ("nodes.voa_transfer_at", ("s", "calls")),
        ("clements.clements_decompose", ("s", "calls", "ms_n64")),
        ("clements.build_svd_clements", ("self_s",)),
        ("linalg.svd_factorize", ("s", "calls")),
        ("crossbar.weights_with_common_deviation", ("s", "calls", "ms_n64")),
        ("crossbar.realized_matrix", ("s", "calls")),
        ("crossbar.transmission_matrix", ("s", "calls")),
        ("crossbar.build_xbar", ("s",)),
        ("montecarlo.trial_rng", ("s", "calls")),
        ("montecarlo.target_matrix", ("s",)),
        ("linalg.random_target_matrix", ("s",)),
        ("linalg.fidelity", ("s", "calls")),
        ("svgchart.line_chart", ("s",)),
    )
    units = {"s": "s", "self_s": "s", "calls": "count", "ms_n64": "ms"}
    for function, fields in per_function:
        metrics += [(f"{function}.{f}", units[f], "lower") for f in fields]
    metrics += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    metrics += [
        ("montecarlo.redundant_trial_share", "fraction", "lower"),
        ("trace.self_sum_s", "s", "lower"),
        ("trace.outside_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return tuple(metrics)


PER_LAYER = _per_layer()


@dataclass(frozen=True)
class Workload:
    """One fixed CLI sweep; only the seed varies between runs."""

    name: str
    subcommand: str
    archs: tuple[str, ...]
    n_values: tuple[int, ...]
    grid_flag: str
    grid: tuple[float, float, float]  # start, stop, step as the CLI reads them
    matrices: int
    trials: int | None
    workers: int

    def grid_values(self) -> tuple[float, ...]:
        # Same arithmetic as crossmesh.cli.parse_value_list.
        start, stop, step = self.grid
        count = int(math.floor((stop - start) / step + 0.5)) + 1
        return tuple(start + k * step for k in range(count))

    @property
    def samples_per_point(self) -> int:
        return self.matrices * (self.trials or 1)

    def points(self) -> list[tuple[str, int, float]]:
        return [(a, n, v) for a in self.archs for n in self.n_values for v in self.grid_values()]

    def cli_args(self, seed: int, out: Path, svg: Path, workers: int | None = None) -> list[str]:
        args = [
            self.subcommand,
            "--arch", ",".join(self.archs),
            "--n", ",".join(str(n) for n in self.n_values),
            self.grid_flag, ":".join(f"{g:g}" for g in self.grid),
            "--matrices", str(self.matrices),
        ]
        if self.trials is not None:
            args += ["--trials", str(self.trials)]
        args += [
            "--threads", str(self.workers if workers is None else workers),
            "--seed", str(seed),
            "--out", os.path.relpath(out, ROOT),
            "--svg", os.path.relpath(svg, ROOT),
        ]
        return args


# Why each workload exists is recorded in bench/NOTES.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("phase-svd", "fidelity-phase", ("svd-clements",), (16, 64),
                 "--sigma", (0.0, 0.1, 0.05), matrices=1, trials=10, workers=1),
        Workload("loss-parallel", "fidelity-loss", ("xbar", "svd-clements"), (32, 64),
                 "--node-loss", (0.0, 1.0, 0.5), matrices=6, trials=None, workers=2),
        Workload("phase-xbar", "fidelity-phase", ("xbar",), (16, 64),
                 "--sigma", (0.0, 0.2, 0.05), matrices=10, trials=30, workers=1),
    )
}


class SetupFailed(RuntimeError):
    """The program could not be started; no result is printed."""


# --------------------------------------------------------------------------
# Spawning and measuring one command


@dataclass
class Measured:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-c", ENTRY, *args]


def spawn(argv: list[str], log_path: Path, timeout: float = COMMAND_TIMEOUT_S) -> Measured:
    """Run ``argv`` from the repository root and wait for it and its children.

    Wall time runs from just before the spawn to the moment ``wait4``
    returns; CPU time and peak RSS are that call's resource usage, which
    covers the command and every child process it waited for.  A command
    that outlives ``timeout`` is killed with its process group.
    """
    reaped: list = []
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
        )

        def reap():
            reaped.append(os.wait4(proc.pid, 0))
            reaped.append(time.perf_counter())

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(timeout)
        if waiter.is_alive():
            os.killpg(proc.pid, signal.SIGKILL)
            waiter.join()
    (_pid, status, usage), ended = reaped
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Measured(
        returncode=proc.returncode,
        wall_s=ended - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


# --------------------------------------------------------------------------
# Output checks


def load_reference(workload: Workload, seed: int) -> list[dict] | None:
    path = REFERENCE_DIR / workload.name / f"{seed}.csv"
    if not path.is_file():
        return None
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _row_key(row: dict, value_column: str) -> tuple[str, int, float]:
    return row["arch"], int(row["n"]), round(float(row[value_column]), 9)


def check_csv(
    workload: Workload, seed: int, csv_path: Path, returncode: int,
    reference: list[dict] | None,
) -> tuple[int, list[str], int]:
    """Check one sweep's CSV; return (failed points, problems, samples).

    Every expected (arch, n, grid value) point fails if the command exited
    non-zero or left no CSV.  Otherwise a point fails if its row is
    missing, repeated, not finite, breaks an invariant, or differs from the
    reference row by more than ``REFERENCE_ATOL``.  Unexpected rows count
    as failed points too.
    """
    expected = [(a, n, round(v, 9)) for a, n, v in workload.points()]
    if returncode != 0:
        return len(expected), [f"exit code {returncode}"], 0
    if not csv_path.is_file():
        return len(expected), [f"no CSV written at {csv_path.name}"], 0
    value_column = "sigma_rad" if workload.grid_flag == "--sigma" else "il_node_db"
    try:
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        by_key: dict = {}
        for row in rows:
            by_key.setdefault(_row_key(row, value_column), []).append(row)
        ref_by_key = {_row_key(r, value_column): r for r in reference or ()}
    except (KeyError, ValueError, TypeError, csv.Error) as exc:
        return len(expected), [f"unreadable CSV: {exc}"], 0

    failed, problems, samples = 0, [], 0
    for key in expected:
        errors = _point_errors(workload, seed, key, by_key.get(key, []),
                               ref_by_key.get(key) if reference is not None else {})
        if errors:
            failed += 1
            problems.append(f"{key}: {'; '.join(errors)}")
        else:
            samples += int(by_key[key][0]["n_samples"])
    unexpected = sorted(set(by_key) - set(expected))
    if unexpected:
        failed += len(unexpected)
        problems.append(f"unexpected rows {unexpected}")
    return failed, problems, samples


def _point_errors(workload: Workload, seed: int, key, rows: list[dict],
                  ref: dict | None) -> list[str]:
    """Problems of one point's rows; ``ref`` is {} when no reference applies."""
    if not rows:
        return ["row missing"]
    if len(rows) > 1:
        return ["row repeated"]
    row = rows[0]
    try:
        mean, std = float(row["fidelity_mean"]), float(row["fidelity_std"])
        n_samples, row_seed = int(row["n_samples"]), int(row["seed"])
    except (KeyError, ValueError, TypeError) as exc:
        return [f"bad field: {exc}"]
    if not (math.isfinite(mean) and math.isfinite(std)):
        return ["not finite"]
    errors = []
    if not (0.0 <= mean <= 1.0 + INVARIANT_ATOL):
        errors.append(f"fidelity_mean {mean!r} outside [0, 1]")
    if std < 0.0:
        errors.append(f"fidelity_std {std!r} negative")
    arch, _n, value = key
    if workload.grid_flag == "--sigma" and value == 0.0 and abs(mean - 1.0) > INVARIANT_ATOL:
        errors.append(f"sigma = 0 fidelity {mean!r} != 1")
    if workload.grid_flag == "--node-loss" and arch == "xbar" and abs(mean - 1.0) > INVARIANT_ATOL:
        errors.append(f"balanced crossbar loss fidelity {mean!r} != 1")
    if n_samples != workload.samples_per_point:
        errors.append(f"n_samples {n_samples} != {workload.samples_per_point}")
    if row_seed != seed:
        errors.append(f"seed column {row_seed} != {seed}")
    if ref is None:
        errors.append("no reference row")
    elif ref:
        for column, got in (("fidelity_mean", mean), ("fidelity_std", std)):
            if abs(got - float(ref[column])) > REFERENCE_ATOL:
                errors.append(f"{column} {got!r} != reference {ref[column]}")
    return errors


@dataclass
class SweepResult:
    measured: Measured
    failed: int
    problems: list[str]
    samples: int


def run_sweep(workload: Workload, seed: int, tag: str, *, traced_out: Path | None = None,
              workers: int | None = None) -> SweepResult:
    """Run the workload's sweep once, fresh outputs, and check its CSV."""
    out = OUT_DIR / f"{workload.name}-{tag}.csv"
    svg = out.with_suffix(".svg")
    for stale in (out, svg, Path(f"{out}.manifest.json"), traced_out):
        if stale is not None and stale.exists():
            stale.unlink()
    args = workload.cli_args(seed, out, svg, workers)
    if traced_out is None:
        argv = cli_command(args)
    else:
        argv = [sys.executable, str(BENCH_DIR / "trace_run.py"), str(traced_out), *args]
    measured = spawn(argv, out.with_suffix(".log"))
    failed, problems, samples = check_csv(
        workload, seed, out, measured.returncode, load_reference(workload, seed)
    )
    if measured.returncode == 0 and not svg.is_file():
        problems.append("no SVG written")
        failed = len(workload.points())
    return SweepResult(measured, failed, problems, samples)


# --------------------------------------------------------------------------
# Environment and set-up


PROBE = r"""
import ctypes, glob, json, os, platform
import numpy
info = {"python": platform.python_version(), "numpy": numpy.__version__}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    info["blas"] = f"unknown ({exc})"
info["blas_threads"] = None
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
            break
print(json.dumps(info))
"""


def environment(seed: int) -> dict:
    measured = spawn([sys.executable, "-c", PROBE], OUT_DIR / "probe.log")
    probe = {}
    if measured.returncode == 0:
        probe = json.loads((OUT_DIR / "probe.log").read_text().strip().splitlines()[-1])
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        **probe,
        "blas_thread_setting": "library default (thread variables removed from the command's environment)",
        "blas_thread_vars_in_caller": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "seed": seed,
        "workloads": {
            name: {
                "workers": WORKLOADS[name].workers,
                "command": "PYTHONPATH=src " + shlex.join(cli_command(WORKLOADS[name].cli_args(
                    seed, OUT_DIR / f"{name}.csv", OUT_DIR / f"{name}.svg"))),
            }
            for name in WORKLOADS
        },
    }


def setup_time() -> float:
    """Wall time of one no-work invocation; ``SetupFailed`` if it fails."""
    log = OUT_DIR / "setup.log"
    measured = spawn(cli_command(["stats", "--n", "2"]), log)
    try:
        ok = measured.returncode == 0 and json.loads(log.read_text())["xbar"]["nodes"] == 4
    except (ValueError, KeyError, TypeError):
        ok = False
    if not ok:
        raise SetupFailed(f"`crossmesh stats --n 2` failed (exit {measured.returncode}):\n"
                          + log.read_text()[-2000:])
    return measured.wall_s


# --------------------------------------------------------------------------
# The two modes


def quartile(values, which: int) -> float:
    """First (``which=0``), second or third quartile, inclusive method."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[which]


def measure_end_to_end(workload: Workload, seed: int, seconds: float) -> dict:
    """Repeat the sweep for ``seconds``, timing set-up before every few sweeps.

    An untimed first invocation lets bytecode caches fill.  The sweep times
    are reported at their upper quartile (and the rate at its lower one):
    on a shared host most sweeps run at the contended speed and a varying
    minority run fast, and the upper quartile sits in the dense contended
    cluster, where the median flips with the share of fast sweeps.  Set-up
    time and memory are medians.
    """
    setup_time()
    setup: list[float] = []
    sweeps: list[SweepResult] = []
    started = time.perf_counter()
    while not sweeps or (time.perf_counter() - started) + sweeps[-1].measured.wall_s <= seconds:
        if len(sweeps) % SETUP_EVERY == 0:
            setup.append(setup_time())
        sweeps.append(run_sweep(workload, seed, "run"))
    while len(setup) < SETUP_RUNS:
        setup.append(setup_time())
    walls = [s.measured.wall_s for s in sweeps]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": quartile(walls, 2),
        "samples_per_s": quartile((s.samples / s.measured.wall_s for s in sweeps), 0),
        "cpu_s": quartile((s.measured.cpu_s for s in sweeps), 2),
        "peak_rss_mb": statistics.median(s.measured.peak_rss_mb for s in sweeps),
    }
    return _result(workload, sweeps, metrics, END_TO_END, {"sweep_wall_s": walls, "setup_wall_s": setup})


def measure_traced(workload: Workload, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced sweeps for ``seconds``; report medians.

    Both sides run one worker, so their difference is the tracing alone.
    """
    setup_time()
    trace_path = OUT_DIR / f"{workload.name}-trace.json"
    sweeps: list[SweepResult] = []
    samples: list[dict] = []
    started = time.perf_counter()
    while not sweeps or (time.perf_counter() - started) + pair_s <= seconds:
        plain = run_sweep(workload, seed, "untraced", workers=1)
        traced = run_sweep(workload, seed, "traced", traced_out=trace_path, workers=1)
        sweeps += [plain, traced]
        pair_s = plain.measured.wall_s + traced.measured.wall_s
        if traced.measured.returncode == 0 and trace_path.is_file():
            samples.append(layer_metrics(json.loads(trace_path.read_text()),
                                         traced.measured.wall_s, plain.measured.wall_s))
    metrics = {name: statistics.median(m[name] for m in samples) if samples else 0.0
               for name, _u, _b in PER_LAYER}
    return _result(workload, sweeps, metrics, PER_LAYER, {"traced_runs": len(samples)})


def layer_metrics(trace: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics from a ``trace_run.py`` report."""
    functions = trace["functions"]
    metrics = {}
    for name, _unit, _better in PER_LAYER:
        parts = name.split(".")
        if len(parts) == 3:
            metrics[name] = functions.get(f"{parts[0]}.{parts[1]}", {}).get(parts[2], 0.0)
        elif name.endswith(".self_s"):
            metrics[name] = sum(v["self_s"] for k, v in functions.items()
                                if k.split(".")[0] == parts[0])
    trials = trace["trials"]
    metrics["montecarlo.redundant_trial_share"] = trace["redundant_trials"] / trials if trials else 0.0
    metrics["trace.self_sum_s"] = sum(v["self_s"] for v in functions.values())
    metrics["trace.outside_s"] = traced_wall_s - trace["root_s"]
    metrics["trace.wall_s"] = traced_wall_s
    metrics["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return metrics


def _result(workload, sweeps, metrics, spec, detail) -> dict:
    points = len(workload.points())
    failed = sum(s.failed for s in sweeps)
    problems = [p for s in sweeps for p in s.problems]
    return {
        "workload": workload.name,
        "correct": failed == 0,
        "attempted": points * len(sweeps),
        "failed": failed,
        "failed_share": failed / (points * len(sweeps)),
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _b in spec},
        "detail": detail,
    }


def print_result(result: dict) -> None:
    print(f"== {result['workload']}: {result['attempted']} sweep points attempted, "
          f"{result['failed']} failed (failed_share {result['failed_share']})")
    for problem in result["problems"][:20]:
        print(f"   FAILED {problem}")
    for name, metric in result["metrics"].items():
        print(f"   {name:<44} {metric['value']:>16.6f} {metric['unit']}")
    print(f"   detail {json.dumps(result['detail'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args.seed)
    results = []
    try:
        for name in names:
            workload = WORKLOADS[name]
            if args.trace:
                results.append(measure_traced(workload, args.seed, args.seconds))
            else:
                results.append(measure_end_to_end(workload, args.seed, args.seconds))
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = list(os.getloadavg())
    print(f"env {json.dumps(env)}")
    for result in results:
        print_result(result)
    if args.workload != "all":
        result = results[0]
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
