"""Experiment command line: figure reproduction, compile, eval, stats.

Subcommands
-----------
fig3            closed-form insertion-loss curves (CSV, optional SVG)
fidelity-loss   Monte-Carlo loss-induced fidelity sweep
fidelity-phase  Monte-Carlo phase-error fidelity sweep
compile         program a matrix onto a device, dump device JSON
eval            apply a dumped device to an input vector
stats           architecture size/depth/programming-step numbers

``compile --matrix`` takes the M x N operator A to apply (square for
svd-clements); ``eval`` returns the device's output, proportional to A x up
to losses.  ``--mode`` (crossbar couplers, default balanced) is xbar-only.

The three experiments write their CSV (and SVG) atomically (temp file +
rename, permissions from the umask) and then ``<csv>.manifest.json`` with
the fields ``command``; ``config`` (architectures, sizes, the swept grid,
and per command the matrix and trial counts, the passive loss model and
``threads``); ``master_seed`` (Monte-Carlo commands only); ``version``;
``duration_seconds``; ``outputs``; ``workers_used`` (processes started, 1
when the sweep ran in this process); ``python``; ``numpy``; and
``cpus_usable``.  Re-running with the same arguments reproduces the CSV
byte for byte.

Every number in a JSON input must be a JSON number (int or float, never a
bool, string or null), finite, in lists of the declared shape.  Exit
codes: 0 success; 1 a bad flag, value, grid or configuration (a grid or
size list that repeats a value included), an ``--svg`` path that is the
CSV or its manifest, a loss file that breaks that rule or names an
unknown loss, JSON that does not parse or nests too deeply to parse, or a
dump naming an unknown architecture; 2 a numerical failure, or a matrix,
vector or dump that breaks the rule or does not describe a valid device
(a failed sweep point names itself); 3 an I/O failure, among them an
``--out`` or ``--svg`` in a directory that does not exist, which a sweep
reports before it does any work.

The console entry calls ``gc.freeze()`` before the command, so no later
collection re-walks the import-time heap, which lives until exit anyway;
``run_experiment`` leaves the GC alone, as freezing a host that calls it
in-process would keep that host's cyclic garbage forever.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from . import __version__, montecarlo
from .clements import (
    device_from_json as svd_device_from_json,
    device_to_json as svd_device_to_json,
    build_svd_clements,
    evaluate_svd_clements,
    svd_architecture_stats,
)
from .crossbar import (
    build_topology,
    build_xbar,
    device_from_json as xbar_device_from_json,
    device_to_json as xbar_device_to_json,
    evaluate_xbar,
)
from .errors import ConfigError, CrossmeshError, DomainError
from .linalg import matrix_from_json, vector_from_json, vector_to_json
from .nodes import SILICON_PASSIVES, LossModel
from .montecarlo import (
    ARCH_SVD_CLEMENTS,
    ARCH_XBAR,
    SweepConfig,
    insertion_loss_sweep,
    loss_fidelity_sweep,
    phase_fidelity_sweep,
    pool_size,
)
from .svgchart import line_chart


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def parse_value_list(text: str) -> tuple[float, ...]:
    """Parse ``start:stop:step`` (inclusive within half a step) or a comma list.

    Every number given must be finite, and no value may repeat: sweep points
    are seeded by grid index and keyed by value in the CSV.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {text!r}")
    else:
        parts = [p for p in text.split(",") if p.strip() != ""]
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad value list {text!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"values must be finite, got {text!r}")
    if ":" in text:
        start, stop, step = values
        if step <= 0:
            raise ConfigError(f"range step must be positive, got {step}")
        span = (stop - start) / step  # infinite if the range overflows
        if not -0.5 <= span < math.inf:
            raise ConfigError(f"range {text!r} is empty or has no finite number of points")
        values = tuple(start + k * step for k in range(int(math.floor(span + 0.5)) + 1))
    if len(set(values)) != len(values):
        raise ConfigError(f"values must not repeat, got {text!r}")
    return values


def parse_int_list(text: str) -> tuple[int, ...]:
    values = parse_value_list(text)
    out = []
    for v in values:
        if abs(v - round(v)) > 1e-9:
            raise ConfigError(f"expected integers, got {v}")
        out.append(int(round(v)))
    return tuple(out)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".crossmesh-", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            # mkstemp creates the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))
    return "\n".join(lines) + "\n"


def _load_json(path: str) -> dict:
    with open(path, "r") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ConfigError(f"malformed JSON input: {path} nests too deeply") from None


def _load_loss(path: str | None) -> LossModel:
    if path is None:
        return SILICON_PASSIVES
    try:
        return LossModel.from_json(_load_json(path))
    except DomainError as exc:
        raise ConfigError(f"bad loss file {path}: {exc}") from exc


def _series(points) -> list[tuple[str, list, list]]:
    """Chart series from (label, x, y) points, in order of first appearance."""
    series = {}
    for label, x, y in points:
        xs, ys = series.setdefault(label, ([], []))
        xs.append(x)
        ys.append(y)
    return [(label, xs, ys) for label, (xs, ys) in series.items()]


def _write_manifest(command: str, config: dict, outputs: list[str], started: float, *,
                    workers_used: int, master_seed: int | None) -> None:
    """Write the provenance record next to the first output; ``started`` is a ``time.monotonic()`` reading."""
    manifest = {"command": command, "config": config}
    if master_seed is not None:
        manifest["master_seed"] = master_seed
    manifest.update(
        version=__version__,
        duration_seconds=time.monotonic() - started,
        outputs=outputs,
        workers_used=workers_used,
        python=platform.python_version(),
        numpy=np.__version__,
        cpus_usable=montecarlo.usable_cpus(),
    )
    _atomic_write(outputs[0] + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


@dataclass(frozen=True)
class _Experiment:
    """What sets one experiment command apart from the other two.

    ``run(cfg, workers)`` returns the CSV rows.  It names its sweep function
    inside a lambda, so each call uses whatever this module's global holds
    then (``bench/trace_run.py`` wraps those globals).  ``point`` maps a row
    to its chart (label, x, y); ``chart`` holds the chart's titles.
    """

    grid_flag: str
    grid_field: str
    run: Callable
    header: tuple[str, ...]
    point: Callable
    chart: dict
    config_keys: tuple[str, ...]


_FIDELITY_COLUMNS = ("fidelity_mean", "fidelity_std", "n_samples", "seed")

_EXPERIMENTS = {
    "fig3": _Experiment(
        grid_flag="--node-loss", grid_field="il_node_grid",
        run=lambda cfg, workers: insertion_loss_sweep(cfg),
        header=("arch", "case", "n", "il_node_db", "il_total_db"),
        point=lambda row: (f"{row[0]}/{row[1]} N={row[2]}", row[3], row[4]),
        chart=dict(title="Total insertion loss vs per-cell loss", xlabel="IL_node (dB)",
                   ylabel="total IL (dB)"),
        config_keys=("arch", "n_values", "il_node_grid", "loss"),
    ),
    "fidelity-loss": _Experiment(
        grid_flag="--node-loss", grid_field="il_node_grid",
        run=lambda cfg, workers: [astuple(r) for r in loss_fidelity_sweep(cfg, workers=workers)],
        header=("arch", "n", "il_node_db") + _FIDELITY_COLUMNS,
        point=lambda row: (f"{row[0]} N={row[1]}", row[2], row[3]),
        chart=dict(title="Loss-induced fidelity", xlabel="IL_node (dB)", ylabel="mean fidelity"),
        config_keys=("arch", "n_values", "il_node_grid", "n_matrices", "loss", "threads"),
    ),
    "fidelity-phase": _Experiment(
        grid_flag="--sigma", grid_field="sigma_grid",
        run=lambda cfg, workers: [astuple(r) for r in phase_fidelity_sweep(cfg, workers=workers)],
        header=("arch", "n", "sigma_rad") + _FIDELITY_COLUMNS,
        point=lambda row: (f"{row[0]} N={row[1]}", row[2], row[3]),
        chart=dict(title="Phase-error fidelity", xlabel="sigma (rad)", ylabel="mean fidelity"),
        config_keys=("arch", "n_values", "sigma_grid", "n_matrices", "n_phase_trials", "threads"),
    ),
}

# Experiment flags that not every command has, and the SweepConfig fields they fill.
_CONFIG_FLAGS = (("matrices", "n_matrices"), ("trials", "n_phase_trials"), ("seed", "master_seed"))


def _cmd_sweep(args) -> int:
    started = time.monotonic()
    experiment = _EXPERIMENTS[args.command]
    flags = vars(args)
    workers = flags.get("threads", 1)
    written = {os.path.realpath(path) for path in (args.out, args.out + ".manifest.json")}
    if args.svg and os.path.realpath(args.svg) in written:
        raise ConfigError(f"--svg {args.svg} would overwrite the CSV or its manifest")
    for path in filter(None, (args.out, args.svg)):
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"no directory to write {path} in")
    cfg = SweepConfig(
        passive_losses=_load_loss(flags.get("loss")),
        architectures=tuple(a.strip() for a in args.arch.split(",") if a.strip()),
        n_values=parse_int_list(args.n),
        **{experiment.grid_field: parse_value_list(args.grid)},
        **{name: flags[flag] for flag, name in _CONFIG_FLAGS if flag in flags},
    )
    rows = experiment.run(cfg, workers)
    _atomic_write(args.out, _csv_text(experiment.header, rows))
    outputs = [args.out]
    if args.svg:
        _atomic_write(args.svg, line_chart(_series(map(experiment.point, rows)), **experiment.chart))
        outputs.append(args.svg)
    values = dict(arch=list(cfg.architectures), n_values=list(cfg.n_values),
                  il_node_grid=list(cfg.il_node_grid), sigma_grid=list(cfg.sigma_grid),
                  n_matrices=cfg.n_matrices, n_phase_trials=cfg.n_phase_trials,
                  loss=cfg.passive_losses.to_json(), threads=workers)
    config = {key: values[key] for key in experiment.config_keys}
    _write_manifest(args.command, config, outputs, started,
                    workers_used=pool_size(cfg, workers), master_seed=flags.get("seed"))
    return 0


def _cmd_compile(args) -> int:
    target = matrix_from_json(_load_json(args.matrix))
    loss = _load_loss(args.loss)
    if args.arch == ARCH_XBAR:
        # The crossbar's N x M weights are the transpose of the operator it applies.
        dump = xbar_device_to_json(build_xbar(target.T, loss, args.mode or "balanced"))
    elif args.mode is not None:
        raise ConfigError("--mode applies to --arch xbar only")
    else:
        dump = svd_device_to_json(build_svd_clements(target, loss))
    _atomic_write(args.out, json.dumps(dump, indent=2) + "\n")
    return 0


def _cmd_eval(args) -> int:
    dump = _load_json(args.device)
    x = vector_from_json(_load_json(args.input))
    arch = dump.get("arch") if isinstance(dump, dict) else None
    if arch == ARCH_XBAR:
        device = xbar_device_from_json(dump)
        out = evaluate_xbar(device, x)
    elif arch == ARCH_SVD_CLEMENTS:
        device = svd_device_from_json(dump)
        y_exp = evaluate_svd_clements(device)
        if x.shape[0] != y_exp.shape[1]:
            raise CrossmeshError(
                f"input length {x.shape[0]} does not match device size {y_exp.shape[1]}"
            )
        out = y_exp @ x
    else:
        raise ConfigError(f"unknown device arch {arch!r} in {args.device}")
    text = json.dumps(vector_to_json(out), indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_stats(args) -> int:
    n = args.n
    m = args.m if args.m is not None else n
    try:
        topology = build_topology(n, m)
        svd_stats = svd_architecture_stats(n)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "svd-clements": svd_stats,
        "xbar": {
            "n": topology.n,
            "m": topology.m,
            "n_f": topology.n_f,
            "forwarding_crossings_per_column": topology.m_fwd,
            "recombination_crossings": topology.recomb_crossings,
            "nodes": topology.n * topology.m,
            "programming_steps": 1,
        },
    }
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="crossmesh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    grid_help = {"--node-loss": "IL_node grid in dB, e.g. 0:2:0.05",
                 "--sigma": "deviation grid in rad, e.g. 0:0.2:0.02"}

    def add_experiment(command, help):
        p = sub.add_parser(command, help=help)
        grid_flag = _EXPERIMENTS[command].grid_flag
        p.add_argument("--n", required=True, help="matrix sizes, e.g. 4,8 or 4:64:4")
        p.add_argument(grid_flag, dest="grid", required=True, help=grid_help[grid_flag])
        p.add_argument("--arch", default=f"{ARCH_XBAR},{ARCH_SVD_CLEMENTS}")
        p.add_argument("--out", required=True)
        p.add_argument("--svg", default=None, help="also write an SVG chart here")
        p.set_defaults(func=_cmd_sweep)
        return p

    def add_monte_carlo(p):
        p.add_argument("--matrices", type=int, default=500)
        p.add_argument("--seed", type=int, default=1234, help="master seed (default 1234)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes, at most the usable CPUs; >= 1 (default 1); "
                            "results are identical for any value")

    def add_loss(p):
        p.add_argument("--loss", default=None, help="path to loss-model JSON")

    add_loss(add_experiment("fig3", "insertion-loss comparison curves"))
    p = add_experiment("fidelity-loss", "loss-induced fidelity Monte Carlo")
    add_monte_carlo(p)
    add_loss(p)
    p = add_experiment("fidelity-phase", "phase-error fidelity Monte Carlo")
    add_monte_carlo(p)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("compile", help="program a matrix onto a device")
    p.add_argument("--arch", required=True, choices=[ARCH_XBAR, ARCH_SVD_CLEMENTS])
    p.add_argument("--matrix", required=True, help="JSON of the M x N operator to apply")
    p.add_argument("--mode", default=None, choices=["balanced", "uniform"],
                   help="crossbar coupler design (default balanced; xbar only)")
    p.add_argument("--out", required=True)
    add_loss(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("eval", help="apply a compiled device to an input vector")
    p.add_argument("--device", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None, help="output vector JSON (default stdout)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="architecture size and depth numbers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_stats)

    return parser


def run_experiment(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input: {exc}", file=sys.stderr)
        return 1
    except (CrossmeshError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_entry() -> None:
    gc.freeze()  # everything alive here lives until exit; forked workers inherit the frozen heap
    sys.exit(run_experiment())


if __name__ == "__main__":
    console_entry()
