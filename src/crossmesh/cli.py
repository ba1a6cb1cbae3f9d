"""Experiment command line: figure reproduction, compile, eval, stats.

Subcommands
-----------
fig3            closed-form insertion-loss curves (CSV, optional SVG)
fidelity-loss   Monte-Carlo loss-induced fidelity sweep
fidelity-phase  Monte-Carlo phase-error fidelity sweep
compile         program a matrix onto a device, dump device JSON
eval            apply a dumped device to an input vector
stats           architecture size/depth/programming-step numbers

Every experiment writes its CSV atomically (temp file + rename) and drops a
manifest JSON next to it recording the resolved configuration, seed, and
library version; re-running with the same arguments reproduces the CSV
byte for byte.  Exit codes: 0 success, 1 bad flags or config, 2 numerical
failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
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
)
from .svgchart import line_chart


class CliError(Exception):
    """Bad command line or configuration (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def parse_value_list(text: str) -> tuple[float, ...]:
    """Parse ``start:stop:step`` (inclusive within half a step) or a comma list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise CliError(f"bad range {text!r}: {exc}") from exc
        if step <= 0:
            raise CliError(f"range step must be positive, got {step}")
        count = int(math.floor((stop - start) / step + 0.5)) + 1
        if count < 1:
            raise CliError(f"empty range {text!r}")
        return tuple(start + k * step for k in range(count))
    try:
        return tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError as exc:
        raise CliError(f"bad value list {text!r}: {exc}") from exc


def parse_int_list(text: str) -> tuple[int, ...]:
    values = parse_value_list(text)
    out = []
    for v in values:
        if abs(v - round(v)) > 1e-9:
            raise CliError(f"expected integers, got {v}")
        out.append(int(round(v)))
    return tuple(out)


def _parse_archs(text: str) -> tuple[str, ...]:
    archs = tuple(a.strip() for a in text.split(",") if a.strip())
    for a in archs:
        if a not in (ARCH_XBAR, ARCH_SVD_CLEMENTS):
            raise CliError(f"unknown architecture {a!r}")
    if not archs:
        raise CliError("no architecture selected")
    return archs


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".crossmesh-", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))
    return "\n".join(lines) + "\n"


def _load_json(path: str) -> dict:
    with open(path, "r") as handle:
        return json.load(handle)


def _load_loss(path: str | None) -> LossModel:
    if path is None:
        return SILICON_PASSIVES
    try:
        return LossModel.from_json(_load_json(path))
    except DomainError as exc:
        raise CliError(f"bad loss file {path}: {exc}") from exc


@dataclass
class RunManifest:
    """Provenance record written next to every experiment output."""

    command: str
    config: dict
    master_seed: int
    version: str = field(default=__version__)
    duration_seconds: float = 0.0
    outputs: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "master_seed": self.master_seed,
            "version": self.version,
            "duration_seconds": self.duration_seconds,
            "outputs": self.outputs,
        }


def _finish_experiment(manifest: RunManifest, started: float) -> None:
    manifest.duration_seconds = time.time() - started
    path = manifest.outputs[0] + ".manifest.json"
    _atomic_write(path, json.dumps(manifest.to_json(), indent=2) + "\n")


def _cmd_fig3(args) -> int:
    started = time.time()
    passives = _load_loss(args.loss)
    cfg = SweepConfig(
        architectures=_parse_archs(args.arch),
        n_values=parse_int_list(args.n),
        il_node_grid=parse_value_list(args.node_loss),
        passive_losses=passives,
        master_seed=args.seed,
    )
    rows = insertion_loss_sweep(cfg)
    _atomic_write(args.out, _csv_text(["arch", "case", "n", "il_node_db", "il_total_db"], rows))
    outputs = [args.out]
    if args.svg:
        series = {}
        for arch, case, n, il, total in rows:
            series.setdefault(f"{arch}/{case} N={n}", ([], []))
            series[f"{arch}/{case} N={n}"][0].append(il)
            series[f"{arch}/{case} N={n}"][1].append(total)
        svg = line_chart(
            [(k, xs, ys) for k, (xs, ys) in series.items()],
            title="Total insertion loss vs per-cell loss",
            xlabel="IL_node (dB)",
            ylabel="total IL (dB)",
        )
        _atomic_write(args.svg, svg)
        outputs.append(args.svg)
    manifest = RunManifest(
        command="fig3",
        config={
            "arch": list(cfg.architectures),
            "n_values": list(cfg.n_values),
            "il_node_grid": list(cfg.il_node_grid),
            "loss": passives.to_json(),
        },
        master_seed=args.seed,
        outputs=outputs,
    )
    _finish_experiment(manifest, started)
    return 0


def _fidelity_csv_and_svg(args, reports, value_column: str, title: str, xlabel: str) -> list[str]:
    rows = [
        (r.architecture, r.n, r.sweep_value, r.fidelity_mean, r.fidelity_std, r.n_samples, r.master_seed)
        for r in reports
    ]
    header = ["arch", "n", value_column, "fidelity_mean", "fidelity_std", "n_samples", "seed"]
    _atomic_write(args.out, _csv_text(header, rows))
    outputs = [args.out]
    if args.svg:
        series = {}
        for r in reports:
            key = f"{r.architecture} N={r.n}"
            series.setdefault(key, ([], []))
            series[key][0].append(r.sweep_value)
            series[key][1].append(r.fidelity_mean)
        svg = line_chart(
            [(k, xs, ys) for k, (xs, ys) in series.items()],
            title=title, xlabel=xlabel, ylabel="mean fidelity",
        )
        _atomic_write(args.svg, svg)
        outputs.append(args.svg)
    return outputs


def _cmd_fidelity_loss(args) -> int:
    started = time.time()
    passives = _load_loss(args.loss)
    cfg = SweepConfig(
        architectures=_parse_archs(args.arch),
        n_values=parse_int_list(args.n),
        il_node_grid=parse_value_list(args.node_loss),
        n_matrices=args.matrices,
        passive_losses=passives,
        master_seed=args.seed,
    )
    reports = loss_fidelity_sweep(cfg, workers=args.threads)
    outputs = _fidelity_csv_and_svg(
        args, reports, "il_node_db", "Loss-induced fidelity", "IL_node (dB)"
    )
    manifest = RunManifest(
        command="fidelity-loss",
        config={
            "arch": list(cfg.architectures),
            "n_values": list(cfg.n_values),
            "il_node_grid": list(cfg.il_node_grid),
            "n_matrices": cfg.n_matrices,
            "loss": passives.to_json(),
            "threads": args.threads,
        },
        master_seed=args.seed,
        outputs=outputs,
    )
    _finish_experiment(manifest, started)
    return 0


def _cmd_fidelity_phase(args) -> int:
    started = time.time()
    cfg = SweepConfig(
        architectures=_parse_archs(args.arch),
        n_values=parse_int_list(args.n),
        sigma_grid=parse_value_list(args.sigma),
        n_matrices=args.matrices,
        n_phase_trials=args.trials,
        master_seed=args.seed,
    )
    reports = phase_fidelity_sweep(cfg, workers=args.threads)
    outputs = _fidelity_csv_and_svg(
        args, reports, "sigma_rad", "Phase-error fidelity", "sigma (rad)"
    )
    manifest = RunManifest(
        command="fidelity-phase",
        config={
            "arch": list(cfg.architectures),
            "n_values": list(cfg.n_values),
            "sigma_grid": list(cfg.sigma_grid),
            "n_matrices": cfg.n_matrices,
            "n_phase_trials": cfg.n_phase_trials,
            "threads": args.threads,
        },
        master_seed=args.seed,
        outputs=outputs,
    )
    _finish_experiment(manifest, started)
    return 0


def _cmd_compile(args) -> int:
    target = matrix_from_json(_load_json(args.matrix))
    loss = _load_loss(args.loss)
    if args.arch == ARCH_XBAR:
        device = build_xbar(target, loss, args.mode)
        dump = xbar_device_to_json(device)
    else:
        device = build_svd_clements(target, loss)
        dump = svd_device_to_json(device)
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
        raise CliError(f"unknown device arch {arch!r} in {args.device}")
    text = json.dumps(vector_to_json(out), indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_stats(args) -> int:
    n = args.n
    m = args.m if args.m is not None else n
    topology = build_topology(n, m)
    payload = {
        "svd-clements": svd_architecture_stats(n),
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

    def add_common(p, *, seeded=True, threaded=False):
        if seeded:
            p.add_argument("--seed", type=int, default=1234, help="master seed (default 1234)")
        p.add_argument("--loss", default=None, help="path to loss-model JSON")
        if threaded:
            p.add_argument("--threads", type=int, default=1,
                           help="number of worker processes, not threads, >= 1 (default 1)")

    p = sub.add_parser("fig3", help="insertion-loss comparison curves")
    p.add_argument("--n", required=True, help="matrix sizes, e.g. 4,8 or 4:64:4")
    p.add_argument("--node-loss", required=True, help="IL_node grid in dB, e.g. 0:2:0.05")
    p.add_argument("--arch", default=f"{ARCH_XBAR},{ARCH_SVD_CLEMENTS}")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None, help="also write an SVG chart here")
    add_common(p)
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser("fidelity-loss", help="loss-induced fidelity Monte Carlo")
    p.add_argument("--n", required=True)
    p.add_argument("--node-loss", required=True)
    p.add_argument("--arch", default=f"{ARCH_XBAR},{ARCH_SVD_CLEMENTS}")
    p.add_argument("--matrices", type=int, default=500)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    add_common(p, threaded=True)
    p.set_defaults(func=_cmd_fidelity_loss)

    p = sub.add_parser("fidelity-phase", help="phase-error fidelity Monte Carlo")
    p.add_argument("--n", required=True)
    p.add_argument("--sigma", required=True, help="deviation grid in rad, e.g. 0:0.2:0.02")
    p.add_argument("--arch", default=f"{ARCH_XBAR},{ARCH_SVD_CLEMENTS}")
    p.add_argument("--matrices", type=int, default=500)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    add_common(p, threaded=True)
    p.set_defaults(func=_cmd_fidelity_phase)

    p = sub.add_parser("compile", help="program a matrix onto a device")
    p.add_argument("--arch", required=True, choices=[ARCH_XBAR, ARCH_SVD_CLEMENTS])
    p.add_argument("--matrix", required=True, help="target matrix JSON")
    p.add_argument("--mode", default="balanced", choices=["balanced", "uniform"],
                   help="crossbar coupler design (ignored for svd-clements)")
    p.add_argument("--out", required=True)
    add_common(p, seeded=False)
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
    except (CliError, ConfigError) as exc:
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


main = run_experiment


def console_entry() -> None:
    sys.exit(run_experiment())


if __name__ == "__main__":
    console_entry()
