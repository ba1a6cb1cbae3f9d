"""Experiment command line: figure reproduction, compile, eval, stats.

Subcommands
-----------
fig3            closed-form insertion-loss curves (CSV, optional SVG)
fidelity-loss   Monte-Carlo loss-induced fidelity sweep
fidelity-phase  Monte-Carlo phase-error fidelity sweep
compile         program a matrix onto a device, dump device JSON
eval            apply a dumped device to an input vector
stats           architecture size/depth/programming-step numbers

``--n`` takes integer literals (``4,8`` or ``4:64:4``, not ``4.0``), read
exactly at any size.  ``compile --matrix`` takes the M x N operator A to
apply (square for svd-clements); ``eval`` returns the device's output,
proportional to A x up to losses.  ``--mode`` (crossbar couplers, default
balanced) is xbar-only.

The three experiments write their CSV (and SVG) atomically (temp file +
rename, permissions from the umask) and then ``<csv>.manifest.json`` with
the fields ``command``; ``config`` (the parsed value of each flag the
command declares, ``--seed`` and the output paths aside, in the order
declared: architectures, sizes, the swept grid, and per command the matrix
and trial counts, the passive loss model and ``threads``); ``master_seed``
(Monte-Carlo commands only); ``version``; ``duration_seconds``;
``outputs``; ``workers_used`` (children forked, 1 when the sweep ran in
this process, as it always does off Linux); ``python``; ``numpy``; and
``cpus_usable``.  Re-running with the same arguments reproduces the CSV
byte for byte.  Any SVG is drawn before anything is written, so a chart
that fails leaves no file.

Every number in a JSON input must be a JSON number (int or float, never a
bool, string or null), finite, in lists of the declared shape.  Exit
codes: 0 success; 1 a bad flag, value, grid or configuration (a grid or
size list that repeats a value included), an ``--svg`` path that is the
CSV or its manifest, a loss file that breaks that rule or names an
unknown loss, JSON that does not parse or nests too deeply to parse, or a
dump naming an unknown architecture; 2 a numerical failure, or a matrix,
vector or dump that breaks the rule or does not describe a valid device
(a failed sweep point names itself), an insertion loss or chart bound
that is not finite, an integer overflow, or memory running out (``error:
out of memory`` when nothing more is known); 3 an I/O failure, among them
an ``--out``, ``--svg`` or ``<csv>.manifest.json`` that is a directory or
lies in a directory that does not exist, which a sweep reports before it
does any work; 130 an interrupt (SIGINT, as Ctrl-C sends it), reported as
``error: interrupted``, with no traceback.

The console entry calls ``gc.freeze()`` before the command, so no later
collection re-walks the import-time heap, which lives until exit anyway.
It blocks ``_hashlib`` too, so the ``secrets`` import inside ``numpy.random``
maps no OpenSSL (~3.4 MB of RSS; every stream is seeded, nothing hashed),
but only when hashlib's built-in fallbacks all exist, as a reduced build
would log an error for each one missing.  ``run_experiment`` does neither:
a freeze would keep an in-process host's cyclic garbage forever.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import sys
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
    XBAR_MODES,
    build_topology,
    build_xbar,
    device_from_json as xbar_device_from_json,
    device_to_json as xbar_device_to_json,
    evaluate_xbar,
)
from .errors import ConfigError, CrossmeshError, DomainError
from .linalg import ensure_square, matrix_from_json, vector_from_json, vector_to_json
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


def parse_value_list(text: str, number=float) -> tuple:
    """Parse ``start:stop:step`` (inclusive within half a step) or a comma list.

    ``number`` reads each value: ``float`` (which must be finite) or ``int``
    (integer literals only, such as ``4`` but not ``4.0`` or ``1e1``, so
    sizes are exact).  A range of over 10**6 points is a ConfigError before
    any is built.  ``montecarlo._grid`` checks a sweep grid's other rules,
    and ``SweepConfig`` rejects repeated sizes.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {text!r}")
    else:
        parts = [p for p in text.split(",") if p.strip() != ""]
    try:
        values = tuple(number(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad value list {text!r}: {exc}") from exc
    if not all(isinstance(v, int) or math.isfinite(v) for v in values):  # isfinite overflows on huge ints
        raise ConfigError(f"values must be finite, got {text!r}")
    if ":" in text:
        start, stop, step = values
        if step <= 0:
            raise ConfigError(f"range step must be positive, got {step}")
        try:
            span = (stop - start) / step  # infinite if a float range overflows
        except OverflowError:  # an int range does not fit a float
            span = math.inf
        if not -0.5 <= span < math.inf:
            raise ConfigError(f"range {text!r} is empty or has no finite number of points")
        count = int(math.floor(span + 0.5)) + 1
        if count > 10**6:
            raise ConfigError(f"range {text!r} has {count} points, more than 10**6")
        values = tuple(start + k * step for k in range(count))
    return values


def parse_int_list(text: str) -> tuple[int, ...]:
    return parse_value_list(text, int)


def _atomic_write(path: str, text: str) -> None:
    # Created 0666 less the umask, as open() would, without os.umask, which would change it process-wide.
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".crossmesh-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
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
    text = json.dumps(manifest, indent=2, default=LossModel.to_json)  # a loss model writes its own JSON form
    _atomic_write(outputs[0] + ".manifest.json", text + "\n")


@dataclass(frozen=True)
class _Experiment:
    """One experiment command.

    Each flag is ``(flag, key, parse, default, help)``, required if the
    default is ``...``.  Argparse types the counts (``parse`` is ``int``);
    ``_cmd_sweep`` parses every value into ``values[key]`` after its output
    checks, and the manifest ``config`` holds them in this order,
    ``master_seed`` aside.  ``run(cfg, values)`` returns the CSV rows,
    naming its sweep in a lambda so each call uses this module's global
    then (``bench/trace_run.py`` wraps those globals).  ``point`` maps a
    row to its chart (label, x, y), ``chart`` holds titles.
    """

    help: str
    flags: tuple
    run: Callable
    header: tuple[str, ...]
    point: Callable
    chart: dict


_ARCH = ("--arch", "arch", lambda text: tuple(a.strip() for a in text.split(",") if a.strip()),
         f"{ARCH_XBAR},{ARCH_SVD_CLEMENTS}", None)
_SIZES = ("--n", "n_values", parse_int_list, ..., "matrix sizes, e.g. 4,8 or 4:64:4")
_NODE_LOSS = ("--node-loss", "il_node_grid", parse_value_list, ..., "IL_node grid in dB, e.g. 0:2:0.05")
_MATRICES = ("--matrices", "n_matrices", int, 500, None)
_THREADS = ("--threads", "threads", int, 1,
            "worker processes, at most the usable CPUs, forked on Linux only (elsewhere the sweep runs serially); "
            ">= 1 (default 1); results are identical for any value")
_SEED = ("--seed", "master_seed", int, 1234, "master seed (default 1234)")
_LOSS = ("--loss", "loss", _load_loss, None)  # and a help text per command

_FIDELITY_COLUMNS = ("fidelity_mean", "fidelity_std", "n_samples", "seed")

_EXPERIMENTS = {
    "fig3": _Experiment(
        help="insertion-loss comparison curves",
        flags=(_ARCH, _SIZES, _NODE_LOSS, _LOSS + ("path to loss-model JSON",)),
        run=lambda cfg, v: insertion_loss_sweep(cfg, v["il_node_grid"], passives=v["loss"]),
        header=("arch", "case", "n", "il_node_db", "il_total_db"),
        point=lambda row: (f"{row[0]}/{row[1]} N={row[2]}", row[3], row[4]),
        chart=dict(title="Total insertion loss vs per-cell loss", xlabel="IL_node (dB)",
                   ylabel="total IL (dB)"),
    ),
    "fidelity-loss": _Experiment(
        help="loss-induced fidelity Monte Carlo",
        flags=(_ARCH, _SIZES, _NODE_LOSS, _MATRICES,
               _LOSS + ("path to loss-model JSON; here the passive losses only set the crossbar's coupler design",),
               _THREADS, _SEED),
        run=lambda cfg, v: [astuple(r) for r in loss_fidelity_sweep(
            cfg, v["il_node_grid"], passives=v["loss"], workers=v["threads"])],
        header=("arch", "n", "il_node_db") + _FIDELITY_COLUMNS,
        point=lambda row: (f"{row[0]} N={row[1]}", row[2], row[3]),
        chart=dict(title="Loss-induced fidelity", xlabel="IL_node (dB)", ylabel="mean fidelity"),
    ),
    "fidelity-phase": _Experiment(
        help="phase-error fidelity Monte Carlo",
        flags=(_ARCH, _SIZES,
               ("--sigma", "sigma_grid", parse_value_list, ..., "deviation grid in rad, e.g. 0:0.2:0.02"),
               _MATRICES, ("--trials", "n_phase_trials", int, 100, None), _THREADS, _SEED),
        run=lambda cfg, v: [astuple(r) for r in phase_fidelity_sweep(
            cfg, v["sigma_grid"], trials=v["n_phase_trials"], workers=v["threads"])],
        header=("arch", "n", "sigma_rad") + _FIDELITY_COLUMNS,
        point=lambda row: (f"{row[0]} N={row[1]}", row[2], row[3]),
        chart=dict(title="Phase-error fidelity", xlabel="sigma (rad)", ylabel="mean fidelity"),
    ),
}


def _cmd_sweep(args) -> int:
    started = time.monotonic()
    experiment = _EXPERIMENTS[args.command]
    written = {os.path.realpath(path) for path in (args.out, args.out + ".manifest.json")}
    if args.svg and os.path.realpath(args.svg) in written:
        raise ConfigError(f"--svg {args.svg} would overwrite the CSV or its manifest")
    for path in filter(None, (args.out, args.out + ".manifest.json", args.svg)):
        if os.path.isdir(path):
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"no directory to write {path} in")
    values = {key: parse(getattr(args, key)) for _flag, key, parse, _default, _help in experiment.flags}
    # fig3 has neither a matrix count nor a seed, and reads neither.
    cfg = SweepConfig(values["arch"], values["n_values"], values.get("n_matrices", 1), values.get("master_seed", 0))
    rows = experiment.run(cfg, values)
    texts = {args.out: _csv_text(experiment.header, rows)}
    if args.svg:  # rendered before anything is written, so a chart that fails leaves no file
        texts[args.svg] = line_chart(map(experiment.point, rows), **experiment.chart)
    for path, text in texts.items():
        _atomic_write(path, text)
    master_seed = values.pop("master_seed", None)
    _write_manifest(args.command, values, list(texts), started,
                    workers_used=pool_size(cfg, values.get("threads", 1)), master_seed=master_seed)
    return 0


def _cmd_compile(args) -> int:
    target = matrix_from_json(_load_json(args.matrix))
    loss = _load_loss(args.loss)
    if args.arch == ARCH_XBAR:
        # The crossbar's N x M weights are the transpose of the operator it applies.
        dump = xbar_device_to_json(build_xbar(target.T, loss, args.mode or XBAR_MODES[0]))
    elif args.mode is not None:
        raise ConfigError("--mode applies to --arch xbar only")
    else:
        dump = svd_device_to_json(build_svd_clements(ensure_square(target, name=f"{ARCH_SVD_CLEMENTS} matrix"), loss))
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

    for command, experiment in _EXPERIMENTS.items():
        p = sub.add_parser(command, help=experiment.help)
        for flag, key, parse, default, help in experiment.flags:
            p.add_argument(flag, dest=key, type=int if parse is int else None, default=default,
                           required=default is ..., help=help)
        p.add_argument("--out", required=True)
        p.add_argument("--svg", default=None, help="also write an SVG chart here")
        p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compile", help="program a matrix onto a device")
    p.add_argument("--arch", required=True, choices=[ARCH_XBAR, ARCH_SVD_CLEMENTS])
    p.add_argument("--matrix", required=True, help="JSON of the M x N operator to apply")
    p.add_argument("--mode", default=None, choices=XBAR_MODES,
                   help="crossbar coupler design (default balanced; xbar only)")
    p.add_argument("--out", required=True)
    p.add_argument("--loss", default=None, help="path to loss-model JSON")
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
    except (CrossmeshError, FloatingPointError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:  # SIGINT; a parallel sweep has killed and reaped its workers by now
        print("error: interrupted", file=sys.stderr)
        return 130


def console_entry() -> None:
    gc.freeze()  # everything alive here lives until exit; forked workers inherit the frozen heap
    # hashlib's fallbacks for the hashes it builds at import; numpy < 2.0 has loaded _hashlib already.
    sha2 = ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
    if all(importlib.util.find_spec(name) for name in ("_md5", "_sha1", "_blake2", "_sha3") + sha2):
        sys.modules.setdefault("_hashlib", None)
    sys.exit(run_experiment())


if __name__ == "__main__":
    console_entry()
