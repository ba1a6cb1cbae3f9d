"""Traced, in-process run of one crossmesh CLI command.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 bench/trace_run.py OUT.json <crossmesh CLI arguments...>

Wraps the library's public functions under the names their callers look
them up by, runs ``crossmesh.cli.run_experiment(argv)`` once, restores every
wrapped name, and writes per-function aggregates to ``OUT.json``: calls,
inclusive seconds, self seconds (span time minus the time of its child
spans) and the median per-call time at n = 64.  Spans stay in memory until
the run ends.  Exits with the CLI's own exit code.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from time import perf_counter

ROOT_SPAN = "cli.run_experiment"

# (module the caller lives in, attribute the caller looks up, span name).
# Span names are "<layer>.<function>", the layer being a crossmesh module.
WRAPPED = (
    ("crossmesh.cli", "phase_fidelity_sweep", "montecarlo.phase_fidelity_sweep"),
    ("crossmesh.cli", "loss_fidelity_sweep", "montecarlo.loss_fidelity_sweep"),
    ("crossmesh.cli", "line_chart", "svgchart.line_chart"),
    ("crossmesh.montecarlo", "target_matrix", "montecarlo.target_matrix"),
    ("crossmesh.montecarlo", "trial_rng", "montecarlo.trial_rng"),
    ("crossmesh.montecarlo", "random_target_matrix", "linalg.random_target_matrix"),
    ("crossmesh.montecarlo", "build_svd_clements", "clements.build_svd_clements"),
    ("crossmesh.montecarlo", "evaluate_svd_clements", "clements.evaluate_svd_clements"),
    ("crossmesh.montecarlo", "apply_common_deviation", "clements.apply_common_deviation"),
    ("crossmesh.montecarlo", "with_loss", "clements.with_loss"),
    ("crossmesh.montecarlo", "build_xbar", "crossbar.build_xbar"),
    ("crossmesh.montecarlo", "realized_matrix", "crossbar.realized_matrix"),
    ("crossmesh.montecarlo", "weights_with_common_deviation", "crossbar.weights_with_common_deviation"),
    ("crossmesh.montecarlo", "fidelity", "linalg.fidelity"),
    ("crossmesh.montecarlo", "node_loss_model", "nodes.node_loss_model"),
    ("crossmesh.clements", "clements_decompose", "clements.clements_decompose"),
    ("crossmesh.clements", "apply_mesh", "clements.apply_mesh"),
    ("crossmesh.clements", "svd_factorize", "linalg.svd_factorize"),
    ("crossmesh.clements", "voa_transfer", "nodes.voa_transfer"),
    ("crossmesh.clements", "voa_transfer_at", "nodes.voa_transfer_at"),
    ("crossmesh.crossbar", "transmission_matrix", "crossbar.transmission_matrix"),
    ("crossmesh.crossbar", "design_splitters", "crossbar.design_splitters"),
)

# Calls that start a new target matrix, and calls that apply one trial's
# shared phase deviation (device first, then the deviations).
_NEW_MATRIX = "montecarlo.target_matrix"
_DEVIATION = ("clements.apply_common_deviation", "crossbar.weights_with_common_deviation")
_TRIAL = "linalg.fidelity"


def _dim(args) -> int | None:
    """Matrix size of a call, read from its first argument, if it has one."""
    if not args:
        return None
    first = args[0]
    shape = getattr(first, "shape", None)
    if shape:
        return int(shape[0])
    n = getattr(first, "n", None)
    if isinstance(n, int):
        return n
    topology = getattr(first, "topology", None)
    return getattr(topology, "n", None)


class Tracer:
    """In-memory span recorder for one single-threaded run.

    Each span is ``[name, parent index, start, end, n]``; the parent index
    is -1 for a root span.  It also counts the trials that repeat a
    zero-deviation trial of the same target matrix (sigma = 0 repeats).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.redundant_trials = 0
        self._zero_seen = False

    def _note(self, name: str, args) -> None:
        if name == _NEW_MATRIX:
            self._zero_seen = False
        elif name in _DEVIATION and all(d == 0.0 for d in args[1:]):
            self.redundant_trials += self._zero_seen
            self._zero_seen = True

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        self._note(name, args)
        span = [name, self._stack[-1], 0.0, 0.0, _dim(args)]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's durations."""
    own = [end - start for _name, _parent, start, end, _n in spans]
    for _name, parent, start, end, _n in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans) -> dict:
    """Per span name: calls, inclusive ``s``, ``self_s`` and ``ms_n64``."""
    out: dict[str, dict] = {}
    n64: dict[str, list[float]] = {}
    for span, own in zip(spans, self_times(spans)):
        name, _parent, start, end, n = span
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "ms_n64": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
        if n == 64:
            n64.setdefault(name, []).append(1e3 * (end - start))
    for name, durations in n64.items():
        out[name]["ms_n64"] = statistics.median(durations)
    return out


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every name in ``WRAPPED`` that exists; return (patches, missing)."""
    patches, missing = [], []
    for module_name, attr, span in WRAPPED:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(span, original))
        patches.append((module, attr, original))
    return patches, missing


def restore(patches) -> None:
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)


def traced_run(argv: list[str]) -> tuple[int, Tracer, list[str]]:
    """Run the CLI once under the tracer; wrapped names are always restored."""
    from crossmesh import cli

    tracer = Tracer()
    patches, missing = install(tracer)
    try:
        code = tracer.call(ROOT_SPAN, cli.run_experiment, argv)
    finally:
        restore(patches)
    return code, tracer, missing


def main(args: list[str]) -> int:
    out_path, argv = args[0], args[1:]
    code, tracer, missing = traced_run(argv)
    root = tracer.spans[0]
    report = {
        "exit_code": code,
        "root_s": root[3] - root[2],
        "spans": len(tracer.spans),
        "trials": sum(1 for span in tracer.spans if span[0] == _TRIAL),
        "redundant_trials": tracer.redundant_trials,
        "unwrapped": missing,
        "functions": summarize(tracer.spans),
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
