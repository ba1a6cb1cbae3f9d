"""Seeded Monte-Carlo experiments comparing the two architectures.

Three sweeps mirror the standard comparison figures: closed-form insertion
loss versus per-cell loss and size, loss-induced fidelity over random
targets, and phase-error fidelity over random targets and Gaussian phase
deviations.

Determinism contract: every random quantity is derived from the master seed
through ``numpy.random.SeedSequence`` spawn keys.  Target matrices are keyed
by (n, matrix index) and shared by both architectures and all sweep points;
phase trials are keyed by (architecture, n, sweep index, matrix index, trial
index).  ``trial_rng`` is the reference stream of one phase trial, whose
deviations are the first two normals it draws, scaled by sigma;
``_phase_deviations`` draws all of a matrix's trials in one pass, bit for
bit the same.  SeedSequence mixes the uint32 words of its entropy and
spawn key into a pool of four words by uint32 hashes alone.  The seed's
words (padded to four) and the key words (tag, architecture, n) are the
same for every trial of a point, so they are mixed as Python ints once per
matrix, and the last three key words (sigma, matrix and trial index, one
word each) as uint32 arrays over the matrix's trials.  SeedSequence's
``generate_state(4, uint64)`` and PCG64's two 128-bit seeding steps then
give each trial's state, and one reused generator draws from each.
Aggregation uses ``math.fsum`` in fixed index order, so results are
bit-identical for any worker count and regardless of how many phase trials
are evaluated or devices built per batch.  A matrix's phase trials form one
(sigma, trial, (d_theta, d_phi)) array, left zero (and undrawn) at sigma = 0.
The crossbar scores it in one closed-form call; the SVD device in batches of
``_TRIAL_ENTRIES // n^2`` trials that may span sigma values, plus one
unperturbed evaluation if the grid holds a 0, and its IL values in one pass.

Each sweep takes its grid, which ``_grid`` alone checks, and its own
settings as arguments.  A task ``(cfg, arch, n, lo, hi)`` covers matrices
lo..hi-1 of one point, one task per worker, and ``_run_sweep`` maps the
sweep's ``partial(chunk, grid, setting)`` over the tasks.  ``_per_matrix``
alone draws targets, builds devices (SVD devices in stacks of
``_BATCH_ENTRIES // n^2`` meshes at most, two per device) and names a
failed point (``SweepError``); a sweep only scores each device.

Parallelism: every sweep runs the bundled OpenBLAS on one thread (the
package defaults ``OPENBLAS_NUM_THREADS`` to 1, and ``_one_blas_thread``
pins a BLAS thread pool started before that).  With more than one
worker, the parent forks one child per worker with ``os.fork``: child w
runs tasks w, w + workers, ..., which is chunk w of every point when there
are at least as many matrices as workers, and pickles its rows to its own
pipe.  The parent runs no task itself, since its peak RSS counts every
page it has mapped, a forked child's only the pages it touches.  It puts
the rows back in task order, raises the exception of the first failed
task, as the serial loop would, and kills and reaps any child still
running when it leaves.  The children get through the fork alone what
makes them cheap: one BLAS thread, ``numpy.random``, which the parent
loads before forking, and, from the CLI, its frozen import-time heap
(``cli.console_entry`` calls ``gc.freeze()``), which their collections
skip.  Spawned children would get none of these, so sweeps fork only on
Linux and run serially elsewhere, with the same results.  No sweep loads
``concurrent.futures`` or ``multiprocessing``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import itertools
import math
import operator
import os
import pickle
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .clements import (
    apply_common_deviation,
    build_svd_clements,
    evaluate_svd_clements,
    svd_insertion_loss,
    with_loss,
)
from .crossbar import (  # weights_with_common_deviation: bench/trace_run.py wraps it by this module's name
    build_topology,
    build_xbar,
    common_deviation_fidelity,
    design_splitters,
    realized_matrix,
    weights_with_common_deviation,
    xbar_insertion_loss,
)
from .errors import ConfigError, DomainError, SweepError
from .linalg import fidelity, random_target_matrix
from .nodes import LOSSLESS, LossModel, SILICON_PASSIVES, node_loss_model

ARCH_XBAR = "xbar"
ARCH_SVD_CLEMENTS = "svd-clements"

_ARCH_IDS = {ARCH_XBAR: 1, ARCH_SVD_CLEMENTS: 2}
_TAG_TARGET = 11
_TAG_PHASE = 22

# Most mesh entries (2 K n^2) in one stacked build of K SVD devices, 6 at
# n = 64: ``clements_decompose`` shares its per-step overhead across the stack.
_BATCH_ENTRIES = 13 * 64 * 64

# Most transfer-matrix entries (K n^2) in one batch of K SVD phase trials, 4
# at n = 64, so its ~four (K, n, n) complex stacks (1 MB) fit a 2 MB L2 cache.
# An n = 64 trial then takes 5.3 ms (5.8 ms in batches of 13, 8.9 ms one by one),
# and bench phase-svd peaks at 39.8 MB RSS, 42.9 MB at 13 (2-vCPU Xeon, numpy 2.4).
_TRIAL_ENTRIES = 4 * 64 * 64

# numpy's SeedSequence hash constants (pool of four uint32 words) and the
# PCG64 multiplier, with which _phase_deviations reproduces trial_rng.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _integer(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as a Python int in [low, high]; ConfigError for bools, floats and anything else."""
    try:
        if not isinstance(value, bool) and low <= operator.index(value) <= high:
            return operator.index(value)
    except TypeError:
        pass
    raise ConfigError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


@dataclass(frozen=True)
class SweepConfig:
    """The points and seeding the Monte-Carlo sweeps share.  Architectures and sizes must not repeat."""

    architectures: tuple[str, ...] = (ARCH_XBAR, ARCH_SVD_CLEMENTS)
    n_values: tuple[int, ...] = ()
    n_matrices: int = 500
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "architectures", tuple(self.architectures))
        object.__setattr__(self, "n_values", tuple(_integer("n_values", n, 2) for n in self.n_values))
        # A matrix index is one uint32 seed word.
        object.__setattr__(self, "n_matrices", _integer("n_matrices", self.n_matrices, 1, _MASK32))
        object.__setattr__(self, "master_seed", _integer("master_seed", self.master_seed, 0))
        if not self.architectures:
            raise ConfigError("at least one architecture must be selected")
        for arch in self.architectures:
            if arch not in _ARCH_IDS:
                raise ConfigError(f"unknown architecture {arch!r}")
        if not self.n_values:
            raise ConfigError("n_values must be non-empty")
        for name, values in (("architectures", self.architectures), ("n_values", self.n_values)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat, got {values}")


def _grid(name: str, values) -> tuple[float, ...]:
    """``values`` as floats; ConfigError unless non-empty, finite, >= 0 and free of repeats
    (a sweep seeds its points by grid index and keys its reports by value)."""
    grid = tuple(float(v) for v in values)
    if not grid or len(set(grid)) != len(grid) or not all(math.isfinite(v) and v >= 0.0 for v in grid):
        raise ConfigError(f"{name} must be non-empty, finite, >= 0 and free of repeats, got {grid}")
    return grid


@dataclass(frozen=True)
class FidelityReport:
    """Aggregated statistics for one (architecture, n, sweep value) point."""

    architecture: str
    n: int
    sweep_value: float
    fidelity_mean: float
    fidelity_std: float
    n_samples: int
    master_seed: int

    def __post_init__(self):
        if not (0.0 <= self.fidelity_mean <= 1.0 + 1e-9):
            raise DomainError(f"fidelity mean out of range: {self.fidelity_mean}")
        if self.fidelity_std < 0.0:
            raise DomainError(f"fidelity std must be >= 0: {self.fidelity_std}")


def target_matrix(master_seed: int, n: int, index: int) -> np.ndarray:
    """The index-th seeded random target matrix at dimension n."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(_TAG_TARGET, n, index))
    return random_target_matrix(n, int(ss.generate_state(1, np.uint64)[0]))


def trial_rng(
    master_seed: int, arch: str, n: int, sweep_index: int, matrix_index: int, trial_index: int
) -> np.random.Generator:
    """Independent, reproducible stream for one phase-perturbation trial."""
    ss = np.random.SeedSequence(
        master_seed,
        spawn_key=(_TAG_PHASE, _ARCH_IDS[arch], n, sweep_index, matrix_index, trial_index),
    )
    return np.random.default_rng(ss)


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, least significant first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash(value, const: int, mult: int):
    """One SeedSequence hash of ``value`` (int or uint32 array), and the next constant."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    """SeedSequence's mix of pool word ``x`` with hashed word ``y`` (ints or uint32 arrays)."""
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _seed_pool(words: list) -> list:
    """SeedSequence's pool after mixing ``words`` (at least four; later ones may be arrays)."""
    const, pool = _INIT_A, []
    for word in words[:4]:
        hashed, const = _hash(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[4:]:
        for dst in range(4):
            hashed, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    return pool


def _phase_deviations(cfg: SweepConfig, sigma_grid, trials: int, arch: str, n: int, m_idx: int) -> np.ndarray:
    """Matrix ``m_idx``'s (sigma, trial, (d_theta, d_phi)) deviations, left zero at sigma = 0.

    Entry (s, t) is what ``trial_rng(cfg.master_seed, arch, n, s, m_idx,
    t)`` gives for ``normal(0, sigma_grid[s])`` twice, bit for bit.
    """
    sigmas = np.array(sigma_grid)
    rows = np.flatnonzero(sigmas)
    deviations = np.zeros((len(sigmas), trials, 2))
    if rows.size == 0:
        return deviations
    s_idx = np.repeat(rows, trials).astype(np.uint32)
    t_idx = np.tile(np.arange(trials, dtype=np.uint32), rows.size)
    entropy = _words(cfg.master_seed)
    entropy += [0] * (4 - len(entropy))  # SeedSequence pads the seed when a spawn key follows
    pool = _seed_pool(entropy + [_TAG_PHASE, _ARCH_IDS[arch]] + _words(n) + [s_idx, m_idx, t_idx])
    const, words = _INIT_B, []
    for k in range(8):  # generate_state(4, np.uint64), as uint32 words low half first
        hashed, const = _hash(pool[k % 4], const, _MULT_B)
        words.append(hashed.astype(np.uint64))
    halves = [(words[k] | words[k + 1] << np.uint64(32)).tolist() for k in range(0, 8, 2)]
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    normals = []
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(*halves):
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        bitgen.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        normals.append(gen.standard_normal(2))
    # normal(0, sigma) returns 0.0 + sigma * z
    deviations[rows] = 0.0 + sigmas[rows, None, None] * np.reshape(normals, (rows.size, trials, 2))
    return deviations


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _chunks(total: int, workers: int) -> list[tuple[int, int]]:
    """Matrix ranges ``(lo, hi)`` of min(total, workers) chunks, larger first, whose sizes differ by at most one."""
    pieces = min(total, workers)
    size, larger = divmod(total, pieces)
    bounds = [k * size + min(k, larger) for k in range(pieces + 1)]
    return list(zip(bounds, bounds[1:]))


def pool_size(cfg: SweepConfig, workers: int) -> int:
    """Worker processes a Monte-Carlo sweep of ``cfg`` forks; 1 means it runs in this process.

    Never more than the sweep's tasks or the usable CPUs, and 1 off Linux,
    where a sweep does not fork.  ``_chunks`` cuts each (architecture, n)
    point into min(matrices, workers) chunks and the children take the
    tasks in turn, so counting one task per matrix forks no idle child.
    """
    workers = _integer("workers", workers, 1)
    if sys.platform != "linux":
        return 1
    points = len(cfg.architectures) * len(cfg.n_values)
    return min(workers, usable_cpus(), points * cfg.n_matrices)


def _run_sweep(worker, cfg: SweepConfig, workers: int) -> list[tuple[str, int, np.ndarray]]:
    """Run ``worker`` over every (point, chunk) task of a sweep, in forked children if ``pool_size`` > 1.

    Returns ``(arch, n, values)`` per (architecture, n) point in config
    order, the rows of ``values`` in matrix-index order.
    """
    size = pool_size(cfg, workers)
    bounds = _chunks(cfg.n_matrices, size)
    points = [(arch, n) for arch in cfg.architectures for n in cfg.n_values]
    tasks = [(cfg, arch, n) + bound for arch, n in points for bound in bounds]
    with _one_blas_thread():
        if size == 1:
            parts = [worker(task) for task in tasks]
        else:
            import numpy.random  # noqa: F401  imported before the fork, so no child imports it again
            parts = _fork_map(worker, tasks, size)
    per_point = len(bounds)
    return [
        (arch, n, np.concatenate(parts[k * per_point : (k + 1) * per_point], axis=0))
        for k, (arch, n) in enumerate(points)
    ]


def _flush_stdio() -> None:
    """Flush Python's stdout and stderr, so a forked child neither repeats nor drops buffered output."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _fork_map(worker, tasks: list, size: int) -> list:
    """``[worker(task) for task in tasks]``, run by ``size`` forked children; child w runs ``tasks[w::size]``.

    Raises the exception of the first failed task in task order.  A child
    that exits without sending its results is a SweepError naming its
    matrices and exit status.  No child outlives the call.
    """
    import signal  # serial runs never load it

    children = []  # (pid, read end of its pipe), in share order
    reaped = 0
    try:
        for w in range(size):
            _flush_stdio()
            read, write = os.pipe()
            pipe = open(read, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(worker, tasks[w::size], write)
            except OSError:
                pipe.close()
                raise
            finally:
                os.close(write)
            children.append((pid, pipe))
        shares = []
        for w, (pid, pipe) in enumerate(children):
            payload = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if code == 0:
                shares.append(pickle.loads(payload))  # bytes our own child wrote
                continue
            ranges = ", ".join(dict.fromkeys(f"{lo}..{hi - 1}" for *_, lo, hi in tasks[w::size]))
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            shares.append(([], SweepError(f"sweep worker {w} (matrices {ranges}) {how} before sending its results")))
    finally:
        for pid, pipe in children[reaped:]:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    parts = []
    for k in range(len(tasks)):
        done, error = shares[k % size]
        if k // size == len(done):  # the task that stopped its child
            raise error
        parts.append(done[k // size])
    return parts


def _run_share(worker, share: list, write: int) -> NoReturn:
    """In a forked child: send ``(results, exception or None)`` of ``share`` through ``write`` and exit."""
    code = 1
    try:
        done, error = [], None
        try:
            for task in share:
                done.append(worker(task))
        except BaseException as exc:  # re-raised by the parent
            error = exc
        try:
            payload = pickle.dumps((done, error))
            if error is not None:
                pickle.loads(payload)  # an exception that pickles but cannot be rebuilt fails here
        except Exception:
            what, unsent = ("exception", error) if error is not None else ("results", done)
            payload = pickle.dumps(([], SweepError(f"a sweep worker's {what} cannot be pickled: {unsent!r}")))
        with open(write, "wb") as pipe:
            pipe.write(payload)
        _flush_stdio()
        code = 0
    finally:
        os._exit(code)


def _openblas_threads():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the bundled OpenBLAS on one thread while the block runs.

    Set in the parent before a sweep forks: a forked child inherits the
    count, whereas setting it inside a child leaves the helper threads it
    re-creates busy-waiting.  At n <= 64 a second BLAS thread only spins,
    in a serial sweep as in a worker, and processes are the unit of
    parallelism.  No-op for other BLAS builds.
    """
    get, set_ = _openblas_threads() or (lambda: None, lambda count: None)
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _per_matrix(task, loss: LossModel, score, kind: str) -> np.ndarray:
    """Rows ``score(device, y, m_idx)`` of the task's matrices; devices get ``loss``."""
    cfg, arch, n, lo, hi = task
    svd = arch == ARCH_SVD_CLEMENTS
    block = max(1, _BATCH_ENTRIES // (2 * n * n)) if svd else 1  # two meshes per SVD device

    def build(indices) -> list:
        targets = [target_matrix(cfg.master_seed, n, m_idx) for m_idx in indices]
        if svd:
            devices = build_svd_clements(np.stack(targets), loss)
            return [(y, devices[k]) for k, y in enumerate(targets)]
        # The crossbar's N x M weights are the transpose of the operator it applies.
        return [(y, build_xbar(y.T, loss, "balanced")) for y in targets]

    rows = []
    for first in range(lo, hi, block):
        indices = range(first, min(first + block, hi))
        try:
            built = build(indices)
        except Exception:  # rebuilt one by one below, so the error names the first failing matrix
            built = [None] * len(indices)
        for m_idx, pair in zip(indices, built):
            try:
                y, device = pair or build([m_idx])[0]
                rows.append(score(device, y, m_idx))
            except Exception as exc:
                raise SweepError(
                    f"{kind} sweep failed at arch={arch}, n={n}, matrix={m_idx}: {exc}"
                ) from exc
    return np.array(rows)


def _loss_chunk(il_node_grid, passives: LossModel, task) -> np.ndarray:
    arch = task[1]
    models = [node_loss_model(il, passives) for il in il_node_grid]

    def score(device, y, _m_idx):
        if arch == ARCH_SVD_CLEMENTS:  # every IL value in one pass
            return fidelity(evaluate_svd_clements(device, losses=models), y)
        return [fidelity(realized_matrix(with_loss(device, model)), y) for model in models]

    # Phases come from the lossless factors and the balanced splitters from
    # the passive losses only, so any of the models builds the device.
    return _per_matrix(task, models[0], score, "loss")


def _phase_chunk(sigma_grid, trials: int, task) -> np.ndarray:
    cfg, arch, n = task[:3]
    batch = max(1, _TRIAL_ENTRIES // (n * n))
    perturbed = np.array(sigma_grid) != 0.0

    def score(device, y, m_idx):
        deviations = _phase_deviations(cfg, sigma_grid, trials, arch, n, m_idx)
        if arch == ARCH_XBAR:
            return common_deviation_fidelity(device, y, deviations[..., 0])
        out = np.empty(deviations.shape[:2])
        if not perturbed.all():  # every sigma = 0 trial is the unperturbed device
            out[~perturbed] = fidelity(evaluate_svd_clements(device), y)
        pairs = deviations[perturbed].reshape(-1, 2)
        scored = []
        for first in range(0, len(pairs), batch):  # batches may span sigma rows
            chunk = pairs[first : first + batch]
            # By keyword: bench/trace_run.py's tracer takes bool(d == 0.0) of positional deviations.
            shaken = apply_common_deviation(device, dtheta=chunk[:, :1], dphi=chunk[:, 1:])
            scored.extend(fidelity(evaluate_svd_clements(shaken), y))
        out[perturbed] = np.reshape(scored, (-1, trials))
        return out

    return _per_matrix(task, LOSSLESS, score, "phase")


def _reports(cfg: SweepConfig, worker, grid: tuple, workers: int) -> list[FidelityReport]:
    """Mean and std per (architecture, n, grid value k) of entry k of ``worker(task)``'s rows."""
    reports = []
    for arch, n, values in _run_sweep(worker, cfg, workers):
        for k, value in enumerate(grid):
            samples = values[:, k].reshape(-1)
            mean = math.fsum(samples) / samples.size
            std = math.sqrt(math.fsum(((samples - mean) ** 2).tolist()) / samples.size)
            reports.append(FidelityReport(arch, n, value, mean, std, samples.size, cfg.master_seed))
    return reports


def loss_fidelity_sweep(cfg: SweepConfig, il_node_grid, *, passives: LossModel = SILICON_PASSIVES,
                        workers: int = 1) -> list[FidelityReport]:
    """Mean/std fidelity over seeded random targets of devices with per-cell loss ``il_node_grid`` (dB).

    One report per (architecture, n, IL_node) point.  The crossbar rows are
    computed, not assumed: the loss-balanced design makes every one of its
    points exactly 1, which doubles as a regression check.  ``passives`` set
    only the crossbar's couplers, whose design is checked before any target
    is drawn.
    """
    il_node_grid = _grid("il_node_grid", il_node_grid)
    if ARCH_XBAR in cfg.architectures:
        for n in cfg.n_values:
            design_splitters(build_topology(n, n), passives)
    return _reports(cfg, functools.partial(_loss_chunk, il_node_grid, passives), il_node_grid, workers)


def phase_fidelity_sweep(cfg: SweepConfig, sigma_grid, *, trials: int = 100, workers: int = 1) -> list[FidelityReport]:
    """Mean/std fidelity of lossless devices under Gaussian phase errors of std ``sigma_grid`` (rad).

    Each of the ``trials`` trials per matrix and sigma draws one
    two-element Gaussian deviation set (d_theta, d_phi) from its own seeded
    stream and applies it to every MZI cell of the device, including the
    attenuator column; samples aggregate over matrices and trials.
    """
    sigma_grid = _grid("sigma_grid", sigma_grid)
    trials = _integer("trials", trials, 1, _MASK32)  # a trial index is one uint32 seed word
    return _reports(cfg, functools.partial(_phase_chunk, sigma_grid, trials), sigma_grid, workers)


def insertion_loss_sweep(cfg: SweepConfig, il_node_grid, *,
                         passives: LossModel = SILICON_PASSIVES) -> list[tuple[str, str, int, float, float]]:
    """Closed-form insertion-loss curves over ``il_node_grid`` (per-cell loss, dB); no randomness involved.

    Returns rows (architecture, case, n, il_node_db, il_total_db) with the
    crossbar evaluated on an equal footing (M = N, loss-balanced) and the
    SVD architecture along its best- and worst-case paths.  A total that
    overflows to infinity is a DomainError.
    """
    il_node_grid = _grid("il_node_grid", il_node_grid)
    rows = []
    for arch in cfg.architectures:
        cases = ("best", "worst") if arch == ARCH_SVD_CLEMENTS else ("balanced",)
        for case, n, il in itertools.product(cases, cfg.n_values, il_node_grid):
            if arch == ARCH_SVD_CLEMENTS:
                total = svd_insertion_loss(n, il, case)
            else:
                total = xbar_insertion_loss(build_topology(n, n), passives, il_node_db=il)
            if not math.isfinite(total):
                raise DomainError(f"insertion loss at arch={arch}, n={n}, il_node_db={il} is not finite")
            rows.append((arch, case, n, il, total))
    return rows
