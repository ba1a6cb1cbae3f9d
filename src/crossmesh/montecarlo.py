"""Seeded Monte-Carlo experiments comparing the two architectures.

Three sweeps mirror the standard comparison figures: closed-form insertion
loss versus per-cell loss and size, loss-induced fidelity over random
targets, and phase-error fidelity over random targets and Gaussian phase
deviations.

Determinism contract: every random quantity is derived from the master seed
through ``numpy.random.SeedSequence`` spawn keys.  Target matrices are keyed
by (n, matrix index) and shared by both architectures and all sweep points;
phase trials are keyed by (architecture, n, sweep index, matrix index, trial
index).  Aggregation uses ``math.fsum`` in fixed index order, so results are
bit-identical regardless of how the work is scheduled across processes or
how many phase trials are evaluated per batch.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .clements import (  # apply_common_deviation: bench/trace_run.py wraps it by this module's name
    apply_common_deviation,
    build_svd_clements,
    evaluate_svd_clements,
    svd_insertion_loss,
    with_loss,
)
from .crossbar import (
    build_topology,
    build_xbar,
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

# Most transfer-matrix entries (K n^2) evaluated in one batch of K phase
# trials.  At the CLI's default 100 trials and n = 64 this held the peak RSS
# to 47 MB, against 78 MB with all trials in one batch, at no loss of wall
# time (2-vCPU Xeon).
_BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SweepConfig:
    """Shared experiment configuration; grids may be empty when unused."""

    architectures: tuple[str, ...] = (ARCH_XBAR, ARCH_SVD_CLEMENTS)
    n_values: tuple[int, ...] = ()
    il_node_grid: tuple[float, ...] = ()
    sigma_grid: tuple[float, ...] = ()
    n_matrices: int = 500
    n_phase_trials: int = 100
    passive_losses: LossModel = field(default_factory=lambda: SILICON_PASSIVES)
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "architectures", tuple(self.architectures))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "il_node_grid", tuple(float(v) for v in self.il_node_grid))
        object.__setattr__(self, "sigma_grid", tuple(float(v) for v in self.sigma_grid))
        if not self.architectures:
            raise ConfigError("at least one architecture must be selected")
        for arch in self.architectures:
            if arch not in _ARCH_IDS:
                raise ConfigError(f"unknown architecture {arch!r}")
        for n in self.n_values:
            if n < 2:
                raise ConfigError(f"matrix dimensions must be >= 2, got {n}")
        if self.n_matrices < 1:
            raise ConfigError(f"n_matrices must be >= 1, got {self.n_matrices}")
        if self.n_phase_trials < 1:
            raise ConfigError(f"n_phase_trials must be >= 1, got {self.n_phase_trials}")
        if any(v < 0.0 for v in self.il_node_grid):
            raise ConfigError("il_node_grid values must be >= 0")
        if any(v < 0.0 for v in self.sigma_grid):
            raise ConfigError("sigma_grid values must be >= 0")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be a non-negative integer")


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


def target_seed(master_seed: int, n: int, index: int) -> int:
    """Seed of the index-th random target matrix at dimension n."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(_TAG_TARGET, n, index))
    return int(ss.generate_state(1, np.uint64)[0])


def target_matrix(master_seed: int, n: int, index: int) -> np.ndarray:
    return random_target_matrix(n, target_seed(master_seed, n, index))


def trial_rng(
    master_seed: int, arch: str, n: int, sweep_index: int, matrix_index: int, trial_index: int
) -> np.random.Generator:
    """Independent, reproducible stream for one phase-perturbation trial."""
    ss = np.random.SeedSequence(
        master_seed,
        spawn_key=(_TAG_PHASE, _ARCH_IDS[arch], n, sweep_index, matrix_index, trial_index),
    )
    return np.random.default_rng(ss)


def _mean_std(values) -> tuple[float, float]:
    vals = list(values)
    count = len(vals)
    mean = math.fsum(vals) / count
    var = math.fsum((v - mean) ** 2 for v in vals) / count
    return mean, math.sqrt(var)


def _chunks(total: int, workers: int) -> list[tuple[int, int]]:
    pieces = max(1, min(total, workers * 4))
    step = -(-total // pieces)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run_chunked(worker, common: tuple, total: int, workers: int) -> np.ndarray:
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    bounds = _chunks(total, workers)
    args = [common + (lo, hi) for lo, hi in bounds]
    if workers <= 1 or len(bounds) == 1:
        parts = [worker(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(worker, args))
    return np.concatenate(parts, axis=0)


def _loss_chunk(args) -> np.ndarray:
    master_seed, arch, n, il_grid, passives, lo, hi = args
    out = np.empty((hi - lo, len(il_grid)))
    for row, m_idx in enumerate(range(lo, hi)):
        try:
            y = target_matrix(master_seed, n, m_idx)
            if arch == ARCH_SVD_CLEMENTS:
                device, evaluate = build_svd_clements(y, LOSSLESS), evaluate_svd_clements
            else:
                # The balanced splitters depend on the passive losses only.
                device = build_xbar(y.T, node_loss_model(il_grid[0], passives), "balanced")
                evaluate = realized_matrix
            for k, il in enumerate(il_grid):
                lossy = with_loss(device, node_loss_model(il, passives))
                out[row, k] = fidelity(evaluate(lossy), y)
        except Exception as exc:
            raise SweepError(
                f"loss sweep failed at arch={arch}, n={n}, matrix={m_idx}: {exc}"
            ) from exc
    return out


def _phase_chunk(args) -> np.ndarray:
    master_seed, arch, n, sigma_grid, n_trials, lo, hi = args
    out = np.empty((hi - lo, len(sigma_grid), n_trials))
    batch = max(1, _BATCH_ENTRIES // (n * n))
    for row, m_idx in enumerate(range(lo, hi)):
        try:
            y = target_matrix(master_seed, n, m_idx)
            if arch == ARCH_SVD_CLEMENTS:
                device, evaluate = build_svd_clements(y, LOSSLESS), evaluate_svd_clements
            else:
                device, evaluate = build_xbar(y.T, LOSSLESS, "balanced"), realized_matrix
            for s_idx, sigma in enumerate(sigma_grid):
                if sigma == 0.0:
                    # Every trial is the unperturbed device.
                    out[row, s_idx] = fidelity(evaluate(device), y)
                    continue
                deviations = np.array([
                    _trial_deviation_pair(master_seed, arch, n, s_idx, m_idx, t_idx, sigma)
                    for t_idx in range(n_trials)
                ])
                if arch == ARCH_SVD_CLEMENTS:
                    for first in range(0, n_trials, batch):
                        transfers = evaluate_svd_clements(device, deviations[first : first + batch].T)
                        out[row, s_idx, first : first + batch] = [fidelity(t, y) for t in transfers]
                else:
                    for t_idx, dth in enumerate(deviations[:, 0].tolist()):
                        w = weights_with_common_deviation(device, dth)
                        out[row, s_idx, t_idx] = fidelity(realized_matrix(device, w), y)
        except Exception as exc:
            raise SweepError(
                f"phase sweep failed at arch={arch}, n={n}, matrix={m_idx}: {exc}"
            ) from exc
    return out


def _trial_deviation_pair(
    master_seed: int, arch: str, n: int, sweep_index: int, matrix_index: int,
    trial_index: int, sigma: float,
) -> tuple[float, float]:
    """The trial's two-element deviation set (d_theta, d_phi)."""
    if sigma == 0.0:
        return 0.0, 0.0
    rng = trial_rng(master_seed, arch, n, sweep_index, matrix_index, trial_index)
    return float(rng.normal(0.0, sigma)), float(rng.normal(0.0, sigma))


def loss_fidelity_sweep(cfg: SweepConfig, *, workers: int = 1) -> list[FidelityReport]:
    """Mean/std fidelity of lossy devices over seeded random targets.

    One report per (architecture, n, IL_node) point.  The crossbar rows are
    computed, not assumed: the loss-balanced design makes every one of its
    points exactly 1, which doubles as a regression check.
    """
    if not cfg.il_node_grid:
        raise ConfigError("il_node_grid must be non-empty for a loss sweep")
    if not cfg.n_values:
        raise ConfigError("n_values must be non-empty")
    reports = []
    for arch in cfg.architectures:
        for n in cfg.n_values:
            common = (cfg.master_seed, arch, n, cfg.il_node_grid, cfg.passive_losses)
            values = _run_chunked(_loss_chunk, common, cfg.n_matrices, workers)
            for k, il in enumerate(cfg.il_node_grid):
                mean, std = _mean_std(values[:, k])
                reports.append(
                    FidelityReport(arch, n, il, mean, std, cfg.n_matrices, cfg.master_seed)
                )
    return reports


def phase_fidelity_sweep(cfg: SweepConfig, *, workers: int = 1) -> list[FidelityReport]:
    """Mean/std fidelity of lossless devices under Gaussian phase errors.

    Each trial draws one two-element Gaussian deviation set (d_theta,
    d_phi) from its own seeded stream and applies it to every MZI cell of
    the device, including the attenuator column; samples aggregate over
    matrices and trials.
    """
    if not cfg.sigma_grid:
        raise ConfigError("sigma_grid must be non-empty for a phase sweep")
    if not cfg.n_values:
        raise ConfigError("n_values must be non-empty")
    reports = []
    for arch in cfg.architectures:
        for n in cfg.n_values:
            common = (cfg.master_seed, arch, n, cfg.sigma_grid, cfg.n_phase_trials)
            values = _run_chunked(_phase_chunk, common, cfg.n_matrices, workers)
            for s_idx, sigma in enumerate(cfg.sigma_grid):
                flat = values[:, s_idx, :].reshape(-1)
                mean, std = _mean_std(flat)
                reports.append(
                    FidelityReport(
                        arch, n, sigma, mean, std, cfg.n_matrices * cfg.n_phase_trials, cfg.master_seed
                    )
                )
    return reports


def insertion_loss_sweep(cfg: SweepConfig) -> list[tuple[str, str, int, float, float]]:
    """Closed-form insertion-loss curves; no randomness involved.

    Returns rows (architecture, case, n, il_node_db, il_total_db) with the
    crossbar evaluated on an equal footing (M = N, loss-balanced) and the
    SVD architecture along its best- and worst-case paths.
    """
    if not cfg.il_node_grid:
        raise ConfigError("il_node_grid must be non-empty for an insertion-loss sweep")
    if not cfg.n_values:
        raise ConfigError("n_values must be non-empty")
    rows = []
    for arch in cfg.architectures:
        if arch == ARCH_SVD_CLEMENTS:
            for case in ("best", "worst"):
                for n in cfg.n_values:
                    for il in cfg.il_node_grid:
                        rows.append((arch, case, n, il, svd_insertion_loss(n, il, case)))
        else:
            for n in cfg.n_values:
                topology = build_topology(n, n)
                for il in cfg.il_node_grid:
                    total = xbar_insertion_loss(topology, cfg.passive_losses, il_node_db=il)
                    rows.append((arch, "balanced", n, il, total))
    return rows
